import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import idfree_asd.simulate as simulate
from idfree_asd import protocol, scorers
from idfree_asd.cli import EXIT_INTERNAL, main
from idfree_asd.protocol import MergedTestSet, full_report
from idfree_asd.scorers import NormalizerSpec, ScorerSpec, build_score_matrix
from idfree_asd.simulate import (
    DEFAULT_REPEATS,
    DEFAULT_SCORER,
    DEFAULT_SEPARATIONS,
    SimConfig,
    SimError,
    derive_seed,
    generate,
    run_point,
    simplex_centers,
    sweep,
)
from oracles import generate_oracle
from tables import traced

# ---------------------------------------------------------------------------
# geometry


@pytest.mark.parametrize("k", range(2, 9))
def test_simplex_centers_are_equidistant(k):
    for d in (k - 1, k + 3):
        centers = simplex_centers(k, d, separation=3.7)
        for i in range(k):
            for j in range(i + 1, k):
                dist = np.linalg.norm(centers[i] - centers[j])
                assert dist == pytest.approx(3.7, abs=1e-9)
        assert np.allclose(centers.mean(axis=0), 0.0, atol=1e-9)


def test_simplex_centers_edge_cases():
    assert np.array_equal(simplex_centers(1, 4, 5.0), np.zeros((1, 4)))
    assert np.array_equal(simplex_centers(3, 4, 0.0), np.zeros((3, 4)))
    with pytest.raises(SimError, match="need d >="):
        simplex_centers(5, 3, 1.0)


# ---------------------------------------------------------------------------
# config


def test_simconfig_defaults_are_valid():
    config = SimConfig()
    assert config.k == 5 and config.d == 8
    assert config.n_ref >= 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"d": 0},
        {"n_ref": 1},
        {"n_norm": 0},
        {"n_anom": 0},
        {"separation": -1.0},
        {"separation": float("nan")},
        {"spread": 0.0},
        {"anomaly_offset": 0.0},
        {"seed": -1},
        {"seed": 2**64},
        {"k": 2.5},
        # a bool is no count, and an int too large for a float is not finite
        {"k": True},
        {"seed": True},
        {"k": 10**400},
        {"n_norm": 10**400},
        {"separation": 10**400},
        {"spread": 10**400},
        {"anomaly_offset": True},
    ],
)
def test_simconfig_rejects_bad_values(kwargs):
    with pytest.raises(SimError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("name", ["k", "d", "n_ref", "n_norm", "n_anom", "seed"])
def test_simconfig_whole_float_counts_are_ints(name):
    # ScorerSpec's rule: 2.0 is the count 2, and it generates what 2 does
    ints = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2, seed=1)
    floats = dataclasses.replace(ints, **{name: float(getattr(ints, name))})
    value = getattr(floats, name)
    assert type(value) is int and value == getattr(ints, name)
    (refs, merged), (expected_refs, expected) = generate(floats), generate(ints)
    assert merged.ids.tolist() == expected.ids.tolist()
    assert np.array_equal(merged.features, expected.features)
    assert all(np.array_equal(refs[m].vectors, expected_refs[m].vectors) for m in refs)


# ---------------------------------------------------------------------------
# generation


def test_generate_counts_and_shapes():
    config = SimConfig(k=3, d=4, n_ref=5, n_norm=6, n_anom=2, seed=9)
    references, merged = generate(config)
    assert sorted(references) == ["machine01", "machine02", "machine03"]
    for ref in references.values():
        assert ref.vectors.shape == (5, 4)
    assert len(merged.recordings) == 3 * (6 + 2)
    for machine in merged.machines:
        recs = [r for r in merged.recordings if r.true_machine == machine]
        assert sum(not r.is_anomaly for r in recs) == 6
        assert sum(r.is_anomaly for r in recs) == 2
        for rec in recs:
            assert rec.features.shape == (4,)
            assert rec.split == "dev"
    ids = [r.id for r in merged.recordings]
    assert len(set(ids)) == len(ids)


def test_generate_single_machine():
    references, merged = generate(SimConfig(k=1, d=2, n_ref=3, n_norm=4, n_anom=2))
    assert list(references) == ["machine01"]
    assert len(merged.recordings) == 6


def test_generate_is_deterministic():
    config = SimConfig(k=2, d=3, n_ref=4, n_norm=5, n_anom=3, seed=1234)
    refs_a, merged_a = generate(config)
    refs_b, merged_b = generate(config)
    for machine in refs_a:
        assert np.array_equal(refs_a[machine].vectors, refs_b[machine].vectors)
    for rec_a, rec_b in zip(merged_a.recordings, merged_b.recordings):
        assert rec_a.id == rec_b.id
        assert np.array_equal(rec_a.features, rec_b.features)


def test_generate_seeds_differ():
    config = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2, seed=0)
    other = dataclasses.replace(config, seed=1)
    refs_a, _ = generate(config)
    refs_b, _ = generate(other)
    assert not np.array_equal(
        refs_a["machine01"].vectors, refs_b["machine01"].vectors
    )


def test_adding_machines_keeps_existing_streams():
    # per-machine child streams: machine i's data is a function of (seed, i)
    small = SimConfig(k=2, d=6, n_ref=4, n_norm=5, n_anom=3, separation=0.0, seed=77)
    large = dataclasses.replace(small, k=4)
    refs_small, merged_small = generate(small)
    refs_large, merged_large = generate(large)
    features_small = {r.id: r.features for r in merged_small.recordings}
    features_large = {r.id: r.features for r in merged_large.recordings}
    for machine in refs_small:
        assert np.array_equal(
            refs_small[machine].vectors, refs_large[machine].vectors
        )
    for rec_id, feats in features_small.items():
        assert np.array_equal(feats, features_large[rec_id])


# a machine's anomaly noise is drawn in pieces of _NOISE_ROWS rows; the oracle
# draws it in one call
NOISE_CONFIGS = {
    f"anom{n_anom}": SimConfig(k=2, d=3, n_ref=4, n_norm=5, n_anom=n_anom, seed=6)
    for n_anom in (1, simulate._NOISE_ROWS - 1, simulate._NOISE_ROWS, simulate._NOISE_ROWS + 1)
}


# n_norm >= 10,000 gives 5-digit ids, which sort away from draw order
@pytest.mark.parametrize("config", [
    SimConfig(k=1, d=3, n_ref=4, n_norm=9, n_anom=5, seed=3),
    SimConfig(),
    SimConfig(k=3, d=2, n_ref=4, n_norm=10_050, n_anom=12, seed=8),
    *NOISE_CONFIGS.values(),
], ids=["k1", "default", "wide-ids", *NOISE_CONFIGS])
def test_generate_matches_the_per_machine_oracle(config):
    references, merged = generate(config)
    ids, codes, labels, features, oracle_refs = generate_oracle(
        config, simplex_centers(config.k, config.d, config.separation))
    assert merged.ids.tolist() == ids
    assert merged.true_machine.tolist() == codes
    assert merged.is_anomaly.tolist() == labels
    assert merged.features.dtype == np.float64
    assert merged.features.tobytes() == features.tobytes()
    assert list(references) == list(oracle_refs)
    for machine, vectors in oracle_refs.items():
        assert references[machine].vectors.tobytes() == vectors.tobytes()
    if config.n_norm >= 10_000:
        assert ids.index("machine01-n10000") < ids.index("machine01-n1001")


# k=101 gives three-digit machine names, and n_norm >= 10,000 five-digit ids
@pytest.mark.parametrize("config", [
    SimConfig(),
    SimConfig(k=101, d=100, n_ref=3, n_norm=2, n_anom=1, seed=4),
    SimConfig(k=2, d=1, n_ref=2, n_norm=10_050, n_anom=12, seed=8),
], ids=["default", "k101", "wide-ids"])
def test_draw_setup_gives_the_merged_set_the_keys_of_its_ids(config, monkeypatch):
    # the key column that simulate builds in one step is the one _keys builds
    # id by id, and the ids are in its order
    given = []

    def merged_set(*args, keys=None, **kwargs):
        given.append(keys)
        return MergedTestSet(*args, keys=keys, **kwargs)

    monkeypatch.setattr(simulate, "MergedTestSet", merged_set)
    merged = simulate._draw_setup(config)[2]
    [keys] = given
    assert keys is not None and keys.tolist() == protocol._keys(merged.ids).tolist()
    assert merged.ids.tolist() == sorted(merged.ids.tolist())


def test_generate_memory_holds_one_copy_of_the_features():
    # the knn-point benchmark config: the features (14.6 MiB) land in one
    # array in id order; per-machine blocks, their concatenation and a gather
    # into id order would hold them three times over, and a draw scaled out of
    # place holds two more arrays of its size
    config = SimConfig(k=4, d=64, n_ref=2000, n_norm=5625, n_anom=1875, seed=2)
    (references, merged), _, peak = traced(lambda: generate(config))
    n, d = merged.features.shape
    data = merged.features.nbytes + sum(ref.vectors.nbytes for ref in references.values())
    # one machine's draws: the larger of its normal and anomaly blocks, and
    # the anomaly noise
    draws = (max(config.n_norm, config.n_anom) + config.n_anom) * d * 8
    # the id order and its inverse, and one machine's reference-sized
    # temporary. Every reference set, and the covariance copy each takes, is
    # done before the test draws, where the peak lies; there the draw buffer
    # holds a machine's normals and anomalies at once, n_anom rows more than
    # `draws` (peak 25.2 MiB against a 25.6 MiB bound)
    working = 2 * n * 8 + config.n_ref * d * 8
    # numpy's lazily imported string functions and the small arrays
    slack = 1.5 * 2**20
    assert peak < data + draws + merged.ids.nbytes + working + slack


def test_generate_rejects_impossible_geometry():
    with pytest.raises(SimError):
        generate(SimConfig(k=6, d=4))


# ---------------------------------------------------------------------------
# single evaluation points


def test_zero_separation_identification_is_chance_level():
    # two indistinguishable machines, 500 merged recordings
    point = run_point(
        SimConfig(k=2, n_ref=32, n_norm=200, n_anom=50, separation=0.0, seed=0)
    )
    assert point.error is None
    assert abs(point.id_accuracy_normalized) <= 0.15


def test_zero_separation_chance_level_tightens_with_more_samples():
    # five machines, 2000 merged recordings
    point = run_point(
        SimConfig(k=5, n_ref=32, n_norm=320, n_anom=80, separation=0.0, seed=0)
    )
    assert abs(point.id_accuracy_normalized) <= 0.1


def test_far_separation_is_lossless():
    # clusters 50 spreads apart, anomalies 6 out: nothing is ever claimed
    point = run_point(
        SimConfig(
            k=3, n_ref=32, n_norm=80, n_anom=20,
            separation=50.0, anomaly_offset=6.0, seed=0,
        )
    )
    assert point.misid_probability == 0.0
    assert point.id_accuracy_normalized == 1.0
    assert point.delta_norm == 0.0
    assert point.a_known > 0.97
    assert point.a_unknown == point.a_known


def test_run_point_is_deterministic():
    config = SimConfig(k=3, d=4, n_ref=8, n_norm=12, n_anom=4, separation=5.0, seed=5)
    assert run_point(config) == run_point(config)


def test_run_point_records_config_coordinates():
    config = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2, separation=2.5, seed=42)
    point = run_point(config, repeat=3)
    assert (point.separation, point.repeat, point.seed) == (2.5, 3, 42)


# k=101 sorts machine100 and machine101 between machine10 and machine11, so
# the columns are not in draw order; half the unpatched block budget holds
# three of three-of-five's five machines (1.38 MB each)
POINT_CONFIGS = {
    "default": SimConfig(),
    "k1": SimConfig(k=1, d=3, n_ref=4, n_norm=9, n_anom=5, seed=3),
    "wide-ids": SimConfig(k=3, d=2, n_ref=4, n_norm=10_050, n_anom=12, seed=8),
    "k101": SimConfig(k=101, d=100, n_ref=3, n_norm=2, n_anom=1, separation=5.0, seed=4),
    "three-of-five": SimConfig(k=5, d=64, n_ref=8, n_norm=2025, n_anom=675, seed=7),
    **NOISE_CONFIGS,
}
POINT_SCORERS = {
    "knn1": ScorerSpec("nearest_reference", k=1),
    "knn2-local-density": ScorerSpec("nearest_reference", k=2,
                                     normalizer=NormalizerSpec("local_density", k_norm=2)),
    "mahalanobis-zscore": ScorerSpec("mahalanobis",
                                     normalizer=NormalizerSpec("zscore_reference")),
}


@functools.cache
def library_point(config, scorer):
    # the library path holds the whole feature matrix and scores it in one call
    # per machine
    references, merged = generate(config)
    specs = {machine: (scorer, ref) for machine, ref in references.items()}
    report = full_report(build_score_matrix(specs, merged.ids, merged.features), merged)
    return simulate.SweepPoint(
        separation=config.separation, repeat=2, seed=config.seed,
        id_accuracy_normalized=report.identification.normalized_accuracy,
        delta_norm=report.delta_norm,
        a_known=report.known.aggregate,
        a_unknown=report.unknown.aggregate,
        misid_probability=report.identification.misid_probability,
    )


@pytest.mark.parametrize("group", ["one", "two", "all", "budget"])
@pytest.mark.parametrize("scorer", POINT_SCORERS.values(), ids=POINT_SCORERS)
@pytest.mark.parametrize("config", POINT_CONFIGS.values(), ids=POINT_CONFIGS)
def test_run_point_equals_the_library_path(config, scorer, group, monkeypatch):
    # run_point draws and scores blocks of whole machines, as many as fit in
    # half the block budget: one, two, all, or what the unpatched budget holds
    expected = library_point(config, scorer)
    per_machine = config.n_norm + config.n_anom
    machine_bytes = 8 * per_machine * config.d
    if group == "budget":
        machines = max(1, scorers._BLOCK_BYTES // 2 // machine_bytes)
    else:
        machines = {"one": 1, "two": 2, "all": config.k}[group]
        monkeypatch.setattr(scorers, "_BLOCK_BYTES", 2 * machine_bytes * machines)
    if config is POINT_CONFIGS["three-of-five"] and group == "budget":
        assert machines == 3
    sizes = []
    test_blocks = simulate._test_blocks

    def recording(*args):
        for rows, block in test_blocks(*args):
            sizes.append(len(block))
            yield rows, block

    monkeypatch.setattr(simulate, "_test_blocks", recording)
    assert run_point(config, scorer, repeat=2) == expected
    size = min(machines, config.k)
    assert sizes == [per_machine * min(size, config.k - first)
                     for first in range(0, config.k, size)]


def test_run_point_memory_holds_one_feature_block():
    # the knn-point benchmark config: neither the (n, d) features (14.6 MiB)
    # nor the (n, k) scores are held, only one block of whole machines in half
    # the block budget (one here, 3.7 MiB), one piece of anomaly noise and the
    # four columns the protocols read. Peak 16.4 MiB against a 16.6 MiB bound;
    # holding the (n, k) scores and an id column beside the keys, it was 17.0 MiB
    config = SimConfig(k=4, d=64, n_ref=2000, n_norm=5625, n_anom=1875, seed=2)
    run_point(SimConfig())  # numpy's lazily imported string functions
    point, _, peak = traced(lambda: run_point(config))
    assert point.error is None
    n, d = config.k * (config.n_norm + config.n_anom), config.d
    references = config.k * config.n_ref * d * 8
    # the reused feature block and the anomaly noise piece beside it
    block = scorers._BLOCK_BYTES // 2 + simulate._NOISE_ROWS * d * 8
    # the kernel's float32 screen, and its centred copy of one machine's references
    kernel = scorers._BLOCK_BYTES // 2 + config.n_ref * d * 8
    # the protocols' columns (protocol._Columns, 18 bytes a row below 256
    # machines), the 15-byte keys, and the id order, its inverse and the true
    # machine codes
    columns = n * 18 + n * 15 + 3 * n * 8
    # the kernel's float64 work on one block of rows and the small arrays
    slack = 2 * 2**20
    assert peak < references + block + kernel + columns + slack


def test_cli_writes_the_same_bytes_under_1_and_2_blas_threads(tmp_path):
    # the distance kernel's float64 products go through BLAS, whose blocking
    # follows its thread count; a point's scores must not, and each output is
    # the frozen one in tests/data/golden
    root = Path(scorers.__file__).parents[1]
    golden = Path(__file__).parent / "data" / "golden"
    path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    knn = ["--k", "4", "--d", "64", "--n-ref", "2000", "--n-norm", "5625", "--n-anom", "1875",
           "--separation", "8", "--seed", "3"]
    for name, args in {"simulate-default": ["simulate"], "simulate-knn-point": ["simulate", *knn],
                       "sweep-default": ["sweep"]}.items():
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.json"
            done = subprocess.run(
                [sys.executable, "-m", "idfree_asd.cli", *args, "--out", str(out)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            )
            assert done.returncode == 0, done.stderr
            written.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert written[0] == written[1], name
        assert written[0] == ((golden / f"{name}.json").read_bytes(),
                              (golden / f"{name}.csv").read_bytes()), name


# ---------------------------------------------------------------------------
# seeds and sweeps


def test_derive_seed_is_stable_and_collision_free():
    seen = set()
    for sep_index in range(10):
        for repeat in range(5):
            seed = derive_seed(3, sep_index, repeat)
            assert 0 <= seed < 2**64
            assert seed == derive_seed(3, sep_index, repeat)
            seen.add(seed)
    assert len(seen) == 50
    assert derive_seed(3, 0, 0) != derive_seed(4, 0, 0)


def test_sweep_single_point_matches_run_point():
    base = SimConfig(k=2, d=3, n_ref=6, n_norm=8, n_anom=4, seed=11)
    points = sweep(base, separations=[4.0], repeats=1)
    assert len(points) == 1
    expected_config = dataclasses.replace(
        base, separation=4.0, seed=derive_seed(11, 0, 0)
    )
    assert points[0] == run_point(expected_config)


def test_sweep_shape_and_order():
    base = SimConfig(k=2, d=3, n_ref=4, n_norm=6, n_anom=2, seed=1)
    separations = [3.0, 6.0, 9.0]
    points = sweep(base, separations=separations, repeats=2)
    assert len(points) == 6
    assert [p.separation for p in points] == [3.0, 3.0, 6.0, 6.0, 9.0, 9.0]
    assert [p.repeat for p in points] == [0, 1, 0, 1, 0, 1]


def test_sweep_records_per_point_failures_and_continues():
    # 6 machines cannot be embedded in 4 dimensions: every point fails but
    # the sweep still returns a complete grid
    base = SimConfig(k=6, d=4, n_ref=4, n_norm=4, n_anom=2, seed=0)
    points = sweep(base, separations=[1.0, 2.0], repeats=2)
    assert len(points) == 4
    for point in points:
        assert point.error is not None and "SimError" in point.error
        assert point.delta_norm is None and point.a_known is None


def test_sweep_propagates_internal_errors(tmp_path, capsys, monkeypatch):
    # only data errors become failed points; a bug stops the sweep and exits 3
    def broken(*args):
        raise RuntimeError("bug in scoring")

    monkeypatch.setattr(simulate, "run_point", broken)
    base = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2)
    with pytest.raises(RuntimeError, match="bug in scoring"):
        sweep(base, separations=[1.0], repeats=1)
    code = main(["sweep", "--separations", "1", "--repeats", "1",
                 "--out", str(tmp_path / "sweep.json")])
    assert code == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().err) == {
        "error": "internal", "message": "RuntimeError: bug in scoring"}
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_validates_arguments():
    base = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2)
    with pytest.raises(SimError):
        sweep(base, separations=[])
    with pytest.raises(SimError):
        sweep(base, separations=[1.0], repeats=0)
    for repeats in (True, 1.5, 10**400, "2"):
        with pytest.raises(SimError, match="repeats must be a positive integer"):
            sweep(base, separations=[1.0], repeats=repeats)


def test_sweep_whole_float_repeats_count_as_ints():
    base = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2)
    assert sweep(base, separations=[1.0], repeats=2.0) == sweep(base, separations=[1.0], repeats=2)


def test_default_sweep_exposes_the_tradeoff():
    assert DEFAULT_SCORER.kind == "nearest_reference"
    assert len(DEFAULT_SEPARATIONS) == 10 and DEFAULT_REPEATS == 5
    points = sweep(SimConfig())
    assert len(points) == len(DEFAULT_SEPARATIONS) * DEFAULT_REPEATS
    assert all(p.error is None for p in points)
    seps = [p.separation for p in points]
    ids = [p.id_accuracy_normalized for p in points]
    deltas = [p.delta_norm for p in points]
    misids = [p.misid_probability for p in points]
    assert None not in ids and None not in deltas
    # wider separation makes implicit identification easier
    rho_sep_id = spearmanr(seps, ids).statistic
    assert rho_sep_id > 0.9
    # degradation tracks misidentification
    rho_delta_misid = spearmanr(deltas, misids).statistic
    assert rho_delta_misid >= 0.8
    # perfect identification leaves nothing to degrade
    lossless = [p for p in points if p.misid_probability == 0.0]
    assert lossless
    for point in lossless:
        assert point.delta_norm == 0.0
