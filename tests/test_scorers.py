import math
import tracemalloc

import numpy as np
import pytest

from idfree_asd import scorers
from idfree_asd.protocol import ProtocolError, Recording, merge_test_sets
from idfree_asd.scorers import (
    NORMALIZER_KINDS,
    SCORER_KINDS,
    NormalizerSpec,
    ReferenceSet,
    ScorerError,
    ScorerSpec,
    build_score_matrix,
    scoring_function,
)
from oracles import euclidean, held_out_scores, k_nearest_mean

NN1 = ScorerSpec("nearest_reference", k=1)
ZSCORE = NormalizerSpec("zscore_reference")


def score_one(spec, ref, x):
    """One vector's score through the batch path."""
    return scoring_function(spec, ref)(np.asarray(x, dtype=float)[None])[0]


def column(refs):
    """1-D points as an (n, 1) reference array."""
    return np.asarray(refs, dtype=float).reshape(-1, 1)


BLOCK = 4


def use_blocks(monkeypatch, rows, ref, m):
    """Make the kernel take `rows` query rows per block for m neighbors of ref."""
    monkeypatch.setattr(scorers, "_BLOCK_BYTES", rows * 8 * max(ref.n, m * ref.d))


# ---------------------------------------------------------------------------
# reference sets


def test_reference_set_shape_and_moments():
    ref = ReferenceSet("m", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert (ref.n, ref.d) == (4, 2)
    assert np.allclose(ref.mean, [0.0, 0.0])
    # population covariance (denominator n)
    assert np.allclose(ref.covariance, [[0.5, 0.0], [0.0, 0.5]])


def test_reference_set_single_vector_has_zero_covariance():
    ref = ReferenceSet("m", [[2.0, 3.0]])
    assert np.array_equal(ref.covariance, np.zeros((2, 2)))


def test_reference_set_validation():
    with pytest.raises(ScorerError):
        ReferenceSet("m", np.empty((0, 3)))
    with pytest.raises(ScorerError):
        ReferenceSet("m", [1.0, 2.0, 3.0])  # 1-D
    with pytest.raises(ScorerError):
        ReferenceSet("m", [[1.0], [float("nan")]])


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    assert SCORER_KINDS == ("nearest_reference", "mahalanobis")
    assert NORMALIZER_KINDS == ("none", "zscore_reference", "local_density")
    with pytest.raises(ScorerError):
        ScorerSpec("kmeans")
    with pytest.raises(ScorerError):
        ScorerSpec("nearest_reference", k=0)
    with pytest.raises(ScorerError):
        ScorerSpec("mahalanobis", epsilon=0.0)
    with pytest.raises(ScorerError):
        ScorerSpec("mahalanobis", epsilon=-1e-9)
    with pytest.raises(ScorerError):
        NormalizerSpec("rank")
    with pytest.raises(ScorerError):
        NormalizerSpec("local_density", k_norm=0)


# ---------------------------------------------------------------------------
# raw scorers


def test_nearest_reference_is_zero_on_a_reference_vector():
    ref = ReferenceSet("m", [[0.0, 0.0], [3.0, 4.0]])
    assert score_one(NN1, ref, [3.0, 4.0]) == 0.0


def test_nearest_reference_hand_value_k2():
    ref = ReferenceSet("m", [[0.0, 0.0], [2.0, 0.0]])
    spec = ScorerSpec("nearest_reference", k=2)
    assert score_one(spec, ref, [1.0, 0.0]) == 1.0


def test_nearest_reference_k1_matches_plain_distance():
    rng = np.random.default_rng(17)
    vecs = rng.normal(size=(20, 3))
    ref = ReferenceSet("m", vecs)
    for x in rng.normal(size=(10, 3)):
        expected = min(euclidean(x, v) for v in vecs)
        assert score_one(NN1, ref, x) == pytest.approx(expected, rel=1e-12)


def test_nearest_reference_k_exceeding_n_is_an_error():
    ref = ReferenceSet("m", [[0.0], [1.0]])
    with pytest.raises(ScorerError, match="exceeds"):
        score_one(ScorerSpec("nearest_reference", k=3), ref, [0.5])


def test_nearest_reference_translation_invariance():
    rng = np.random.default_rng(29)
    vecs = rng.normal(size=(15, 4))
    shift = rng.normal(size=4)
    x = rng.normal(size=4)
    before = score_one(ScorerSpec("nearest_reference", k=3), ReferenceSet("m", vecs), x)
    after = score_one(
        ScorerSpec("nearest_reference", k=3),
        ReferenceSet("m", vecs + shift),
        x + shift,
    )
    assert after == pytest.approx(before, abs=1e-9)


def test_mahalanobis_is_zero_at_the_mean():
    rng = np.random.default_rng(5)
    ref = ReferenceSet("m", rng.normal(size=(30, 3)))
    assert score_one(ScorerSpec("mahalanobis"), ref, ref.mean) == pytest.approx(0.0, abs=1e-9)


def test_mahalanobis_hand_value():
    # isotropic covariance 0.5 I: distance of (1, 0) from the origin is sqrt(2)
    ref = ReferenceSet("m", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    spec = ScorerSpec("mahalanobis", epsilon=1e-12)
    assert score_one(spec, ref, [1.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_mahalanobis_default_epsilon_handles_singular_covariance():
    # all reference variance lies on one axis; the orthogonal direction is
    # regularized instead of crashing, and produces a very large score
    ref = ReferenceSet("m", [[0.0, 0.0], [0.0, 2.0]])
    spec = ScorerSpec("mahalanobis")
    along = score_one(spec, ref, [0.0, 3.0])
    across = score_one(spec, ref, [1.0, 1.0])
    assert along == pytest.approx(2.0, abs=1e-5)
    assert across > 100.0


def test_mahalanobis_affine_invariance():
    rng = np.random.default_rng(101)
    vecs = rng.normal(size=(40, 3))
    x = rng.normal(size=3)
    transform = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    offset = rng.normal(size=3)
    spec = ScorerSpec("mahalanobis", epsilon=1e-12)
    before = score_one(spec, ReferenceSet("m", vecs), x)
    after = score_one(
        spec, ReferenceSet("m", vecs @ transform.T + offset), transform @ x + offset
    )
    assert after == pytest.approx(before, abs=1e-6)


def test_score_rejects_bad_vectors():
    ref = ReferenceSet("m", [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ScorerError, match="dimension"):
        score_one(NN1, ref, [1.0, 2.0, 3.0])
    with pytest.raises(ScorerError, match="non-finite"):
        score_one(NN1, ref, [1.0, float("nan")])
    with pytest.raises(ScorerError, match="dimension"):
        scoring_function(NN1, ref)(np.zeros((2, 2, 1)))


def test_scores_are_nonnegative():
    rng = np.random.default_rng(53)
    ref = ReferenceSet("m", rng.normal(size=(25, 4)))
    batch = rng.normal(size=(50, 4))
    for spec in (ScorerSpec("nearest_reference", k=5), ScorerSpec("mahalanobis")):
        assert (scoring_function(spec, ref)(batch) >= 0.0).all()


# ---------------------------------------------------------------------------
# normalizers


def test_normalize_none_is_identity():
    ref = ReferenceSet("m", [[0.0], [1.0], [3.0]])
    spec = ScorerSpec("nearest_reference", normalizer=NormalizerSpec("none"))
    assert score_one(spec, ref, [2.0]) == score_one(NN1, ref, [2.0]) == 1.0


def test_zscore_reference_hand_value():
    # held-out raw scores of {0, 1, 3} with k=1 are [1, 1, 2]:
    # mean 4/3, population stddev sqrt(2)/3, so raw 1 maps to -1/sqrt(2)
    ref = ReferenceSet("m", column([0.0, 1.0, 3.0]))
    spec = ScorerSpec("nearest_reference", k=1, normalizer=ZSCORE)
    assert score_one(spec, ref, [2.0]) == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)


def test_zscore_reference_rejects_constant_holdout_scores():
    # evenly spaced grid: every held-out vector sits 1 away from a neighbor
    spec = ScorerSpec("nearest_reference", k=1, normalizer=ZSCORE)
    with pytest.raises(ScorerError, match="constant"):
        scoring_function(spec, ReferenceSet("m", column([0.0, 1.0, 2.0])))
    # with two vectors each is scored against the other alone, so the two
    # held-out scores always agree
    for kind in SCORER_KINDS:
        with pytest.raises(ScorerError, match="constant"):
            scoring_function(ScorerSpec(kind, k=1, normalizer=ZSCORE),
                             ReferenceSet("m", [[0.0, 3.0], [1.0, -2.0]]))


def test_zscore_reference_holdout_limits():
    with pytest.raises(ScorerError, match="cannot hold out"):
        scoring_function(ScorerSpec("mahalanobis", normalizer=ZSCORE),
                         ReferenceSet("m", [[0.0, 1.0]]))
    ref = ReferenceSet("m", column([0.0, 1.0, 3.0]))
    with pytest.raises(ScorerError, match="exceeds"):
        scoring_function(ScorerSpec("nearest_reference", k=3, normalizer=ZSCORE), ref)
    # k = n - 1 is the largest held-out neighbor count
    spec = ScorerSpec("nearest_reference", k=2, normalizer=ZSCORE)
    assert np.isfinite(scoring_function(spec, ref)(column([2.0]))).all()


@pytest.mark.parametrize(
    "kind, k, epsilon, n, d",
    [
        pytest.param("nearest_reference", 1, None, 12, 2, id="nearest-k1"),
        pytest.param("nearest_reference", 3, None, 9, 4, id="nearest-k3"),
        pytest.param("nearest_reference", 4, None, 5, 3, id="nearest-k=n-1"),
        pytest.param("nearest_reference", 2, None, 3, 5, id="nearest-n<=d+1-k=n-1"),
        pytest.param("mahalanobis", 1, None, 12, 2, id="mahalanobis"),
        pytest.param("mahalanobis", 1, 1e-3, 10, 3, id="mahalanobis-epsilon"),
        # held-out covariances are singular, so only the loading keeps them invertible
        pytest.param("mahalanobis", 1, None, 4, 3, id="mahalanobis-n=d+1"),
        pytest.param("mahalanobis", 1, None, 3, 5, id="mahalanobis-n<d+1"),
    ],
)
def test_zscore_reference_matches_held_out_oracle(kind, k, epsilon, n, d, monkeypatch):
    rng = np.random.default_rng(1000 * n + d)
    vectors = rng.normal(size=(n, d))
    ref = ReferenceSet("m", vectors)
    # held-out nearest distances run in several blocks, each masking its own rows
    use_blocks(monkeypatch, BLOCK, ref, k)
    plain = ScorerSpec(kind, k=k, epsilon=epsilon)
    standardized = ScorerSpec(kind, k=k, epsilon=epsilon, normalizer=ZSCORE)
    held_out = np.array(held_out_scores(kind, k, epsilon, vectors))
    # queries well outside the references keep every z-score far from zero,
    # so a relative tolerance bounds the error of the held-out mean and stddev
    batch = 20.0 + rng.normal(size=(6, d))
    raw = scoring_function(plain, ref)(batch)
    expected = (raw - held_out.mean()) / held_out.std()
    rtol = 1e-12 if kind == "nearest_reference" else 1e-9
    np.testing.assert_allclose(scoring_function(standardized, ref)(batch), expected,
                               rtol=rtol, atol=0.0)


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_zscore_reference_builds_no_reference_sets(kind, monkeypatch):
    rng = np.random.default_rng(89)
    ref = ReferenceSet("m", rng.normal(size=(10, 3)))
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return ReferenceSet(*args, **kwargs)

    monkeypatch.setattr(scorers, "ReferenceSet", counting)
    fn = scoring_function(ScorerSpec(kind, k=2, normalizer=ZSCORE), ref)
    fn(rng.normal(size=(4, 3)))
    assert built == []


def test_zscore_reference_preserves_score_order():
    rng = np.random.default_rng(71)
    ref = ReferenceSet("m", rng.normal(size=(12, 2)))
    plain = ScorerSpec("nearest_reference", k=2)
    standardized = ScorerSpec(
        "nearest_reference", k=2, normalizer=NormalizerSpec("zscore_reference")
    )
    batch = rng.normal(size=(30, 2))
    raw = scoring_function(plain, ref)(batch)
    z = scoring_function(standardized, ref)(batch)
    assert np.array_equal(np.argsort(raw, kind="stable"),
                          np.argsort(z, kind="stable"))


def test_local_density_hand_values():
    ref = ReferenceSet("m", column([0.0, 1.0, 2.0]))
    spec1 = ScorerSpec("nearest_reference", k=1,
                       normalizer=NormalizerSpec("local_density", k_norm=1))
    fn1 = scoring_function(spec1, ref)
    # every reference vector's nearest-peer spacing is 1, so the normalized
    # score equals the raw distance
    assert fn1(np.array([[3.5]]))[0] == pytest.approx(1.5, abs=1e-12)
    assert fn1(np.array([[0.25]]))[0] == pytest.approx(0.25, abs=1e-12)

    spec2 = ScorerSpec("nearest_reference", k=1,
                       normalizer=NormalizerSpec("local_density", k_norm=2))
    fn2 = scoring_function(spec2, ref)
    # spacings with two peers: ends 1.5, middle 1.0; query 2.2 sits nearest
    # references 2 and 1, mean spacing 1.25, raw 0.2
    assert fn2(np.array([[2.2]]))[0] == pytest.approx(0.2 / 1.25, abs=1e-12)


def test_local_density_needs_enough_references():
    ref = ReferenceSet("m", column([0.0, 1.0]))
    with pytest.raises(ScorerError, match="k_norm"):
        scoring_function(
            ScorerSpec("nearest_reference",
                       normalizer=NormalizerSpec("local_density", k_norm=2)),
            ref,
        )


def test_local_density_rejects_duplicate_references():
    ref = ReferenceSet("m", column([0.0, 0.0, 1.0]))
    with pytest.raises(ScorerError, match="zero local spacing"):
        scoring_function(
            ScorerSpec("nearest_reference",
                       normalizer=NormalizerSpec("local_density", k_norm=1)),
            ref,
        )


# ---------------------------------------------------------------------------
# the blocked nearest-reference kernel


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
@pytest.mark.parametrize("k", [1, 3, 10], ids=["k=1", "k=3", "k=n"])
def test_nearest_reference_matches_oracle_across_blocks(n_rows, k, monkeypatch):
    rng = np.random.default_rng(100 * n_rows + k)
    vectors = rng.normal(size=(10, 3))
    ref = ReferenceSet("m", vectors)
    use_blocks(monkeypatch, BLOCK, ref, k)
    batch = rng.normal(size=(n_rows, 3))
    got = scoring_function(ScorerSpec("nearest_reference", k=k), ref)(batch)
    expected = [k_nearest_mean(x, vectors, k) for x in batch]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_local_density_matches_oracle_with_k_norm_above_k(monkeypatch):
    rng = np.random.default_rng(61)
    vectors = rng.normal(size=(3 * BLOCK, 2))
    ref = ReferenceSet("m", vectors)
    k, k_norm = 1, 4
    # reference spacings and queries both run in several blocks
    use_blocks(monkeypatch, BLOCK, ref, k_norm)
    spec = ScorerSpec("nearest_reference", k=k,
                      normalizer=NormalizerSpec("local_density", k_norm=k_norm))
    batch = rng.normal(size=(2 * BLOCK + 1, 2))
    spacings = [k_nearest_mean(v, np.delete(vectors, i, axis=0), k_norm)
                for i, v in enumerate(vectors)]
    expected = []
    for x in batch:
        nearest = sorted(range(len(vectors)), key=lambda j: euclidean(x, vectors[j]))
        density = sum(spacings[j] for j in nearest[:k_norm]) / k_norm
        expected.append(k_nearest_mean(x, vectors, k) / density)
    np.testing.assert_allclose(scoring_function(spec, ref)(batch), expected,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_nearest_reference_far_from_origin(k):
    # at offset 1e6 an uncentred product |r|^2 - 2 x.r rounds each squared
    # distance by ~1e-3 and picks a wrong neighbor for a few of these queries
    rng = np.random.default_rng(0)
    vectors = 1e6 + rng.normal(size=(100, 2))
    ref = ReferenceSet("m", vectors)
    batch = 1e6 + rng.normal(size=(500, 2))
    got = scoring_function(ScorerSpec("nearest_reference", k=k), ref)(batch)
    expected = [k_nearest_mean(x, vectors, k) for x in batch]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_query_equal_to_a_far_reference_scores_exactly_zero():
    rng = np.random.default_rng(5)
    vectors = 1e6 + rng.normal(size=(100, 2))
    ref = ReferenceSet("m", vectors)
    assert (scoring_function(NN1, ref)(vectors[::7]) == 0.0).all()


@pytest.mark.parametrize("normalizer", NORMALIZER_KINDS)
@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_empty_batch_gives_empty_scores(kind, normalizer):
    rng = np.random.default_rng(13)
    ref = ReferenceSet("m", rng.normal(size=(8, 3)))
    spec = ScorerSpec(kind, k=2, normalizer=NormalizerSpec(normalizer, k_norm=2))
    assert scoring_function(spec, ref)(np.empty((0, 3))).shape == (0,)


def test_batch_memory_is_bounded_per_block():
    # all 20,000 x 2,000 float64 distances at once would take 320 MB
    rng = np.random.default_rng(3)
    ref = ReferenceSet("m", rng.normal(size=(2_000, 16)))
    batch = rng.normal(size=(20_000, 16))
    fn = scoring_function(NN1, ref)
    tracemalloc.start()
    try:
        fn(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# batch scoring and matrix construction


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_batch_scores_match_single_vector_scores(kind):
    # each row is scored on its own, so batch and one-row calls agree exactly
    rng = np.random.default_rng(7)
    ref = ReferenceSet("m", rng.normal(size=(18, 5)))
    spec = ScorerSpec(kind, k=3)
    batch = rng.normal(size=(25, 5))
    got = scoring_function(spec, ref)(batch)
    expected = np.array([score_one(spec, ref, x) for x in batch])
    assert np.array_equal(got, expected)


def make_merged(rng, machines, n_per_machine, d):
    sets = {}
    for m in machines:
        sets[m] = [
            Recording(f"{m}-r{i}", m, i % 2 == 0, features=rng.normal(size=d))
            for i in range(n_per_machine)
        ]
    return merge_test_sets(sets)


def test_build_score_matrix_single_machine():
    rng = np.random.default_rng(19)
    ref = ReferenceSet("fan", rng.normal(size=(8, 3)))
    merged = make_merged(rng, ["fan"], 6, 3)
    matrix = build_score_matrix({"fan": (NN1, ref)}, merged.ids, merged.features)
    assert matrix.machines == ["fan"]
    assert matrix.ids == [rec.id for rec in merged.recordings]
    fn = scoring_function(NN1, ref)
    for rec, row in zip(merged.recordings, matrix.values):
        assert row[0] == fn(rec.features[None, :])[0]


def test_build_score_matrix_columns_sorted_and_per_cell_exact():
    rng = np.random.default_rng(31)
    machines = ["valve", "fan", "pump"]  # deliberately unsorted
    refs = {m: ReferenceSet(m, rng.normal(size=(10, 4))) for m in machines}
    specs = {m: (ScorerSpec("mahalanobis"), refs[m]) for m in machines}
    merged = make_merged(rng, machines, 4, 4)
    matrix = build_score_matrix(specs, merged.ids, merged.features)
    assert matrix.machines == ["fan", "pump", "valve"]
    for rec, row in zip(merged.recordings, matrix.values):
        for m in machines:
            col = matrix.machines.index(m)
            expected = score_one(ScorerSpec("mahalanobis"), refs[m], rec.features)
            assert row[col] == expected


def test_identical_reference_sets_give_identical_columns():
    rng = np.random.default_rng(43)
    vecs = rng.normal(size=(9, 2))
    specs = {
        "a": (NN1, ReferenceSet("a", vecs)),
        "b": (NN1, ReferenceSet("b", vecs.copy())),
    }
    merged = make_merged(rng, ["a", "b"], 5, 2)
    matrix = build_score_matrix(specs, merged.ids, merged.features)
    assert np.array_equal(matrix.values[:, 0], matrix.values[:, 1])


def test_build_score_matrix_is_deterministic():
    rng = np.random.default_rng(59)
    refs = {m: ReferenceSet(m, rng.normal(size=(7, 3))) for m in ["a", "b"]}
    specs = {m: (ScorerSpec("nearest_reference", k=2), refs[m]) for m in refs}
    merged = make_merged(rng, ["a", "b"], 4, 3)
    first = build_score_matrix(specs, merged.ids, merged.features)
    second = build_score_matrix(specs, merged.ids, merged.features)
    assert first.ids == second.ids
    assert np.array_equal(first.values, second.values)


def test_build_score_matrix_reports_missing_features():
    # a set with features on some recordings only is refused when merged
    with pytest.raises(ProtocolError, match=r"without features: \['fan-bad'\]"):
        merge_test_sets({"fan": [Recording("fan-ok", "fan", False, features=np.zeros(2)),
                                 Recording("fan-bad", "fan", True)]})
    specs = {"fan": (NN1, ReferenceSet("fan", np.zeros((2, 2))))}
    with pytest.raises(ScorerError, match="dimension 0"):
        build_score_matrix(specs, ["r1", "r2"], None)
    with pytest.raises(ProtocolError, match=r"shape \(3, 1\), expected \(2, 1\)"):
        build_score_matrix(specs, ["r1", "r2"], np.zeros((3, 2)))


def test_build_score_matrix_rejects_inconsistent_dimensions():
    with pytest.raises(ProtocolError, match="inconsistent"):
        merge_test_sets({"fan": [Recording("r1", "fan", False, features=np.zeros(2)),
                                 Recording("r2", "fan", True, features=np.zeros(3))]})
    specs = {"fan": (NN1, ReferenceSet("fan", np.zeros((2, 2))))}
    with pytest.raises(ScorerError, match="dimension 3"):
        build_score_matrix(specs, ["r1", "r2"], np.zeros((2, 3)))
    with pytest.raises(ScorerError, match="dimension 3"):
        build_score_matrix(specs, ["r1", "r2"], np.zeros((2, 2, 3)))


def test_build_score_matrix_rejects_empty_config():
    rng = np.random.default_rng(2)
    merged = make_merged(rng, ["fan"], 2, 2)
    with pytest.raises(ScorerError):
        build_score_matrix({}, merged.ids, merged.features)
    with pytest.raises(ScorerError, match="no recordings"):
        build_score_matrix({"fan": (NN1, ReferenceSet("fan", np.zeros((2, 2))))}, [],
                           np.zeros((0, 2)))


def test_scoring_never_reads_hidden_labels():
    # the scoring stage takes ids and a feature block only: no labels reach it
    rng = np.random.default_rng(67)
    merged = make_merged(rng, ["a", "b"], 3, 3)
    refs = {m: ReferenceSet(m, rng.normal(size=(5, 3))) for m in ["a", "b"]}
    specs = {m: (NN1, refs[m]) for m in refs}
    matrix = build_score_matrix(specs, merged.ids, merged.features)
    merged.true_machine[:] = 1 - merged.true_machine
    merged.is_anomaly[:] = ~merged.is_anomaly
    flipped = build_score_matrix(specs, merged.ids, merged.features)
    assert matrix.ids == merged.ids
    assert np.array_equal(matrix.values, flipped.values)
