import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idfree_asd import metrics
from idfree_asd import protocol as protocol_module
from idfree_asd.protocol import (
    EvalConfig,
    IdentificationStats,
    MergedTestSet,
    ProtocolError,
    Recording,
    ScoreMatrix,
    evaluate_known,
    evaluate_unknown,
    full_report,
    merge_test_sets,
)
from oracles import brute_force_argmin, brute_force_auc, report_oracle

# ---------------------------------------------------------------------------
# helpers


def make_recordings(machine, n_normal, n_anomalous, split="dev"):
    recs = [
        Recording(f"{machine}-n{i}", machine, False, split) for i in range(n_normal)
    ]
    recs += [
        Recording(f"{machine}-a{i}", machine, True, split) for i in range(n_anomalous)
    ]
    return recs


def matrix_from_rows(machines, rows):
    """Score matrix from a mapping of recording id to its row of scores, rows
    ordered by id as a merged test set orders them."""
    ids = sorted(rows)
    values = np.reshape([rows[rec_id] for rec_id in ids], (len(ids), len(machines)))
    return ScoreMatrix(list(machines), ids, values)


def random_matrix(rng, merged, machines, strict_true_min=False, integers=False):
    """Random scores; integers=True draws from 0..4 so rows tie often."""
    rows = {}
    for rec in merged.recordings:
        if integers:
            row = rng.integers(0, 5, size=len(machines)).astype(float)
        else:
            row = rng.uniform(1.0, 9.0, size=len(machines))
        if strict_true_min:
            offset = 1.0 if integers else rng.uniform(0.5, 1.0)
            row[machines.index(rec.true_machine)] = row.min() - offset
        rows[rec.id] = row
    return matrix_from_rows(list(machines), rows)


def tie_heavy_fixture(rng, strict_true_min=False):
    """1 to 5 machines, each with both classes, integer scores in 0..4."""
    machines = [f"m{i}" for i in range(int(rng.integers(1, 6)))]
    merged = merge_test_sets({
        m: make_recordings(m, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        for m in machines
    })
    return random_matrix(rng, merged, machines, strict_true_min, integers=True), merged


def matrix_row(matrix, rec_id):
    return [float(v) for v in matrix.values[matrix.ids.tolist().index(rec_id)]]


def golden_style_fixture():
    """Two machines, 16 recordings, two deliberate cross-claims.

    valve-n2 is claimed by fan without hurting detection (still below all
    fan anomalies); fan-a3 is claimed by valve at a score that drags it
    under two fan normals.
    """
    sets = {
        "fan": make_recordings("fan", 4, 4),
        "valve": make_recordings("valve", 4, 4),
    }
    merged = merge_test_sets(sets)
    rows = {
        "fan-n0": [1.0, 10.0], "fan-n1": [2.0, 10.0],
        "fan-n2": [3.0, 10.0], "fan-n3": [4.0, 10.0],
        "fan-a0": [5.0, 9.0], "fan-a1": [6.0, 9.0],
        "fan-a2": [7.0, 2.0], "fan-a3": [8.0, 9.0],
        "valve-n0": [10.0, 1.0], "valve-n1": [1.0, 2.0],
        "valve-n2": [10.0, 3.0], "valve-n3": [10.0, 4.0],
        "valve-a0": [9.0, 5.0], "valve-a1": [9.0, 6.0],
        "valve-a2": [9.0, 7.0], "valve-a3": [9.0, 8.0],
    }
    return matrix_from_rows(["fan", "valve"], rows), merged


# ---------------------------------------------------------------------------
# recordings / merging


def test_recording_validates_split():
    Recording("r1", "fan", False, "eval")
    with pytest.raises(ProtocolError):
        Recording("r1", "fan", False, "train")


def test_merge_single_machine_is_identity():
    recs = make_recordings("fan", 3, 1)
    merged = merge_test_sets({"fan": recs})
    assert sorted(r.id for r in merged.recordings) == sorted(r.id for r in recs)
    assert merged.machines == ["fan"]


def test_merge_preserves_every_recording():
    sizes = {"fan": (2, 1), "pump": (3, 2), "valve": (4, 3)}
    sets = {m: make_recordings(m, n, a) for m, (n, a) in sizes.items()}
    merged = merge_test_sets(sets)
    assert len(merged.recordings) == sum(n + a for n, a in sizes.values())
    for machine in sizes:
        ids = {r.id for r in merged.recordings if r.true_machine == machine}
        assert ids == {r.id for r in sets[machine]}
    # ids sorted for reproducibility
    ordered = [r.id for r in merged.recordings]
    assert ordered == sorted(ordered)


def test_merge_rejects_duplicate_ids():
    sets = {
        "fan": [Recording("shared", "fan", False)],
        "pump": [Recording("shared", "pump", False)],
    }
    with pytest.raises(ProtocolError, match="duplicate"):
        merge_test_sets(sets)


def test_merge_rejects_misfiled_recording():
    with pytest.raises(ProtocolError, match="filed under"):
        merge_test_sets({"fan": [Recording("x", "pump", False)]})


def test_merge_rejects_empty_inputs():
    with pytest.raises(ProtocolError):
        merge_test_sets({})
    with pytest.raises(ProtocolError):
        merge_test_sets({"fan": []})


def test_merged_set_rejects_mixed_splits():
    recs = [Recording("a", "fan", False, "dev"), Recording("b", "fan", False, "eval")]
    with pytest.raises(ProtocolError, match="splits"):
        merge_test_sets({"fan": recs})


def test_merged_set_split_property():
    merged = merge_test_sets({"fan": make_recordings("fan", 1, 1, split="eval")})
    assert merged.split == "eval"


@pytest.mark.parametrize("code", [2, -1])
def test_merged_set_rejects_machine_codes_outside_its_machines(code):
    with pytest.raises(ProtocolError, match=r"^true machine codes must lie in \[0, 2\)$"):
        MergedTestSet(["a", "b"], ["fan", "pump"], [0, code], [False, True])


@pytest.mark.parametrize("codes, labels, message", [
    ([0.2, 0.9, 1.5, 1.1], [0, 1, 0, 1], "true machine codes must be integers, got float64"),
    ([False, False, True, True], [0, 1, 0, 1], "true machine codes must be integers, got bool"),
    ([0, 0, 1, 1], ["0", "1", "0", "1"], "anomaly labels must be booleans or 0/1"),
    ([0, 0, 1, 1], [0, 2, 0, -1], "anomaly labels must be booleans or 0/1"),
], ids=["float-codes", "bool-codes", "string-labels", "labels-outside-0-1"])
def test_merged_set_rejects_non_integer_codes_and_non_binary_labels(codes, labels, message):
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        MergedTestSet(["a", "b", "c", "d"], ["fan", "pump"], codes, labels)


@pytest.mark.parametrize("ids, codes, labels, split, message", [
    ([], [], [], "dev", "merged test set is empty"),
    (["a", "b"], [0], [False, True], "dev", "need one true machine and one label per id"),
    (["a", "b"], [0, 0], [True], "dev", "need one true machine and one label per id"),
    (["a", "b"], [0, 0], [False, True], "test", "unknown split 'test'"),
], ids=["empty", "short-codes", "short-labels", "unknown-split"])
def test_merged_set_rejects_empty_uneven_and_unknown_split(ids, codes, labels, split, message):
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        MergedTestSet(ids, ["fan"], codes, labels, split)


@pytest.mark.parametrize("rows", [1, 3])
def test_merged_set_rejects_features_of_the_wrong_length(rows):
    with pytest.raises(ProtocolError, match=rf"^need 2 feature rows, got \({rows}, 2\)$"):
        MergedTestSet(["a", "b"], ["fan"], [0, 0], [False, True], features=np.zeros((rows, 2)))


def test_merged_set_keeps_columns_already_in_id_order():
    ids = np.array([f"r{j:02d}" for j in range(12)], dtype=np.dtypes.StringDType())
    codes = np.arange(12) % 3
    labels = np.arange(12) % 4 == 0
    features = np.random.default_rng(5).standard_normal((12, 3))
    merged = MergedTestSet(ids, ["a", "b", "c"], codes, labels, features=features)
    assert merged.ids is ids
    assert np.shares_memory(merged.features, features)
    assert np.shares_memory(merged.true_machine, codes)
    assert np.shares_memory(merged.is_anomaly, labels)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
def test_merged_set_keeps_the_code_type_unless_intp_cannot_hold_it(dtype):
    # read_labels gives one-byte codes; bincount turns down uint64, so it is widened
    codes = np.array([1, 0, 2, 0, 1, 2], dtype)
    ids, labels = ["a", "b", "c", "d", "e", "f"], [False, False, True, True, True, False]
    merged = MergedTestSet(ids, ["fan", "pump", "valve"], codes, labels)
    assert merged.true_machine.dtype == (np.intp if dtype == np.uint64 else dtype)
    matrix = ScoreMatrix(["fan", "pump", "valve"], ids,
                         np.random.default_rng(4).standard_normal((6, 3)))
    widened = MergedTestSet(ids, ["fan", "pump", "valve"], codes.astype(np.intp), labels)
    assert full_report(matrix, merged) == full_report(matrix, widened)


def test_merged_set_sorts_shuffled_ids_into_copies():
    rng = np.random.default_rng(6)
    n = 40
    ids = [f"r{j}" for j in rng.permutation(n)]  # r10 sorts before r2
    codes = rng.integers(0, 3, size=n)
    labels = rng.random(n) < 0.3
    features = rng.standard_normal((n, 2))
    merged = MergedTestSet(ids, ["a", "b", "c"], codes, labels, features=features)
    rows = sorted(range(n), key=lambda i: ids[i])
    assert merged.ids.tolist() == [ids[i] for i in rows]
    assert merged.true_machine.tolist() == [int(codes[i]) for i in rows]
    assert merged.is_anomaly.tolist() == [bool(labels[i]) for i in rows]
    assert merged.features.tobytes() == np.array([features[i] for i in rows]).tobytes()
    assert not np.shares_memory(merged.features, features)


@pytest.mark.parametrize("ids", [["a", "a", "b"], ["b", "a", "b"]], ids=["sorted", "shuffled"])
def test_merged_set_rejects_duplicate_ids(ids):
    with pytest.raises(ProtocolError, match="^duplicate recording ids in merged test set$"):
        MergedTestSet(ids, ["fan"], [0, 0, 0], [False, True, False])


# NUL, DEL, two-byte, and astral characters: numpy's StringDType comparisons
# disagree with Python's on ids that hold NUL
ID_CHARS = st.sampled_from(["\x00", "\x7f", "a", "b", "\xe9", "\u03b1", "\U0001f600",
                            "\U0010ffff"])


@st.composite
def id_lists(draw):
    """1 to 40 ids, some of them repeated, some with an extension of another id
    (so "a" and "a\x00" often meet), sorted or in no particular order."""
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=20))
    ids += [rec_id + draw(st.text(ID_CHARS, min_size=1, max_size=2))
            for rec_id in ids if draw(st.booleans())]
    return sorted(ids) if draw(st.booleans()) else draw(st.permutations(ids))


def _keys_of(ids, kind=object):
    """The ids' keys as io builds them: each id's UTF-8 bytes, raised by one."""
    return np.array([rec_id.encode().translate(protocol_module._RAISED) for rec_id in ids], kind)


@settings(max_examples=300, deadline=None)
@given(id_lists(), st.booleans(), st.booleans())
def test_merged_set_orders_and_finds_repeats_as_python_lists_do(ids, as_array, keyed):
    # oracle: sorted() and set() of the ids as str; a set given the keys of its
    # ids, as _keys builds them, is the set that builds them itself
    codes = np.arange(len(ids)) % 3
    column = np.array(ids, dtype=np.dtypes.StringDType())
    given_ids = column if as_array else ids
    given_keys = {"keys": protocol_module._keys(column)} if keyed else {}
    if len(set(ids)) < len(ids):
        with pytest.raises(ProtocolError, match="^duplicate recording ids in merged test set$"):
            MergedTestSet(given_ids, ["a", "b", "c"], codes, codes == 0, **given_keys)
        return
    merged = MergedTestSet(given_ids, ["a", "b", "c"], codes, codes == 0, **given_keys)
    rows = sorted(range(len(ids)), key=ids.__getitem__)
    assert merged.ids.tolist() == sorted(ids)
    assert merged.true_machine.tolist() == [int(codes[i]) for i in rows]
    assert [rec.id for rec in merged.recordings] == sorted(ids)
    assert all(type(rec.id) is str for rec in merged.recordings)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=30),
       st.sampled_from(["", "p" * 16]), st.booleans(), st.sampled_from(["S", object]))
def test_merged_set_orders_ids_on_the_keys_it_is_given_as_python_orders_them(
        ids, prefix, rising, kind):
    # oracle: the ids as str. The caller's keys, a bytes column as io's byte
    # reader gives or objects as csv's, decide the order and the repeats, of ids
    # with NUL, outside ASCII and of 16 bytes or more too; no key is built again
    ids = [prefix + rec_id for rec_id in (sorted(set(ids)) if rising else ids)]
    codes = np.arange(len(ids)) % 3
    column = np.array(ids, dtype=np.dtypes.StringDType())
    keys = _keys_of(ids, kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol_module, "_keys", None)
        if len(set(ids)) < len(ids):
            with pytest.raises(ProtocolError, match="^duplicate recording ids in merged test set$"):
                MergedTestSet(column, ["a", "b", "c"], codes, codes == 0, keys=keys)
            return
        merged = MergedTestSet(column, ["a", "b", "c"], codes, codes == 0, keys=keys)
    rows = sorted(range(len(ids)), key=ids.__getitem__)
    assert merged.ids.tolist() == sorted(ids)
    assert merged.true_machine.tolist() == [int(codes[i]) for i in rows]
    assert (merged.ids is column) == (ids == sorted(ids) and len(set(ids)) == len(ids))


@pytest.mark.parametrize("given", [1, 3])
def test_merged_set_rejects_keys_of_another_length(given):
    keys = _keys_of(["a", "b", "c"][:given])
    with pytest.raises(ProtocolError, match=rf"^need one key per id, got {given} for 2 ids$"):
        MergedTestSet(["a", "b"], ["fan"], [0, 0], [False, True], keys=keys)


@pytest.mark.parametrize("kind", ["S", object])
def test_merged_set_of_keys_alone_decodes_its_ids_once_on_first_read(monkeypatch, kind):
    # keys as io's byte reader (ASCII ids only) or csv gives them: the set sorts
    # and holds them, and reads its ids, trailing NULs included, only when asked
    ids = ["b\x00", "a" * 16, "b", "a\x00\x00", "\x00"] + (["\xe9"] if kind is object else [])
    decode, calls = protocol_module._ids, []
    monkeypatch.setattr(protocol_module, "_ids",
                        lambda keys: calls.append(len(keys)) or decode(keys))
    labels = [i % 2 == 0 for i in range(len(ids))]
    merged = MergedTestSet(None, ["fan"], [0] * len(ids), labels, keys=_keys_of(ids, kind))
    rows = sorted(range(len(ids)), key=ids.__getitem__)
    assert calls == []
    assert merged.keys.tolist() == _keys_of(sorted(ids), kind).tolist()
    assert merged.is_anomaly.tolist() == [labels[i] for i in rows]
    assert merged.ids.tolist() == sorted(ids) and merged.ids is merged.ids
    assert calls == [len(ids)]


def test_merged_set_needs_its_ids_or_their_keys():
    with pytest.raises(ProtocolError, match="^merged test set needs its ids or their keys$"):
        MergedTestSet(None, ["fan"], [0], [True])


@pytest.mark.parametrize("first, second", [
    ("\x00\u03b1\u03b1", "\x00\U0001f600"),  # numpy 2.4's == calls these equal
    # neither is < the other to numpy 2.4, so its sort leaves the second first
    ("\x00\x7f\x7fa", "\x00\xe9\x00"),
])
def test_ids_numpy_compares_wrongly_stay_two_recordings_in_python_order(first, second):
    assert first < second
    merged = MergedTestSet([second, first], ["fan"], [0, 0], [False, True])
    assert merged.ids.tolist() == [first, second]
    assert merged.is_anomaly.tolist() == [True, False]
    matrix = ScoreMatrix(["fan"], [first, second], [[1.0], [2.0]])
    assert full_report(matrix, merged).n_recordings == 2
    swapped = ScoreMatrix(["fan"], [second, first], [[1.0], [2.0]])
    with pytest.raises(ProtocolError, match="^score matrix rows must be the merged test set's: "
                                            "row 0 is "):
        full_report(swapped, merged)


@pytest.mark.parametrize("build", [
    lambda ids: MergedTestSet(ids, ["fan"], [0, 0], [False, True]),
    lambda ids: ScoreMatrix(["fan"], ids, [[1.0], [2.0]]),
], ids=["merged set", "score matrix"])
def test_lone_surrogate_id_is_a_protocol_error(build):
    # StringDType stores UTF-8, and a lone surrogate has no UTF-8 form
    with pytest.raises(ProtocolError, match="^recording id 'a\\\\ud800': surrogates not allowed$"):
        build(["a\ud800", "b"])


# ---------------------------------------------------------------------------
# score matrix


def test_score_matrix_validation():
    with pytest.raises(ProtocolError):
        ScoreMatrix([], [], np.empty((0, 0)))
    with pytest.raises(ProtocolError, match="duplicate"):
        ScoreMatrix(["fan", "fan"], ["r"], [[1.0, 2.0]])
    with pytest.raises(ProtocolError, match=r"shape \(1, 1\), expected \(1, 2\)"):
        ScoreMatrix(["fan", "pump"], ["r"], [[1.0]])
    with pytest.raises(ProtocolError, match=r"shape \(1, 2\), expected \(2, 2\)"):
        ScoreMatrix(["fan", "pump"], ["r", "s"], [[1.0, 2.0]])
    with pytest.raises(ProtocolError, match="row 's' contains non-finite"):
        ScoreMatrix(["fan"], ["r", "s"], [[1.0], [float("inf")]])
    assert ScoreMatrix(["fan", "pump"], [], np.empty((0, 2))).values.shape == (0, 2)
    # ids differing only by a trailing NUL are two recordings
    assert ScoreMatrix(["fan"], ["x\x00", "x"], [[1.0], [2.0]]).ids.tolist() == ["x\x00", "x"]


def test_score_matrix_lookup_errors():
    matrix = ScoreMatrix(["fan", "pump"], ("r", "s"), [[1.0, 2.0], [3.0, 4.0]])
    assert matrix.k == 2
    assert matrix.ids.tolist() == ["r", "s"]
    assert matrix.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    merged = merge_test_sets({"fan": make_recordings("fan", 1, 1)})
    for evaluate in (evaluate_known, evaluate_unknown):
        with pytest.raises(ProtocolError, match="row 0 is 'r', not 'fan-a0'$"):
            evaluate(matrix, merged)


def test_matrix_rows_must_be_the_merged_rows_in_order():
    merged = merge_test_sets({"fan": make_recordings("fan", 2, 2),
                              "pump": make_recordings("pump", 2, 1)})
    ids = list(merged.ids)
    wrong = {
        "row 0 is 'pump-n1', not 'fan-a0'": ids[::-1],  # reordered
        "6 rows for 7 recordings": ids[:-1],  # partial
        "8 rows for 7 recordings": ids + ["zz"],  # extended
        "row 1 is 'fan-a0', not 'fan-a1'": ids[:1] + ids[:-1],  # duplicated
        "row 2 is 'fan-a1', not 'fan-n0'": ids[:2] + ids[1:2] + ids[3:],  # duplicate in place
    }
    for message, rows in wrong.items():
        matrix = ScoreMatrix(["fan", "pump"], rows, np.arange(2.0 * len(rows)).reshape(-1, 2))
        for evaluate in (evaluate_known, evaluate_unknown, full_report):
            with pytest.raises(ProtocolError, match=f"^score matrix rows must be the merged "
                                                    f"test set's: {message}$"):
                evaluate(matrix, merged)
    matrix = ScoreMatrix(["fan", "pump"], ids, np.arange(2.0 * len(ids)).reshape(-1, 2))
    assert full_report(matrix, merged).n_recordings == len(ids)


# ---------------------------------------------------------------------------
# min aggregation and implicit identification (evaluate_unknown)


def test_aggregate_score_tie_takes_lowest_index_and_flags():
    # b-n0 ties both columns at 0.3: column a wins, so b-n0 counts as misidentified
    merged = merge_test_sets({"a": make_recordings("a", 1, 1),
                              "b": make_recordings("b", 1, 1)})
    rows = {"a-n0": [0.1, 0.9], "a-a0": [5.0, 9.0],
            "b-n0": [0.3, 0.3], "b-a0": [9.0, 5.0]}
    _, stats = evaluate_unknown(matrix_from_rows(["a", "b"], rows), merged)
    assert (stats.n_correct, stats.tie_count) == (3, 1)


def test_aggregate_score_matches_brute_force():
    # per-machine unknown-ID AUC equals the pairwise oracle on plain-loop row minima
    rng = np.random.default_rng(7)
    for _ in range(200):
        matrix, merged = tie_heavy_fixture(rng)
        unknown, _ = evaluate_unknown(matrix, merged, average="arithmetic")
        for machine in matrix.machines:
            recs = [r for r in merged.recordings if r.true_machine == machine]
            minima = []
            for rec in recs:
                row = matrix_row(matrix, rec.id)
                minima.append(row[brute_force_argmin(row)[0]])
            labels = [r.is_anomaly for r in recs]
            assert unknown.per_machine[machine].auc == brute_force_auc(minima, labels)


def test_full_report_matches_report_oracle():
    rng = np.random.default_rng(41)
    covered = Counter()
    for case in range(150):
        k = int(rng.integers(2, 6))
        names = [f"m{i}" for i in range(k)]
        n = int(rng.integers(6, 40))
        # the last machine has no test rows: its column only competes for minima
        codes = rng.integers(0, k - 1, size=n)
        codes[1] = codes[0]
        labels = rng.random(n) < 0.4
        labels[:2] = False, True
        if codes[-1] != codes[0]:
            labels[codes == codes[-1]] = False
        # ids in random order, so machines first appear out of code order
        merged = MergedTestSet([f"r{j:03d}" for j in rng.permutation(n)], names, codes, labels)
        columns = [names[j] for j in rng.permutation(k)]
        values = rng.integers(0, 4, size=(n, k)).astype(float)  # ties at the row minimum
        average = metrics.AVERAGING_MODES[case % 2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = full_report(ScoreMatrix(columns, merged.ids, values), merged,
                                 EvalConfig(pauc_p=0.3, average=average))
        modes, n_correct, tie_count = report_oracle(
            columns, values.tolist(), [names[c] for c in merged.true_machine],
            merged.is_anomaly.tolist(), 0.3, average)
        for result, (per_machine, pooled) in zip((report.known, report.unknown),
                                                 (modes["known"], modes["unknown"])):
            assert list(result.per_machine) == list(per_machine)
            for machine, pair in per_machine.items():
                got = result.per_machine[machine]
                assert (got.auc, got.pauc) == (pair or (None, None))
            assert result.aggregate == pooled
            assert result.excluded_machines == [m for m, v in per_machine.items() if v is None]
        stats = report.identification
        assert (stats.n_correct, stats.tie_count) == (n_correct, tie_count)
        covered["ties"] += tie_count > 0
        covered["single-class"] += bool(report.known.excluded_machines)
        covered["out of order"] += list(report.known.per_machine) != sorted(report.known.per_machine)
    assert len(covered) == 3 and min(covered.values()) >= 20, covered


def test_identify_matches_argmin_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        matrix, merged = tie_heavy_fixture(rng)
        _, stats = evaluate_unknown(matrix, merged, average="arithmetic")
        n_correct = 0
        tie_count = 0
        for rec in merged.recordings:
            index, tie = brute_force_argmin(matrix_row(matrix, rec.id))
            n_correct += matrix.machines[index] == rec.true_machine
            tie_count += tie
        assert (stats.n_correct, stats.tie_count) == (n_correct, tie_count)
        assert stats.n_recordings == len(merged.recordings)


@st.composite
def score_blocks(draw):
    """Rows of scores drawn from few values (so rows tie), both signed zeros
    among them, each row's true column, and cuts that split the rows into chunks."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    cells = st.sampled_from([-0.0, 0.0, -1.5, 2.0]) | st.floats(-4.0, 4.0, width=16)
    block = np.array(draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                                   min_size=n, max_size=n))).reshape(n, k)
    true_column = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return block, true_column.astype(draw(st.sampled_from([np.uint8, np.intp]))), cuts


@settings(max_examples=150, deadline=None)
@given(score_blocks())
def test_reduce_matches_the_argmin_oracle_whole_and_chunk_by_chunk(case):
    block, true_column, cuts = case
    columns = protocol_module._reduce(block, true_column)
    rows = block.tolist()
    assert [(int(j), bool(tie)) for j, tie in zip(columns.picked, columns.tied)] == [
        brute_force_argmin(row) for row in rows]
    assert columns.true_score.tolist() == [row[j] for row, j in zip(rows, true_column.tolist())]
    # the minimum is min's, sign of a zero included
    assert columns.lowest.tobytes() == block.min(axis=1).tobytes()
    # chunks of any size, empty ones too, give the whole block's columns
    bounds = [0, *cuts, len(block)]
    pieces = [protocol_module._reduce(block[a:b], true_column[a:b])
              for a, b in zip(bounds, bounds[1:])]
    for whole, parts in zip(columns, zip(*pieces)):
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_identify_strict_minimum_recovers_truth():
    rng = np.random.default_rng(11)
    for _ in range(100):
        matrix, merged = tie_heavy_fixture(rng, strict_true_min=True)
        _, stats = evaluate_unknown(matrix, merged, average="arithmetic")
        assert stats.n_correct == len(merged.recordings)
        assert stats.tie_count == 0


def test_identify_single_machine_maps_everything_to_it():
    merged = merge_test_sets({"fan": make_recordings("fan", 2, 2)})
    matrix = matrix_from_rows(["fan"], {r.id: [1.0] for r in merged.recordings})
    _, stats = evaluate_unknown(matrix, merged)
    assert (stats.n_correct, stats.tie_count) == (4, 0)


def test_aggregate_score_is_local():
    # raising a non-minimal entry, or lowering the minimum, changes no argmin
    rng = np.random.default_rng(3)
    machines = [f"m{i}" for i in range(5)]
    merged = merge_test_sets({m: make_recordings(m, 3, 2) for m in machines})
    ids = [r.id for r in merged.recordings]
    rows = np.arange(len(ids))

    def unknown(values):
        matrix = matrix_from_rows(machines, dict(zip(ids, values)))
        return evaluate_unknown(matrix, merged, average="arithmetic")

    for _ in range(20):
        base = rng.uniform(0.0, 1.0, size=(len(ids), 5))
        picked = base.argmin(axis=1)
        bumped = base.copy()
        others = (picked + rng.integers(1, 5, size=len(ids))) % 5
        bumped[rows, others] += rng.uniform(0.1, 2.0, size=len(ids))
        lowered = base.copy()
        lowered[rows, picked] -= 1.0
        base_unknown, base_stats = unknown(base)
        bumped_unknown, bumped_stats = unknown(bumped)
        assert bumped_stats == base_stats
        assert bumped_unknown.per_machine == base_unknown.per_machine
        assert unknown(lowered)[1].n_correct == base_stats.n_correct


def test_misid_probability_values():
    merged = merge_test_sets({"fan": make_recordings("fan", 6, 6)})
    fan_wins = {r.id: [0.0, 1.0] for r in merged.recordings}
    _, stats = evaluate_unknown(matrix_from_rows(["fan", "pump"], fan_wins), merged)
    assert stats.misid_probability == 0.0
    pump_wins = {r.id: [1.0, 0.0] for r in merged.recordings}
    _, stats = evaluate_unknown(matrix_from_rows(["fan", "pump"], pump_wins), merged)
    assert stats.misid_probability == 1.0
    three_wrong = dict(fan_wins)
    for rec_id in ["fan-n0", "fan-n5", "fan-a3"]:
        three_wrong[rec_id] = [1.0, 0.0]
    _, stats = evaluate_unknown(matrix_from_rows(["fan", "pump"], three_wrong), merged)
    assert stats.misid_probability == 0.25


def test_misid_probability_coverage_check():
    merged = merge_test_sets({"fan": make_recordings("fan", 1, 1)})
    partial = matrix_from_rows(["fan"], {"fan-n0": [1.0]})
    with pytest.raises(ProtocolError, match="row 0 is 'fan-n0', not 'fan-a0'"):
        evaluate_unknown(partial, merged)
    with pytest.raises(ProtocolError, match="missing machine columns"):
        evaluate_unknown(matrix_from_rows(["pump"], {"fan-n0": [1.0], "fan-a0": [2.0]}), merged)


# ---------------------------------------------------------------------------
# known-identity evaluation


def test_evaluate_known_perfect_scorer():
    merged = merge_test_sets(
        {m: make_recordings(m, 3, 3) for m in ["fan", "pump"]}
    )
    rows = {
        r.id: [10.0 if r.is_anomaly else 0.0] * 2 for r in merged.recordings
    }
    result = evaluate_known(matrix_from_rows(["fan", "pump"], rows), merged)
    for m in ["fan", "pump"]:
        assert result.per_machine[m].auc == 1.0
        assert result.per_machine[m].pauc == 1.0
    assert result.aggregate == 1.0


def test_evaluate_known_constant_scorer_is_chance():
    merged = merge_test_sets({"fan": make_recordings("fan", 3, 3)})
    rows = {r.id: [2.5] for r in merged.recordings}
    result = evaluate_known(matrix_from_rows(["fan"], rows), merged)
    assert result.per_machine["fan"].auc == 0.5
    assert result.per_machine["fan"].pauc == pytest.approx(0.5, abs=1e-12)


def test_evaluate_known_matches_slice_oracle():
    rng = np.random.default_rng(41)
    machines = ["m1", "m2", "m3"]
    merged = merge_test_sets({m: make_recordings(m, 6, 4) for m in machines})
    matrix = random_matrix(rng, merged, machines)
    result = evaluate_known(matrix, merged, pauc_p=0.3)
    for col, machine in enumerate(machines):
        recs = [r for r in merged.recordings if r.true_machine == machine]
        scores = [matrix_row(matrix, r.id)[col] for r in recs]
        labels = [r.is_anomaly for r in recs]
        assert result.per_machine[machine].auc == metrics.auc(scores, labels)
        assert result.per_machine[machine].pauc == metrics.pauc(scores, labels, 0.3)
    pooled = [v for m in result.per_machine.values() for v in (m.auc, m.pauc)]
    assert result.aggregate == metrics.aggregate(pooled, "harmonic")


def test_evaluate_known_requires_matrix_coverage():
    merged = merge_test_sets({"fan": make_recordings("fan", 1, 1)})
    matrix = matrix_from_rows(["pump"], {r.id: [1.0] for r in merged.recordings})
    with pytest.raises(ProtocolError, match="fan"):
        evaluate_known(matrix, merged)


def test_single_class_machine_warns_and_is_excluded():
    sets = {
        "fan": make_recordings("fan", 3, 3),
        "pump": make_recordings("pump", 3, 0),  # normals only
    }
    merged = merge_test_sets(sets)
    rows = {
        r.id: [10.0 if r.is_anomaly else 0.0] * 2 for r in merged.recordings
    }
    matrix = matrix_from_rows(["fan", "pump"], rows)
    with pytest.warns(UserWarning, match="single-class"):
        result = evaluate_known(matrix, merged)
    assert result.excluded_machines == ["pump"]
    assert result.per_machine["pump"].auc is None
    assert result.per_machine["pump"].n_anomalous == 0
    assert result.aggregate == 1.0  # pooled over fan only


@pytest.mark.parametrize("entry, modes", [
    pytest.param(full_report, lambda report: [report.known, report.unknown], id="full_report"),
    pytest.param(evaluate_known, lambda known: [known], id="evaluate_known"),
    pytest.param(evaluate_unknown, lambda pair: [pair[0]], id="evaluate_unknown"),
])
def test_full_report_warns_once_per_single_class_machine(entry, modes):
    sets = {
        "fan": make_recordings("fan", 3, 3),
        "pump": make_recordings("pump", 3, 0),  # normals only
    }
    merged = merge_test_sets(sets)
    rows = {r.id: [10.0 if r.is_anomaly else 0.0] * 2 for r in merged.recordings}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = entry(matrix_from_rows(["fan", "pump"], rows), merged)
    assert [str(w.message) for w in caught] == [
        "machine 'pump' has single-class test labels; "
        "its metrics are undefined and excluded from aggregation"
    ]
    assert caught[0].filename == __file__  # attributed to the caller
    assert all(mode.excluded_machines == ["pump"] for mode in modes(result))


def test_all_machines_degenerate_is_an_error():
    merged = merge_test_sets({"fan": make_recordings("fan", 2, 0)})
    matrix = matrix_from_rows(["fan"], {r.id: [1.0] for r in merged.recordings})
    with pytest.warns(UserWarning):
        with pytest.raises(ProtocolError, match="no machine"):
            evaluate_known(matrix, merged)


# ---------------------------------------------------------------------------
# unknown-identity evaluation


def test_unknown_equals_known_when_true_column_is_strict_minimum():
    rng = np.random.default_rng(97)
    machines = ["m1", "m2", "m3", "m4"]
    merged = merge_test_sets({m: make_recordings(m, 5, 3) for m in machines})
    matrix = random_matrix(rng, merged, machines, strict_true_min=True)
    known = evaluate_known(matrix, merged)
    unknown, stats = evaluate_unknown(matrix, merged)
    assert stats.misid_probability == 0.0
    assert stats.tie_count == 0
    for m in machines:
        assert unknown.per_machine[m].auc == known.per_machine[m].auc
        assert unknown.per_machine[m].pauc == known.per_machine[m].pauc
    assert unknown.aggregate == known.aggregate


def test_unknown_equals_known_for_single_machine():
    merged = merge_test_sets({"fan": make_recordings("fan", 4, 4)})
    rows = {r.id: [20.0 + i if r.is_anomaly else float(i)]
            for i, r in enumerate(merged.recordings)}
    matrix = matrix_from_rows(["fan"], rows)
    known = evaluate_known(matrix, merged)
    unknown, stats = evaluate_unknown(matrix, merged)
    assert unknown.per_machine["fan"] == known.per_machine["fan"]
    assert stats.k == 1 and stats.raw_accuracy == 1.0
    assert stats.normalized_accuracy is None


def test_unknown_partitions_by_true_machine_not_identified():
    matrix, merged = golden_style_fixture()
    unknown, stats = evaluate_unknown(matrix, merged)
    # every recording lands in its true machine's slice: slice sizes unchanged
    assert unknown.per_machine["fan"].n_normal == 4
    assert unknown.per_machine["fan"].n_anomalous == 4
    assert unknown.per_machine["valve"].n_normal == 4
    # fan-a2 was claimed by valve at score 2, under fan normals 3 and 4:
    # fan slice scores normals [1,2,3,4] anomalies [5,6,2,8] -> AUC 13.5/16
    assert unknown.per_machine["fan"].auc == 13.5 / 16.0
    assert unknown.per_machine["fan"].pauc == pytest.approx(33.0 / 38.0, abs=1e-12)
    # valve-n1 was claimed by fan at score 1, which is what it scored anyway
    assert unknown.per_machine["valve"].auc == 1.0
    # two wrong assignments out of 16
    assert stats.misid_probability == 2.0 / 16.0
    assert stats.n_correct == 14
    assert stats.normalized_accuracy == 0.75


def test_misidentification_without_degradation_is_possible():
    # a claim that does not cross class boundaries leaves the metrics alone
    matrix, merged = golden_style_fixture()
    known = evaluate_known(matrix, merged)
    unknown, _ = evaluate_unknown(matrix, merged)
    assert known.per_machine["valve"].auc == unknown.per_machine["valve"].auc == 1.0


def test_unknown_never_beats_known_here_and_degrades_on_claims():
    matrix, merged = golden_style_fixture()
    report = full_report(matrix, merged)
    assert report.known.aggregate == 1.0
    assert report.unknown.aggregate == pytest.approx(297.0 / 322.0, abs=1e-12)
    assert report.delta_norm == pytest.approx(25.0 / 161.0, abs=1e-12)


def test_evaluation_invariant_under_exact_monotone_rescaling():
    rng = np.random.default_rng(13)
    machines = ["m1", "m2", "m3"]
    merged = merge_test_sets({m: make_recordings(m, 5, 3) for m in machines})
    matrix = random_matrix(rng, merged, machines)
    scaled = matrix_from_rows(list(machines), dict(zip(matrix.ids, matrix.values * 4.0)))
    base_known = evaluate_known(matrix, merged)
    base_unknown, base_stats = evaluate_unknown(matrix, merged)
    scaled_known = evaluate_known(scaled, merged)
    scaled_unknown, scaled_stats = evaluate_unknown(scaled, merged)
    for m in machines:
        assert scaled_known.per_machine[m].auc == base_known.per_machine[m].auc
        assert scaled_unknown.per_machine[m].auc == base_unknown.per_machine[m].auc
        assert scaled_unknown.per_machine[m].pauc == base_unknown.per_machine[m].pauc
    assert (scaled_stats.n_correct, scaled_stats.tie_count) == (
        base_stats.n_correct,
        base_stats.tie_count,
    )


def test_degradation_nonnegative_in_expectation_over_seeds():
    # structured fixtures (clustered machines, misidentification possible):
    # pooled performance should drop, not rise, once identity is hidden
    from idfree_asd.simulate import SimConfig, run_point

    diffs = []
    for seed in range(120):
        config = SimConfig(
            k=3, d=4, n_ref=12, n_norm=10, n_anom=5,
            separation=3.0, spread=1.0, anomaly_offset=4.0, seed=seed,
        )
        point = run_point(config)
        assert point.error is None
        if point.misid_probability > 0.0:
            diffs.append(point.a_known - point.a_unknown)
    assert len(diffs) >= 100  # misidentification actually occurs
    positive = sum(d > 0 for d in diffs)
    negative = sum(d < 0 for d in diffs)
    assert positive > negative
    assert positive >= 0.7 * len(diffs)
    assert sum(diffs) / len(diffs) > 0.0


# ---------------------------------------------------------------------------
# full report


def test_full_report_wiring():
    matrix, merged = golden_style_fixture()
    config = EvalConfig(pauc_p=0.1, average="harmonic")
    report = full_report(matrix, merged, config)
    assert report.machines == ["fan", "valve"]
    assert report.n_recordings == 16
    assert report.config is config
    assert report.identification.k == 2
    assert report.known.pauc_p == 0.1
    assert report.unknown.average == "harmonic"


def test_full_report_perfect_identification_gives_zero_delta():
    rng = np.random.default_rng(29)
    machines = ["m1", "m2"]
    merged = merge_test_sets({m: make_recordings(m, 6, 4) for m in machines})
    matrix = random_matrix(rng, merged, machines, strict_true_min=True)
    report = full_report(matrix, merged)
    assert report.identification.misid_probability == 0.0
    if report.known.aggregate > 0.5:
        assert report.delta_norm == 0.0


def test_identification_stats_properties():
    stats = IdentificationStats(k=4, n_recordings=10, n_correct=7, tie_count=1)
    assert stats.raw_accuracy == 0.7
    assert stats.misid_probability == pytest.approx(0.3, abs=1e-15)
    assert stats.normalized_accuracy == pytest.approx((0.7 - 0.25) / 0.75, abs=1e-12)


def test_normalized_accuracy_handles_single_machine():
    # chance normalization is undefined for one machine
    assert IdentificationStats(1, 8, 8, 0).normalized_accuracy is None
    two = IdentificationStats(2, 8, 7, 0)
    assert two.normalized_accuracy == pytest.approx(0.75, abs=1e-12)
