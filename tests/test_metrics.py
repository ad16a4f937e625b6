import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from idfree_asd import metrics
from idfree_asd.metrics import (
    AVERAGING_MODES,
    MetricError,
    aggregate,
    auc,
    delta_norm,
    normalize_id_accuracy,
    pauc,
)
from oracles import brute_force_auc, mcclish, roc_vertices, trapezoid_pauc_raw

# ---------------------------------------------------------------------------
# strategies

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def labeled_scores(draw, max_size=40, score_strategy=finite):
    """Score/label pairs with at least one member of each class."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    scores = draw(st.lists(score_strategy, min_size=n, max_size=n))
    n_pos = draw(st.integers(min_value=1, max_value=n - 1))
    labels = [True] * n_pos + [False] * (n - n_pos)
    draw(st.randoms(use_true_random=False)).shuffle(labels)
    return scores, labels


# a coarse grid forces plenty of tied scores
tied_scores = st.integers(min_value=0, max_value=5).map(float)


# ---------------------------------------------------------------------------
# auc


def test_auc_perfect_separation():
    assert auc([0.1, 0.2, 0.8, 0.9], [False, False, True, True]) == 1.0


def test_auc_all_equal_scores_is_half():
    assert auc([3.0] * 6, [True, False, True, False, False, True]) == 0.5


def test_auc_interleaved_hand_value():
    # normals {1, 3}, anomalies {2, 4}: 3 winning pairs out of 4
    assert auc([1.0, 2.0, 3.0, 4.0], [False, True, False, True]) == 0.75


def test_auc_reversed_separation_is_zero():
    assert auc([5.0, 6.0, 1.0, 2.0], [False, False, True, True]) == 0.0


def test_auc_single_tied_pair():
    assert auc([2.0, 2.0], [True, False]) == 0.5


@given(labeled_scores())
def test_auc_matches_brute_force(data):
    scores, labels = data
    assert auc(scores, labels) == brute_force_auc(scores, labels)


@given(labeled_scores(score_strategy=tied_scores))
def test_auc_matches_brute_force_with_heavy_ties(data):
    scores, labels = data
    assert auc(scores, labels) == brute_force_auc(scores, labels)


@given(labeled_scores(), st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=-50.0, max_value=50.0))
def test_auc_invariant_under_increasing_affine_map(data, scale, shift):
    scores, labels = data
    mapped = [scale * s + shift for s in scores]
    assert auc(mapped, labels) == brute_force_auc(mapped, labels)
    # ranks are preserved, so the value is unchanged too; rounding can merge
    # near-equal scores into new ties, in which case the claim does not apply
    if len(set(mapped)) == len(set(scores)):
        assert auc(mapped, labels) == auc(scores, labels)


@given(labeled_scores(score_strategy=st.floats(min_value=-20.0, max_value=20.0)))
@example(([-20.0, -19.999999999999996], [True, False]))
def test_auc_invariant_under_strictly_increasing_nonlinear_map(data):
    scores, labels = data
    mapped = [math.expm1(s / 4.0) for s in scores]
    keeps_order = all(
        (a < b) == (ma < mb) for a, ma in zip(scores, mapped) for b, mb in zip(scores, mapped)
    )
    if not keeps_order:
        # in floating point the map can send neighbouring scores to one double
        # (the explicit example: AUC 0 becomes 1/2); a new tie, never an inversion
        assert len(set(mapped)) < len(set(scores))
    assume(keeps_order)
    assert auc(mapped, labels) == auc(scores, labels)


@given(labeled_scores(score_strategy=st.floats(min_value=-1e6, max_value=1e6)))
def test_auc_label_flip_complements(data):
    scores, labels = data
    if len(set(scores)) != len(scores):
        return  # ties break the exact complement; covered by brute force
    flipped = [not y for y in labels]
    assert math.isclose(auc(scores, flipped), 1.0 - auc(scores, labels),
                        abs_tol=1e-12)


@pytest.mark.parametrize(
    "scores, labels",
    [
        ([], []),
        ([1.0, 2.0], [True, True]),
        ([1.0, 2.0], [False, False]),
        ([1.0], [True]),
    ],
)
def test_auc_rejects_degenerate_inputs(scores, labels):
    with pytest.raises(MetricError):
        auc(scores, labels)


def test_auc_rejects_nan_and_mismatched_lengths():
    with pytest.raises(MetricError):
        auc([1.0, float("nan")], [True, False])
    with pytest.raises(MetricError):
        auc([1.0, 2.0, 3.0], [True, False])
    with pytest.raises(MetricError, match="^scores and labels must be one-dimensional$"):
        auc([[1.0], [2.0]], [True, False])


# ---------------------------------------------------------------------------
# pauc


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 1.0])
def test_pauc_perfect_separation_is_one_for_every_cap(p):
    scores = [0.0, 0.1, 0.2, 1.0, 1.1]
    labels = [False, False, False, True, True]
    assert pauc(scores, labels, p) == 1.0


@pytest.mark.parametrize("p", [0.05, 0.1, 0.4, 1.0])
def test_pauc_all_equal_scores_is_half(p):
    assert pauc([7.0] * 8, [True] * 3 + [False] * 5, p) == pytest.approx(0.5, abs=1e-12)


@given(labeled_scores(max_size=30))
def test_pauc_with_full_cap_equals_auc(data):
    scores, labels = data
    assert pauc(scores, labels, 1.0) == pytest.approx(auc(scores, labels), abs=1e-12)


@given(labeled_scores(max_size=30, score_strategy=tied_scores))
def test_pauc_full_cap_equals_auc_under_ties(data):
    scores, labels = data
    assert pauc(scores, labels, 1.0) == pytest.approx(auc(scores, labels), abs=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 1.0])
def test_pauc_reversed_separation_hits_the_floor(p):
    # Every anomaly scores strictly below every normal: the raw partial area
    # is 0, and the standardization maps it to (1 - p) / (2 - p), which is 0
    # only at p = 1. This is the minimum attainable value for the given cap.
    scores = [5.0, 6.0, 7.0, 1.0, 2.0]
    labels = [False, False, False, True, True]
    floor = 0.5 * (1.0 - (p / 2.0) / (1.0 - p / 2.0))
    assert pauc(scores, labels, p) == pytest.approx(floor, abs=1e-12)
    assert pauc(scores, labels, p) == mcclish(0.0, p)
    assert pauc(scores, labels, 1.0) == 0.0


def test_pauc_hand_value_with_one_claimed_anomaly():
    # normals [1,2,3,4], anomalies [5,6,2,8]: at p=0.1 the raw area is 3/4 of
    # the way through the first normal-negative step; worked by hand on the
    # vertex list: raw = 33/400, standardized = 33/38
    scores = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.0, 8.0]
    labels = [False, False, False, False, True, True, True, True]
    assert auc(scores, labels) == pytest.approx(0.84375, abs=0)
    assert pauc(scores, labels, 0.1) == pytest.approx(33.0 / 38.0, abs=1e-12)


def test_pauc_interpolates_partial_segments():
    # single normal at 0, single anomaly at 1: ROC jumps to TPR=1 at FPR=0,
    # so raw area is p and the standardized value is 1 for any cap
    assert pauc([0.0, 1.0], [False, True], 0.3) == pytest.approx(1.0, abs=1e-15)
    # interior cap cutting a diagonal tie segment: all scores equal, so the
    # raw area is the chance area p^2/2 and the standardized value 0.5
    assert pauc([1.0, 1.0], [False, True], 0.4) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 0.013])
def test_pauc_raw_matches_trapezoid_loop_bit_for_bit(p):
    # pauc's raw area, the vectorized sum, must add the same terms in the same
    # order as the loop, over the same vertices: from (0, 0) to (1, 1), one per
    # distinct score, so the tied group at score 2 is one diagonal segment
    assert roc_vertices([1.0, 2.0, 2.0, 3.0], [False, True, False, True]) == [
        (0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0)]
    rng = np.random.default_rng(int(p * 1000))
    for _ in range(400):
        n = int(rng.integers(2, 120))
        scores = rng.integers(0, int(rng.integers(1, 12)), size=n).astype(float)
        if rng.random() < 0.3:
            scores = scores / 7.0 + rng.normal(size=n) * (rng.random() < 0.5)
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        labels[rng.integers(n)] = True
        labels[(labels.argmax() + 1 + rng.integers(n - 1)) % n] = False
        expected = mcclish(trapezoid_pauc_raw(roc_vertices(scores, labels), p), p)
        assert pauc(scores, labels, p) == expected


@pytest.mark.parametrize("p", [0.0, -0.1, 1.0001, 2.0])
def test_pauc_rejects_bad_cap(p):
    with pytest.raises(MetricError):
        pauc([1.0, 2.0], [False, True], p)
    with pytest.raises(MetricError):
        metrics._auc_pauc(np.array([1.0, 2.0]), np.array([False, True]), p)


@given(st.one_of(labeled_scores(), labeled_scores(score_strategy=tied_scores)),
       st.sampled_from([0.013, 0.1, 0.5, 1.0]))
def test_auc_pauc_from_one_sort_equal_the_separate_calls(data, p):
    # the per-machine metrics of a report come from this one-sort helper
    scores, labels = data
    pair = metrics._auc_pauc(np.array(scores), np.array(labels), p)
    assert pair == (auc(scores, labels), pauc(scores, labels, p))
    assert pair[0] == brute_force_auc(scores, labels)


@given(labeled_scores(max_size=400, score_strategy=st.sampled_from([-1.0, -0.0, 0.0, 2.5])),
       st.sampled_from([0.013, 0.1, 0.5, 1.0]), st.randoms(use_true_random=False))
def test_auc_pauc_ignore_the_order_within_tied_scores(data, p, random):
    # the sort need not be stable: counts are taken only at the end of a tie
    scores, labels = data
    rows = list(zip(scores, labels))
    random.shuffle(rows)
    pair = metrics._auc_pauc(np.array(scores), np.array(labels), p)
    shuffled = metrics._auc_pauc(*map(np.array, zip(*rows)), p)
    assert np.array(shuffled).view(np.uint64).tolist() == np.array(pair).view(np.uint64).tolist()
    assert pair == (brute_force_auc(scores, labels),
                    mcclish(trapezoid_pauc_raw(roc_vertices(scores, labels), p), p))


@given(labeled_scores(max_size=25), st.sampled_from([0.05, 0.1, 0.3, 0.7]))
def test_pauc_bounded_and_le_one(data, p):
    scores, labels = data
    value = pauc(scores, labels, p)
    floor = 0.5 * (1.0 - (p / 2.0) / (1.0 - p / 2.0))
    assert floor - 1e-12 <= value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# delta_norm


def test_delta_norm_published_endpoints():
    # the two ends of the reference table, quoted at 4 decimals
    assert delta_norm(0.7031, 0.6966) == pytest.approx(0.0320, abs=5e-5)
    assert delta_norm(0.5671, 0.5540) == pytest.approx(0.1952, abs=5e-5)


@given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
def test_delta_norm_zero_when_nothing_lost(a):
    assert delta_norm(a, a) == 0.0


@given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
def test_delta_norm_one_when_all_lost(a):
    assert delta_norm(a, 0.5) == 1.0


def test_delta_norm_undefined_at_or_below_chance():
    assert delta_norm(0.5, 0.6) is None
    assert delta_norm(0.42, 0.9) is None


def test_delta_norm_exceeds_one_when_unknown_below_chance():
    assert delta_norm(0.75, 0.4) == pytest.approx(1.4, abs=1e-12)


def test_delta_norm_negative_when_unknown_wins():
    assert delta_norm(0.6, 0.7) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("known, unknown", [(1.2, 0.5), (-0.1, 0.5), (0.9, 1.5)])
def test_delta_norm_rejects_out_of_range(known, unknown):
    with pytest.raises(MetricError):
        delta_norm(known, unknown)


# ---------------------------------------------------------------------------
# identification accuracy normalization


def test_normalize_id_accuracy_perfect_is_one():
    assert normalize_id_accuracy(1.0, 7) == 1.0


@pytest.mark.parametrize("k", range(2, 22))
def test_normalize_id_accuracy_chance_is_zero(k):
    assert normalize_id_accuracy(1.0 / k, k) == 0.0


def test_normalize_id_accuracy_hand_value():
    assert normalize_id_accuracy(0.9, 10) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_normalize_id_accuracy_below_chance_is_negative():
    assert normalize_id_accuracy(0.0, 4) == pytest.approx(-1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("raw, k", [(1.1, 3), (-0.2, 3), (0.5, 1), (0.5, 0), (0.5, 2.5)])
def test_normalize_id_accuracy_rejects_bad_inputs(raw, k):
    with pytest.raises(MetricError):
        normalize_id_accuracy(raw, k)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_machine_is_identity():
    values = [0.7, 0.7]
    assert aggregate(values, "arithmetic") == pytest.approx(0.7, abs=1e-12)
    assert aggregate(values, "harmonic") == pytest.approx(0.7, abs=1e-12)


def test_aggregate_hand_values():
    assert aggregate([0.5, 1.0], "arithmetic") == 0.75
    assert aggregate([0.5, 1.0], "harmonic") == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_aggregate_pools_auc_and_pauc_across_machines():
    assert aggregate([0.6, 0.8, 1.0, 0.6], "arithmetic") == pytest.approx(0.75, abs=1e-12)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=24))
def test_aggregate_harmonic_never_exceeds_arithmetic(values):
    harm = aggregate(values, "harmonic")
    arith = aggregate(values, "arithmetic")
    assert harm <= arith + 1e-12
    if max(values) - min(values) > 1e-9:
        assert harm < arith


def test_aggregate_harmonic_is_zero_at_zero_and_rejects_negatives():
    # the harmonic mean tends to 0 as any pooled value does
    assert aggregate([0.0, 0.5], "harmonic") == 0.0
    assert aggregate([0.9, 0.8, 0.7, 0.0], "harmonic") == 0.0
    with pytest.raises(MetricError, match="outside"):
        aggregate([-0.25, 0.5], "harmonic")


def test_aggregate_rejects_empty_and_unknown_mode():
    with pytest.raises(MetricError):
        aggregate([], "arithmetic")
    with pytest.raises(MetricError):
        aggregate([0.5, 0.5], "geometric")
    assert AVERAGING_MODES == ("arithmetic", "harmonic")


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_aggregate_takes_a_numpy_array(mode):
    assert aggregate(np.array([0.8, 0.9]), mode) == aggregate([0.8, 0.9], mode)
    with pytest.raises(MetricError, match="empty"):
        aggregate(np.array([]), mode)


def test_aggregate_rejects_values_outside_unit_interval():
    for bad in (1.2, -0.25, math.nan, math.inf):
        for mode in AVERAGING_MODES:
            with pytest.raises(MetricError, match="outside"):
                aggregate([0.5, bad], mode)
