import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from idfree_asd.metrics import (
    AVERAGING_MODES,
    IdAccuracy,
    MetricError,
    MetricPair,
    aggregate,
    auc,
    delta_norm,
    normalize_id_accuracy,
    pauc,
    pauc_raw,
    roc_points,
)
from oracles import brute_force_auc, trapezoid_pauc_raw

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


# ---------------------------------------------------------------------------
# roc_points


def test_roc_points_endpoints_and_monotonicity():
    points = roc_points([1.0, 2.0, 2.0, 3.0, 4.0],
                        [False, True, False, False, True])
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        assert x1 >= x0 and y1 >= y0


def test_roc_points_ties_collapse_to_single_vertex():
    # the tied group at score 2 becomes one diagonal segment, not a staircase
    points = roc_points([1.0, 2.0, 2.0, 3.0], [False, True, False, True])
    assert points == [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0)]


def test_roc_points_returns_plain_floats():
    for x, y in roc_points([1.0, 2.0], [False, True]):
        assert type(x) is float and type(y) is float


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
    assert pauc_raw(scores, labels, p) == 0.0
    floor = 0.5 * (1.0 - (p / 2.0) / (1.0 - p / 2.0))
    assert pauc(scores, labels, p) == pytest.approx(floor, abs=1e-12)
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
    assert pauc_raw([0.0, 1.0], [False, True], 0.3) == pytest.approx(0.3, abs=1e-15)
    # interior cap cutting a diagonal tie segment: all scores equal
    raw = pauc_raw([1.0, 1.0], [False, True], 0.4)
    assert raw == pytest.approx(0.4 * 0.4 * 0.5, abs=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 0.013])
def test_pauc_raw_matches_trapezoid_loop_bit_for_bit(p):
    # the vectorized sum must add the same terms in the same order as the loop
    rng = np.random.default_rng(int(p * 1000))
    for _ in range(400):
        n = int(rng.integers(2, 120))
        scores = rng.integers(0, int(rng.integers(1, 12)), size=n).astype(float)
        if rng.random() < 0.3:
            scores = scores / 7.0 + rng.normal(size=n) * (rng.random() < 0.5)
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        labels[rng.integers(n)] = True
        labels[(labels.argmax() + 1 + rng.integers(n - 1)) % n] = False
        expected = trapezoid_pauc_raw(roc_points(scores, labels), p)
        assert pauc_raw(scores, labels, p) == expected


@pytest.mark.parametrize("p", [0.0, -0.1, 1.0001, 2.0])
def test_pauc_rejects_bad_cap(p):
    with pytest.raises(MetricError):
        pauc([1.0, 2.0], [False, True], p)
    with pytest.raises(MetricError):
        pauc_raw([1.0, 2.0], [False, True], p)


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


def test_id_accuracy_wrapper_handles_single_machine():
    single = IdAccuracy.compute(1.0, 1)
    assert single.normalized is None
    multi = IdAccuracy.compute(0.875, 2)
    assert multi.normalized == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_machine_is_identity():
    pair = [MetricPair(0.7, 0.7)]
    assert aggregate(pair, "arithmetic") == pytest.approx(0.7, abs=1e-12)
    assert aggregate(pair, "harmonic") == pytest.approx(0.7, abs=1e-12)


def test_aggregate_hand_values():
    pairs = [MetricPair(0.5, 1.0)]
    assert aggregate(pairs, "arithmetic") == 0.75
    assert aggregate(pairs, "harmonic") == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_aggregate_pools_auc_and_pauc_across_machines():
    pairs = [MetricPair(0.6, 0.8), MetricPair(1.0, 0.6)]
    assert aggregate(pairs, "arithmetic") == pytest.approx(0.75, abs=1e-12)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1.0),
                          st.floats(min_value=0.01, max_value=1.0)),
                min_size=1, max_size=12))
def test_aggregate_harmonic_never_exceeds_arithmetic(values):
    pairs = [MetricPair(a, b) for a, b in values]
    harm = aggregate(pairs, "harmonic")
    arith = aggregate(pairs, "arithmetic")
    assert harm <= arith + 1e-12
    flat = [v for a, b in values for v in (a, b)]
    if max(flat) - min(flat) > 1e-9:
        assert harm < arith


def test_aggregate_harmonic_is_zero_at_zero_and_rejects_negatives():
    # the harmonic mean tends to 0 as any pooled value does
    assert aggregate([MetricPair(0.0, 0.5)], "harmonic") == 0.0
    assert aggregate([MetricPair(0.9, 0.8), MetricPair(0.7, 0.0)], "harmonic") == 0.0
    # MetricPair itself rejects values below 0, so pass an unchecked pair
    with pytest.raises(MetricError, match="nonnegative"):
        aggregate([SimpleNamespace(auc=-0.25, pauc=0.5)], "harmonic")


def test_aggregate_rejects_empty_and_unknown_mode():
    with pytest.raises(MetricError):
        aggregate([], "arithmetic")
    with pytest.raises(MetricError):
        aggregate([MetricPair(0.5, 0.5)], "geometric")
    assert AVERAGING_MODES == ("arithmetic", "harmonic")


def test_metric_pair_validation():
    with pytest.raises(MetricError):
        MetricPair(1.2, 0.5)
    with pytest.raises(MetricError):
        MetricPair(0.5, 0.5, p=0.0)
