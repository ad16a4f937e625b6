import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
from oracles import euclidean, held_out_scores, k_nearest_indices, k_nearest_mean
from tables import traced

NN1 = ScorerSpec("nearest_reference", k=1)
ZSCORE = NormalizerSpec("zscore_reference")


def score_one(spec, ref, x):
    """One vector's score through the batch path."""
    return scoring_function(spec, ref)(np.asarray(x, dtype=float)[None])[0]


def column(refs):
    """1-D points as an (n, 1) reference array."""
    return np.asarray(refs, dtype=float).reshape(-1, 1)


BLOCK = 4

# the kernel's float32 screen is off for blocks below _SCREEN_PAIRS query-
# reference pairs; 0 turns it on for every block of a small test input
SCREEN_SIDES = (scorers._SCREEN_PAIRS, 0)


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
    with pytest.raises(ScorerError, match=r"'m' has values beyond ±1e\+100"):
        ReferenceSet("m", [[1.0], [-1.1e100]])


@pytest.mark.parametrize("kind", SCORER_KINDS)
@pytest.mark.parametrize("normalizer", NORMALIZER_KINDS)
def test_feature_values_at_the_range_bound_score_finite(kind, normalizer):
    # the smallest default loading (identical vectors) and the widest spread
    # both stay finite, without an overflow warning
    top = scorers._LARGEST
    spec = ScorerSpec(kind, normalizer=NormalizerSpec(normalizer))
    batch = np.array([[-top, -top], [top, -top], [0.0, 0.0]])
    spread = [[top, top], [-top, -top], [top, 0.0], [0.5 * top, -top]]
    # identical references leave no held-out spread or local spacing to normalize by
    sets = [spread, [[top, top]] * 3] if normalizer == "none" else [spread]
    for vectors in sets:
        assert np.isfinite(scoring_function(spec, ReferenceSet("m", vectors))(batch)).all()


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
    with pytest.raises(ScorerError, match=r"against 'm' has values beyond ±1e\+100"):
        score_one(NN1, ref, [1.0, 1e101])
    with pytest.raises(ScorerError, match="dimension"):
        scoring_function(NN1, ref)(np.zeros((2, 2, 1)))
    with pytest.raises(ScorerError, match=r"a batch of shape \(2,\)"):  # one vector is x[None]
        scoring_function(NN1, ref)(np.zeros(2))


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


# removing the first vector leaves two that differ by 1e-9: its downdated
# covariance would be all rounding, so only that row is recomputed exactly
CANCELLING = [[0.0, 0.0], [1e3, 1e3], [1e3, 1e3 + 1e-9]]


@pytest.mark.parametrize(
    "vectors, spread",
    [
        pytest.param(1e6 + np.random.default_rng(7).normal(size=(200, 8)), 1.0, id="offset-1e6"),
        pytest.param([[0.0, 1.0], [0.0, 1.0], [2.0, 3.0], [1.0, 5.0]], 1.0, id="duplicates"),
        pytest.param(CANCELLING, 1e3, id="cancelling"),
        pytest.param(np.random.default_rng(64).normal(size=(64, 3)), 1.0, id="several-blocks"),
    ],
)
def test_zscore_reference_mahalanobis_downdate_matches_oracle(vectors, spread):
    vectors = np.asarray(vectors)
    ref = ReferenceSet("m", vectors)
    held_out = np.array(held_out_scores("mahalanobis", 1, None, vectors))
    rng = np.random.default_rng(5)
    batch = ref.mean + spread * (20.0 + rng.normal(size=(6, ref.d)))
    raw = scoring_function(ScorerSpec("mahalanobis"), ref)(batch)
    expected = (raw - held_out.mean()) / held_out.std()
    z = scoring_function(ScorerSpec("mahalanobis", normalizer=ZSCORE), ref)(batch)
    np.testing.assert_allclose(z, expected, rtol=1e-9, atol=0.0)


def counted_moments(monkeypatch):
    """Record the vectors of every later moments computation, one per recomputed row."""
    calls = []
    moments = scorers._moments

    def counting(vectors):
        calls.append(vectors)
        return moments(vectors)

    monkeypatch.setattr(scorers, "_moments", counting)
    return calls


def held_out_mahalanobis(vectors, epsilon=None):
    return scorers._held_out(ScorerSpec("mahalanobis", epsilon=epsilon), ReferenceSet("m", vectors))


@pytest.mark.parametrize("n, d", [(5, 4), (4, 3), (3, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_held_out_mahalanobis_of_at_most_d_plus_1_vectors_matches_oracle(n, d, seed):
    # each held-out covariance is singular, so the loading alone lifts it
    vectors = 1e4 + 6.0 * np.random.default_rng(seed).normal(size=(n, d))
    np.testing.assert_allclose(held_out_mahalanobis(vectors),
                               held_out_scores("mahalanobis", 1, None, vectors),
                               rtol=1e-9, atol=0.0)


def test_held_out_mahalanobis_matches_oracle_over_seeded_sets():
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 41)), int(rng.integers(1, 7))
        shape = ("anisotropic", "near-collinear", "offset")[seed % 3]
        if shape == "anisotropic":
            vectors = rng.normal(size=(n, d)) * np.logspace(0, 2, d)
        elif shape == "near-collinear":
            vectors = np.outer(rng.normal(size=n), rng.normal(size=d))
            vectors += 1e-2 * rng.normal(size=(n, d))
        else:
            vectors = 1e4 + 6.0 * rng.normal(size=(n, d))
        epsilon = None if seed % 2 else float(rng.uniform(0.01, 1.0))
        np.testing.assert_allclose(
            held_out_mahalanobis(vectors, epsilon),
            held_out_scores("mahalanobis", 1, epsilon, vectors),
            rtol=1e-9, atol=0.0, err_msg=f"seed {seed}: {shape} {n}x{d}, epsilon={epsilon}")


def test_held_out_mahalanobis_recomputes_at_most_2dn_over_n_minus_1_rows(monkeypatch):
    # planted outliers dominate the covariance, so removing one cancels much of it
    n, d = 120, 4
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(n, d))
    vectors[rng.choice(n, 8, replace=False)] *= 200.0
    ref = ReferenceSet("m", vectors)
    calls = counted_moments(monkeypatch)
    held_out = scorers._held_out(ScorerSpec("mahalanobis"), ref)
    assert 0 < len(calls) <= 2 * d * n / (n - 1)
    np.testing.assert_allclose(held_out, held_out_scores("mahalanobis", 1, None, vectors),
                               rtol=1e-9, atol=0.0)


def test_zscore_reference_mahalanobis_recomputes_only_cancelling_rows(monkeypatch):
    spec = ScorerSpec("mahalanobis", normalizer=ZSCORE)
    well_conditioned = ReferenceSet("m", np.random.default_rng(300).normal(size=(300, 4)))
    cancelling = ReferenceSet("m", CANCELLING)
    calls = counted_moments(monkeypatch)
    scoring_function(spec, well_conditioned)
    assert calls == []
    scoring_function(spec, cancelling)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], cancelling.vectors[1:])


def test_zscore_reference_mahalanobis_memory_is_bounded_per_block():
    # all 4,000 held-out 64 x 64 covariances at once would take 131 MB
    ref = ReferenceSet("m", np.random.default_rng(4).normal(size=(4_000, 64)))
    spec = ScorerSpec("mahalanobis", normalizer=ZSCORE)
    _, _, peak = traced(lambda: scoring_function(spec, ref))
    assert peak < 64 * 2**20


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
    expected = [k_nearest_mean(x, vectors, k) for x in batch]
    neighbours = [k_nearest_indices(x, vectors, k) for x in batch]
    for pairs in SCREEN_SIDES:
        monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
        got = scoring_function(ScorerSpec("nearest_reference", k=k), ref)(batch)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        assert scorers._nearest(batch, ref, k)[1].tolist() == neighbours


# a scaled-down knn-point shape, d=8 for 64: with 2,100 references the old and
# the new block budget, 16 and 8 MiB, give blocks of 998 and 499 query rows,
# and the last 104 rows of 2,100 queries fall below _SCREEN_PAIRS and take the
# float64 product
BUDGETS = (16 * 2**20, 8 * 2**20)


@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("data", ["clusters", "integer ties"])
def test_nearest_is_bitwise_the_same_under_the_old_and_new_budget(data, m, exclude_self,
                                                                   monkeypatch):
    rng = np.random.default_rng(97)
    n_ref, d = 2100, 8
    if data == "clusters":
        vectors = rng.normal(size=(n_ref, d))
        queries = 1.5 * rng.normal(size=(n_ref, d))
    else:
        # small integers that sum to 0: the mean, the centred values and every
        # product are exact, so equal distances tie exactly, across the cut too
        vectors = rng.integers(-3, 4, size=(n_ref, d)).astype(float)
        vectors[-1] = -vectors[:-1].sum(axis=0)
        queries = rng.integers(-3, 4, size=(n_ref, d)).astype(float)
    queries = vectors if exclude_self else queries
    ref = ReferenceSet("m", vectors)
    shapes = screen_products(monkeypatch)
    results = []
    for budget in BUDGETS:
        monkeypatch.setattr(scorers, "_BLOCK_BYTES", budget)
        results.append(scorers._nearest(queries, ref, m, exclude_self))
    assert shapes == [(998, d + 1)] * 2 + [(499, d + 1)] * 4
    (distances, indices), (new_distances, new_indices) = results
    assert distances.tobytes() == new_distances.tobytes()
    assert indices.tobytes() == new_indices.tobytes()
    if data == "integer ties":
        # rows of the first block and of the last, float64-only one, against
        # exact distances ranked by (distance, index)
        rows = np.r_[:100, n_ref - 100 : n_ref]
        exact = np.linalg.norm(queries[rows, None, :] - vectors[None], axis=2)
        if exclude_self:
            exact[np.arange(len(rows)), rows] = np.inf
        ranked = np.lexsort((np.broadcast_to(np.arange(n_ref), exact.shape), exact), axis=1)
        assert indices[rows].tolist() == ranked[:, :m].tolist()
        cut = np.take_along_axis(exact, ranked[:, m - 1 : m + 1], axis=1)
        assert (cut[:, 0] == cut[:, 1]).any()


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
    peers = [k_nearest_indices(v, vectors, k_norm, exclude=i) for i, v in enumerate(vectors)]
    neighbours = [k_nearest_indices(x, vectors, k_norm) for x in batch]
    expected = [k_nearest_mean(x, vectors, k) / (sum(spacings[j] for j in near) / k_norm)
                for x, near in zip(batch, neighbours)]
    for pairs in SCREEN_SIDES:
        monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
        np.testing.assert_allclose(scoring_function(spec, ref)(batch), expected,
                                   rtol=1e-12, atol=0.0)
        assert scorers._nearest(vectors, ref, k_norm, exclude_self=True)[1].tolist() == peers
        assert scorers._nearest(batch, ref, k_norm)[1].tolist() == neighbours


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


def float64_choice(queries, vectors, m, exclude_self=False):
    """The plain float64 product's picks: m reference indices per query, by
    (product value, index), and the squared distances less |query - mean|^2."""
    mean = vectors.mean(axis=0)
    centred = vectors - mean
    squared = (queries - mean) @ (-2.0 * centred.T)
    squared += np.einsum("ij,ij->i", centred, centred)
    if exclude_self:
        np.fill_diagonal(squared, np.inf)
    return np.argsort(squared, axis=1, kind="stable")[:, :m], squared


def screen_products(monkeypatch):
    """Record the shape of every float32 product the kernel screens with."""
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        if a.dtype == np.float32:
            shapes.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


@pytest.mark.parametrize("n_rows, screened", [(511, False), (512, True)])
def test_nearest_screens_blocks_from_a_fixed_number_of_pairs(n_rows, screened, monkeypatch):
    # 511 x 512 pairs fall below 2**18, 512 x 512 reach it
    rng = np.random.default_rng(n_rows)
    vectors = rng.normal(size=(512, 3))
    batch = rng.normal(size=(n_rows, 3))
    shapes = screen_products(monkeypatch)
    for m in (1, 3):
        distances, indices = scorers._nearest(batch, ReferenceSet("m", vectors), m)
        expected = float64_choice(batch, vectors, m)[0]
        assert np.array_equal(np.sort(indices, axis=1), np.sort(expected, axis=1))
        exact = np.linalg.norm(batch[:, None, :] - vectors[indices], axis=2)
        np.testing.assert_allclose(distances, exact, rtol=1e-15, atol=0.0)
    assert shapes == ([(n_rows, 4)] * 2 if screened else [])


def test_margin_bound_is_infinite_where_the_dot_product_bound_fails():
    # gamma_n = n*u/(1 - n*u) holds only for n*u < 1; past that no row may settle
    assert scorers._gamma(3, 2.0**-24) == 3 * 2.0**-24 / (1 - 3 * 2.0**-24)
    assert scorers._gamma(2**24, 2.0**-24) == scorers._gamma(2**25, 2.0**-24) == math.inf


def test_nearest_falls_back_to_float64_where_float32_cannot_separate(monkeypatch):
    # each reference has a twin 1e-5 away; a query 1e-3 from a pair is nearer
    # its twin by about 1e-8 in squared distance, below float32 rounding of
    # these values but far above float64's, so the screen must hand the row on
    rng = np.random.default_rng(23)
    base = rng.normal(size=(256, 2))
    vectors = np.vstack([base, base + 1e-5 * rng.normal(size=(256, 2))])
    batch = np.vstack([base, base]) + 1e-3 * rng.normal(size=(512, 2))
    shapes = screen_products(monkeypatch)
    indices = scorers._nearest(batch, ReferenceSet("m", vectors), 1)[1]
    assert shapes
    chosen = float64_choice(batch, vectors, 1)[0]
    assert np.array_equal(indices, chosen)
    exact = np.linalg.norm(batch[:, None, :] - vectors[None, :, :], axis=2)
    assert np.array_equal(indices[:, 0], exact.argmin(axis=1))
    # a float32 choice alone gets some of these rows wrong
    mean = vectors.mean(axis=0)
    centred = (vectors - mean).astype(np.float32)
    single = ((batch - mean).astype(np.float32) @ (-2 * centred.T)
              + np.einsum("ij,ij->i", centred, centred))
    assert (single.argmin(axis=1) != chosen[:, 0]).any()


@pytest.mark.parametrize("pairs", SCREEN_SIDES, ids=["float64", "screened"])
def test_nearest_orders_equidistant_references_by_index(pairs, monkeypatch):
    monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
    # from the query (7, -3), references 1, 3, 4 and 5 lie exactly 5 away,
    # 0 and 2 farther; the references sum to 6 * (9, -2), so the mean, the
    # centred values and every product are exact and the four products tie
    query = np.array([7.0, -3.0])
    vectors = query + np.array([[12.0, 6.0], [4.0, -3.0], [-2.0, -6.0],
                                [-5.0, 0.0], [3.0, 4.0], [0.0, 5.0]])
    ref = ReferenceSet("m", vectors)
    assert ref.mean.tolist() == [9.0, -2.0]
    batch = np.tile(query, (3, 1))
    for m, expected in ((1, [1]), (2, [1, 3]), (3, [1, 3, 4]), (4, [1, 3, 4, 5]),
                        (5, [1, 3, 4, 5, 2]), (6, [1, 3, 4, 5, 2, 0])):
        distances, indices = scorers._nearest(batch, ref, m)
        # a tie across the cut keeps the lowest indices
        assert indices.tolist() == [expected] * 3
        assert distances[:, : min(m, 4)].tolist() == [[5.0] * min(m, 4)] * 3


@pytest.mark.parametrize("pairs", SCREEN_SIDES, ids=["float64", "screened"])
@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("m", [1, 2, 4, None], ids=["m=1", "m=2", "m=4", "m=all"])
def test_nearest_breaks_exact_ties_by_the_lowest_index(m, exclude_self, pairs, monkeypatch):
    # small integer vectors in two dimensions tie on many rows, across the cut
    # and within the chosen neighbours; they sum to 0, so the mean, the
    # centred values and every product are exact and equal distances tie
    monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
    rng = np.random.default_rng(59)
    vectors = rng.integers(-3, 4, size=(40, 2)).astype(float)
    vectors[-1] = -vectors[:-1].sum(axis=0)
    ref = ReferenceSet("m", vectors)
    batch = vectors if exclude_self else rng.integers(-3, 4, size=(60, 2)).astype(float)
    m = m or len(vectors) - exclude_self
    skipped = range(len(batch)) if exclude_self else [None] * len(batch)
    distances, indices = scorers._nearest(batch, ref, m, exclude_self)
    expected = [k_nearest_indices(x, vectors, m, exclude=i) for i, x in zip(skipped, batch)]
    assert indices.tolist() == expected
    exact = np.linalg.norm(batch[:, None, :] - vectors[expected], axis=2)
    assert np.array_equal(distances, exact)


@pytest.mark.parametrize(
    "scales",
    [
        pytest.param([1e-30] * 3, id="1e-30"),
        pytest.param([1e30] * 3, id="1e30"),
        pytest.param([1e-6, 1.0, 1e6], id="mixed"),
    ],
)
@pytest.mark.parametrize("m", [1, 3])
def test_nearest_at_extreme_feature_scales_picks_the_float64_choice(scales, m):
    rng = np.random.default_rng(41)
    vectors = rng.normal(size=(512, 3)) * scales
    batch = rng.normal(size=(600, 3)) * scales
    distances, indices = scorers._nearest(batch, ReferenceSet("m", vectors), m)
    expected = float64_choice(batch, vectors, m)[0]
    assert np.array_equal(np.sort(indices, axis=1), np.sort(expected, axis=1))
    exact = np.linalg.norm(batch[:, None, :] - vectors[indices], axis=2)
    np.testing.assert_allclose(distances, exact, rtol=1e-15, atol=0.0)


def test_nearest_with_queries_beyond_float32_range(monkeypatch):
    # the screen runs for these references, but rows whose float32 product
    # overflows never settle, and the overflow raises no warning
    rng = np.random.default_rng(43)
    vectors = rng.normal(size=(512, 3))
    batch = rng.normal(size=(512, 3))
    batch[::7, 0] = 1e39
    batch[1::7, 1] = -1e13
    shapes = screen_products(monkeypatch)
    for m in (1, 3):
        indices = scorers._nearest(batch, ReferenceSet("m", vectors), m)[1]
        expected = float64_choice(batch, vectors, m)[0]
        assert np.array_equal(np.sort(indices, axis=1), np.sort(expected, axis=1))
    assert shapes
    # float32 partial sums of these rows overflow to inf for the nearest
    # reference while the next one stays finite: an infinite gap that only
    # the range check keeps from settling the row
    monkeypatch.setattr(scorers, "_SCREEN_PAIRS", 0)
    vectors = np.array([[0.93, 0.24, -0.9], [1.41, -0.61, 0.68], [0.56, 1.27, 0.8],
                        [-0.34, -1.36, 0.47], [-1.46, -1.34, -1.43]])
    batch = np.array([[1.573e38, 1.250e38, -0.942e38], [1.602e38, 1.302e38, -1.283e38],
                      [1.334e38, -1.117e38, -1.022e38]])
    indices = scorers._nearest(batch, ReferenceSet("m", vectors), 1)[1]
    assert np.array_equal(indices, float64_choice(batch, vectors, 1)[0])


@pytest.mark.parametrize("pairs", SCREEN_SIDES, ids=["float64", "screened"])
def test_nearest_exclude_self_matches_oracle(pairs, monkeypatch):
    monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
    rng = np.random.default_rng(47)
    # a duplicate is its twin's nearest peer, at distance 0; the vectors are
    # exact integers, so the twins tie exactly as the peers of other vectors
    vectors = rng.integers(-3, 4, size=(12, 3)).astype(float)
    vectors[7] = vectors[2]
    vectors[-1] = -vectors[:-1].sum(axis=0)
    ref = ReferenceSet("m", vectors)
    for m in (1, 3, 11):
        distances, indices = scorers._nearest(vectors, ref, m, exclude_self=True)
        for i, v in enumerate(vectors):
            ranked = sorted((euclidean(v, w), j) for j, w in enumerate(vectors) if j != i)
            np.testing.assert_allclose(distances[i], [r for r, _ in ranked[:m]],
                                       rtol=1e-12, atol=0.0)
            # a tie across the cut keeps the lower twin
            assert indices[i].tolist() == k_nearest_indices(v, vectors, m, exclude=i)
        assert distances[2, 0] == distances[7, 0] == 0.0
        assert indices[2, 0] == 7 and indices[7, 0] == 2


@pytest.mark.parametrize("pairs", SCREEN_SIDES, ids=["float64", "screened"])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_nearest_with_m_equal_to_the_number_of_candidates(exclude_self, pairs, monkeypatch):
    monkeypatch.setattr(scorers, "_SCREEN_PAIRS", pairs)
    rng = np.random.default_rng(53)
    vectors = rng.normal(size=(6, 2))
    ref = ReferenceSet("m", vectors)
    batch = vectors if exclude_self else rng.normal(size=(9, 2))
    m = len(vectors) - exclude_self
    indices = scorers._nearest(batch, ref, m, exclude_self)[1]
    skipped = range(len(batch)) if exclude_self else [None] * len(batch)
    assert indices.tolist() == [k_nearest_indices(x, vectors, m, exclude=i)
                                for i, x in zip(skipped, batch)]


# coordinates from a few magnitudes and repeated values, so that exact and
# near ties, duplicates and wide scale ranges all turn up
coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)


@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(coordinates, min_size=d, max_size=d), min_size=2, max_size=24),
        st.lists(st.lists(coordinates, min_size=d, max_size=d), min_size=1, max_size=12),
    )),
    st.integers(1, 3),
    st.booleans(),
)
def test_nearest_screen_picks_what_float64_picks(data, m, exclude_self):
    vectors, batch = (np.array(rows) for rows in data)
    assume(m < len(vectors) - exclude_self)
    if exclude_self:
        batch = vectors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorers, "_SCREEN_PAIRS", 0)
        distances, indices = scorers._nearest(batch, ReferenceSet("m", vectors), m, exclude_self)
    chosen, squared = float64_choice(batch, vectors, m, exclude_self)
    # rows the float64 product separates by more than four times its own
    # error bound have one float64 choice, and every settled row is among them
    d = vectors.shape[1]
    centred = vectors - vectors.mean(axis=0)
    radius = np.sqrt(np.einsum("ij,ij->i", centred, centred).max())
    length = np.linalg.norm(batch - vectors.mean(axis=0), axis=1)
    bound = (d + 1) * 2.0**-53 / (1 - (d + 1) * 2.0**-53) * (2 * length * radius + radius**2)
    ranked = np.sort(squared, axis=1)
    clear = ranked[:, m] - ranked[:, m - 1] > 4 * bound + 1e-300
    assert np.array_equal(np.sort(indices[clear], axis=1), np.sort(chosen[clear], axis=1))
    exact = np.linalg.norm(batch[:, None, :] - vectors[indices], axis=2)
    assert np.array_equal(distances, exact) or np.allclose(distances, exact, rtol=1e-15, atol=0)
    assert (np.diff(distances, axis=1) >= 0).all()


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
    _, _, peak = traced(lambda: fn(batch))
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
    assert matrix.ids.tolist() == [rec.id for rec in merged.recordings]
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


def test_build_score_matrix_memory_is_the_block_budget_and_the_output():
    # the knn-point benchmark shape: 4 machines of 2,000 references, d=64 and
    # 30,000 recordings. Above its inputs, scoring holds one block's kernel
    # work, within the block budget, the (n, k) matrix it returns, and a few
    # float64 vectors per recording for the machine being scored (neighbour
    # distances and indices, raw scores)
    rng = np.random.default_rng(5)
    n, k, d, n_ref = 30_000, 4, 64, 2_000
    specs = {f"m{j}": (NN1, ReferenceSet(f"m{j}", rng.normal(j, 1.0, size=(n_ref, d))))
             for j in range(k)}
    features = rng.normal(1.5, 1.0, size=(n, d))
    ids = np.array([f"r{i:05d}" for i in range(n)], dtype=np.dtypes.StringDType())
    matrix, _, peak = traced(lambda: build_score_matrix(specs, ids, features))
    assert matrix.values.shape == (n, k)
    assert peak < scorers._BLOCK_BYTES + matrix.values.nbytes + 4 * n * 8


def test_build_score_matrix_is_deterministic():
    rng = np.random.default_rng(59)
    refs = {m: ReferenceSet(m, rng.normal(size=(7, 3))) for m in ["a", "b"]}
    specs = {m: (ScorerSpec("nearest_reference", k=2), refs[m]) for m in refs}
    merged = make_merged(rng, ["a", "b"], 4, 3)
    first = build_score_matrix(specs, merged.ids, merged.features)
    second = build_score_matrix(specs, merged.ids, merged.features)
    assert first.ids.tolist() == second.ids.tolist()
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


@pytest.mark.parametrize("call", ["scoring_function", "build_score_matrix"])
def test_scores_that_overflow_are_a_scorer_error_naming_the_machine(call):
    # epsilon=1e-300 whitens all-zero references by 1e150, so [1e100, 0] scores
    # past the float range, and numpy warns of nothing; in the matrix, fan's
    # column is neither r1's least nor, with r1 valve's, its true machine's
    spec = ScorerSpec("mahalanobis", epsilon=1e-300)
    fan = ReferenceSet("fan", np.zeros((3, 2)))
    valve = ReferenceSet("valve", [[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]])
    x = np.array([[1e100, 0.0]])
    with pytest.raises(ScorerError, match=r"^scores against 'fan' overflow to non-finite "
                                          r"values \(with mahalanobis, use a larger epsilon\)$"):
        if call == "scoring_function":
            scoring_function(spec, fan)(x)
        else:
            build_score_matrix({"fan": (spec, fan), "valve": (spec, valve)}, ["r1"], x)


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
    assert matrix.ids.tolist() == merged.ids.tolist()
    assert np.array_equal(matrix.values, flipped.values)
