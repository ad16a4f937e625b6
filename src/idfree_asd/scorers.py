"""Reference-based anomaly scorers and score normalizers.

Each machine's notion of normality is a set of normal feature vectors. A
scorer turns distance to that set into a nonnegative anomaly score (higher
means more anomalous); normalizers rescale raw scores using reference
vectors only, so they remain applicable when test identities are unknown.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Mapping, Sequence

import numpy as np

from .protocol import ScoreMatrix

__all__ = [
    "ScorerError",
    "SCORER_KINDS",
    "NORMALIZER_KINDS",
    "ReferenceSet",
    "ScorerSpec",
    "NormalizerSpec",
    "scoring_function",
    "build_score_matrix",
]

SCORER_KINDS = ("nearest_reference", "mahalanobis")
NORMALIZER_KINDS = ("none", "zscore_reference", "local_density")

# relative diagonal loading keeps small-sample covariances invertible; the
# absolute floor covers the all-identical-vectors case where trace is zero
EPSILON_RELATIVE = 1e-6
EPSILON_FLOOR = 1e-12

# feature values beyond this magnitude are rejected: the square of a difference
# of two values within it is at most 4e200, which stays finite when summed over
# as many features, reference rows and kernel terms as memory can hold, and when
# divided by EPSILON_FLOOR (a smaller explicit epsilon can overflow a score)
_LARGEST = 1e100

# query rows go through the distance kernel in blocks whose float64 products
# with every reference fit in this many bytes, the float32 screen values in
# half of it, and the Mahalanobis scorer's centred and whitened rows in all of
# it, so memory per machine stays bounded as the number of scored recordings
# grows; simulate.run_point draws its test vectors in blocks of an eighth of
# it (or of one machine's anomalies, when they take more), so it never holds
# all of them
_BLOCK_BYTES = 8 * 2**20

# the nearest-reference screen: unit roundoffs of float32 and float64; the
# smallest normal float32, which bounds the absolute error of one float32
# operation that underflows (flushed to zero or not); the margin's factor over
# twice the summed bounds, which covers the rounding of |c|, R, the gap and
# the margin themselves; the range of |c| + R the bounds are kept to; and the
# fewest query-reference pairs per block for which the screen pays for its
# fixed per-block cost
_U32, _U64 = 2.0**-24, 2.0**-53
_TINY32 = 2.0**-126
_MARGIN = 2.0 * (1.0 + 2.0**-18)
_RANGE = (2.0**-40, 2.0**40)
_SCREEN_PAIRS = 2**18

# the rank-one correction of a held-out Mahalanobis distance divides the
# rounding of u_i by 1 - b*u_i; where that is at most this, the rounding is
# at least doubled, so the held-out moments are recomputed from the remaining
# vectors instead (the u_i sum to at most (n-1)*d, so at most 2*d*n/(n-1) rows)
_RANK_ONE_KEEP = 0.5


class ScorerError(ValueError):
    """Raised on invalid scorer configuration or incompatible vectors."""


def _moments(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # mean and population covariance of a nonempty (n, d) array
    # (one vector: its deviation from its own mean is exactly 0, so all zeros)
    d = vectors.shape[1]
    return vectors.mean(axis=0), np.cov(vectors, rowvar=False, ddof=0).reshape(d, d)


@dataclass
class ReferenceSet:
    """Normal-only training vectors defining one machine's normality."""

    machine: str
    vectors: np.ndarray
    mean: np.ndarray = field(init=False, repr=False)
    covariance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] == 0 or vecs.shape[1] == 0:
            raise ScorerError(
                f"reference set for {self.machine!r} must be a nonempty "
                f"2-D array, got shape {vecs.shape}"
            )
        _check_range(vecs, f"reference set for {self.machine!r}")
        self.vectors = vecs
        self.mean, self.covariance = _moments(vecs)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def _finite_number(value) -> bool:
    # a bool is no number here (true/false in a manifest), nor an int past the largest float
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _whole(value) -> int | None:
    # value as an int when it is a finite whole number (2.0 is 2), else None
    return int(value) if _finite_number(value) and int(value) == value else None


def _positive_count(name: str, value) -> int:
    if (count := _whole(value)) is None or count < 1:
        raise ScorerError(f"{name} must be a positive integer, got {value!r}")
    return count


@dataclass(frozen=True)
class NormalizerSpec:
    """Choice of score normalization backed by the reference set."""

    kind: str = "none"
    k_norm: int = 1

    def __post_init__(self) -> None:
        if self.kind not in NORMALIZER_KINDS:
            raise ScorerError(
                f"unknown normalizer {self.kind!r}; use one of {NORMALIZER_KINDS}"
            )
        object.__setattr__(self, "k_norm", _positive_count("k_norm", self.k_norm))


@dataclass(frozen=True)
class ScorerSpec:
    """Choice of raw scorer plus optional normalization.

    epsilon=None selects the relative default at scoring time; an explicit
    value must be a finite positive number.
    """

    kind: str = "nearest_reference"
    k: int = 1
    epsilon: float | None = None
    normalizer: NormalizerSpec = NormalizerSpec()

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ScorerError(f"unknown scorer {self.kind!r}; use one of {SCORER_KINDS}")
        object.__setattr__(self, "k", _positive_count("neighbor count k", self.k))
        if self.epsilon is not None and not (_finite_number(self.epsilon) and self.epsilon > 0.0):
            raise ScorerError(f"epsilon must be a finite positive number, got {self.epsilon!r}")


def _as_batch(x, d: int, machine: str) -> np.ndarray:
    batch = np.asarray(x, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != d:
        raise ScorerError(f"a batch of shape {batch.shape} (vectors of dimension "
                          f"{batch.shape[-1] if batch.ndim else 0}) cannot be scored against "
                          f"{machine!r} references of dimension {d}")
    _check_range(batch, f"feature batch scored against {machine!r}")
    return batch


def _check_range(values: np.ndarray, what: str) -> None:
    # nan fails both comparisons, so one pass without a temporary array
    # catches non-finite values too
    if not (-_LARGEST <= values.min(initial=0.0) and values.max(initial=0.0) <= _LARGEST):
        if not np.isfinite(values).all():
            raise ScorerError(f"{what} has non-finite values")
        raise ScorerError(
            f"{what} has values beyond ±{_LARGEST:g}, past which squared distances can overflow"
        )


def _whitening(spec: ScorerSpec, machine: str, covariance: np.ndarray) -> np.ndarray:
    # the inverse Cholesky factor of the epsilon-loaded covariance
    d = covariance.shape[0]
    epsilon = spec.epsilon
    if epsilon is None:
        epsilon = max(EPSILON_RELATIVE * float(np.trace(covariance)) / d, EPSILON_FLOOR)
    try:
        lower = np.linalg.cholesky(covariance + epsilon * np.eye(d))
    except np.linalg.LinAlgError:
        raise ScorerError(
            f"reference covariance of {machine!r} loaded with epsilon={epsilon!r} "
            f"is not positive definite; use a larger epsilon"
        ) from None
    return np.linalg.inv(lower)


def _mahalanobis(whitening: np.ndarray, mean: np.ndarray, batch: np.ndarray) -> np.ndarray:
    # in blocks of rows whose two float64 temporaries, the centred and the
    # whitened rows, fit in _BLOCK_BYTES; einsum whitens row by row, so a score
    # does not depend on the rest of the batch or on the blocking
    scores = np.empty(len(batch))
    rows = max(1, _BLOCK_BYTES // (16 * batch.shape[1]))
    for start in range(0, len(batch), rows):
        whitened = np.einsum("kj,ij->ik", whitening, batch[start:start + rows] - mean)
        np.sqrt(np.einsum("ij,ij->i", whitened, whitened), out=scores[start:start + rows])
        del whitened  # freed before the next block is centred
    return scores


def _nearest(
    queries: np.ndarray, ref: ReferenceSet, m: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Distances to the m nearest reference vectors of each query, and their indices.

    Both are (n, m), each row sorted by ascending distance and, between equal
    distances, by reference index. Queries and references are centred at the
    reference mean, so features far from the origin do not cancel, and each
    block of query rows is screened in float32: with c = query - mean and
    r_j = reference_j - mean, one product [c, 1] @ [-2 r_j; |r_j|^2] gives
    f_j = |c - r_j|^2 - |c|^2 for every reference. A row is settled when the
    float32 gap between its m-th and (m+1)-th smallest f_j exceeds twice the
    sum of two error bounds, one on the float32 values and one on the float64
    values of the same product (the dot-product bound gamma_n = n*u/(1-n*u),
    Higham 2002, section 3.1, plus what underflow can lose; it holds in any
    summation order), so its float32 choice is the float64 one. Unsettled rows,
    rows whose |c| + max|r_j| lies outside [2**-40, 2**40], every row of a block
    too small for the screen to pay, and every row when m takes all the
    candidates choose from the float64 product instead. Both pick through
    _smallest, so the lower reference index wins a tie. The chosen distances
    are recomputed from direct differences, so a query equal to a reference
    scores exactly 0. With exclude_self the queries are the reference vectors
    themselves and none is its own neighbour.
    """
    # the centred references, scaled by -2 in place once their norms are taken
    scaled = ref.vectors - ref.mean
    norms = np.einsum("ij,ij->i", scaled, scaled)
    scaled *= -2.0
    n, (n_ref, d), scaled = queries.shape[0], scaled.shape, scaled.T
    distances = np.empty((n, m))
    indices = np.empty((n, m), dtype=np.intp)
    # per row, a block holds n_ref 8-byte values or m x d float64 differences
    rows = max(1, min(n, _BLOCK_BYTES // (8 * max(n_ref, m * d))))
    # R, the largest |r_j|, where the screen can pay and leaves a candidate
    # out; above the range no row can settle
    screenable = m < n_ref - exclude_self and rows * n_ref >= _SCREEN_PAIRS
    radius = math.sqrt(norms.max()) if screenable else math.inf
    screened = radius <= _RANGE[1]
    if screened:
        screen = np.empty((d + 1, n_ref), dtype=np.float32)
        screen[:d] = scaled
        screen[d] = norms
        product = np.empty((rows, n_ref), dtype=np.float32)
        augmented = np.empty((rows, d + 1), dtype=np.float32)
        augmented[:, d] = 1.0
        # the margin is affine in |c|: twice the float32 and float64 bounds
        # gamma * (2|c|R + R^2), plus what underflow can lose per operation
        gamma = _gamma(d + 3, _U32) + _gamma(d + 1, _U64)
        tiny = 8 * (d + 1) * _TINY32
        slope = _MARGIN * (2 * gamma * radius + tiny)
        intercept = _MARGIN * (gamma * radius**2 + tiny * (2 * radius + radius**2 + 2))
        shortest, longest = _RANGE[0] - radius, _RANGE[1] - radius
    for start in range(0, n, rows):
        block = queries[start : start + rows]
        own = np.arange(len(block))
        c = block - ref.mean
        if not screened or len(block) * n_ref < _SCREEN_PAIRS:
            nearest, unsettled = np.empty((len(block), m), dtype=np.intp), slice(None)
        else:
            f = product[: len(block)]
            # rows out of range may overflow float32; they never settle
            with np.errstate(over="ignore", invalid="ignore"):
                augmented[: len(block), :d] = c
                np.matmul(augmented[: len(block)], screen, out=f)
                if exclude_self:
                    f[own, start + own] = np.inf
                nearest, gap = _smallest(f, m)
                length = np.sqrt(np.einsum("ij,ij->i", c, c))
            # not (gap > margin), so nan never settles a row
            unsettled = np.flatnonzero(
                ~(gap > slope * length + intercept)
                | (length < shortest) | (length > longest)
            )
        rest = own[unsettled]
        if len(rest):
            # the float64 selection, on the rows the screen does not settle
            squared = c[unsettled] @ scaled
            squared += norms
            if exclude_self:
                squared[np.arange(len(rest)), start + rest] = np.inf
            nearest[unsettled] = _smallest(squared, m)[0]
        diff = block[:, None, :] - ref.vectors[nearest]
        exact = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if m > 1:
            order = np.lexsort((nearest, exact), axis=1)
            exact = np.take_along_axis(exact, order, axis=1)
            nearest = np.take_along_axis(nearest, order, axis=1)
        distances[start : start + rows] = exact
        indices[start : start + rows] = nearest
    return distances, indices


def _smallest(f: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of each row's m smallest values by m rounds of argmin, each pick masked
    in f with inf (a tie keeps the lower column), and the float64 gap to the next value."""
    rows, nearest = np.arange(len(f)), np.empty((len(f), m), dtype=np.intp)
    for j in range(m):
        nearest[:, j] = f.argmin(axis=1)
        least = f[rows, nearest[:, j]]
        f[rows, nearest[:, j]] = np.inf
    return nearest, np.subtract(f.min(axis=1), least, dtype=float)


def _gamma(n: int, u: float) -> float:
    # relative error bound of an n-term dot product with unit roundoff u
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _held_out(spec: ScorerSpec, ref: ReferenceSet) -> np.ndarray:
    # raw score of each reference vector against the set without it
    if ref.n < 2:
        raise ScorerError(
            f"cannot hold out from a single-vector reference set ({ref.machine!r})"
        )
    if spec.kind == "nearest_reference":
        if spec.k > ref.n - 1:
            raise ScorerError(
                f"k={spec.k} exceeds held-out reference size {ref.n - 1} for {ref.machine!r}"
            )
        return _nearest(ref.vectors, ref, spec.k, exclude_self=True)[0].mean(axis=1)
    return _held_out_mahalanobis(spec, ref)


def _held_out_mahalanobis(spec: ScorerSpec, ref: ReferenceSet) -> np.ndarray:
    """Each reference vector's Mahalanobis distance under the moments of the others.

    With e_i = x_i - mean, s = n/(n-1) and b = n/(n-1)^2, removing x_i leaves
    the covariance s*cov - b*e_i e_i^T and x_i - mean_i = s*e_i. With
    s*cov = Q diag(w) Q^T and eps_i the loading of row i's held-out covariance,
    u_i = e_i^T (s*cov + eps_i*I)^-1 e_i = sum_j (e_i Q)_j^2 / (w_j + eps_i),
    and the Sherman-Morrison formula (Sherman & Morrison, 1950) gives the
    held-out distance s * sqrt(u_i / (1 - b*u_i)). Rows where 1 - b*u_i is at
    most _RANK_ONE_KEEP are recomputed from the remaining vectors one at a time.
    """
    n, d = ref.n, ref.d
    scale, downdate = n / (n - 1), n / (n - 1) ** 2
    centred = ref.vectors - ref.mean
    if spec.epsilon is None:
        trace = float(np.trace(ref.covariance))
        traces = scale * (trace - np.einsum("ij,ij->i", centred, centred) / (n - 1))
        load = np.maximum(EPSILON_RELATIVE * traces / d, EPSILON_FLOOR)
    else:
        load = np.full(n, spec.epsilon)
    # the full covariance is positive semidefinite, so a negative w_j is rounding
    w, q = np.linalg.eigh(scale * ref.covariance)
    y = centred @ q
    u = np.einsum("ij,ij->i", y, y / (np.maximum(w, 0.0) + load[:, None]))
    keep = 1.0 - downdate * u
    exact = keep <= _RANK_ONE_KEEP
    held_out = np.empty(n)
    held_out[~exact] = scale * np.sqrt(u[~exact] / keep[~exact])
    for i in np.flatnonzero(exact):
        mean, covariance = _moments(np.delete(ref.vectors, i, axis=0))
        whitening = _whitening(spec, ref.machine, covariance)
        held_out[i] = _mahalanobis(whitening, mean, ref.vectors[i : i + 1])[0]
    return held_out


def _local_spacings(ref: ReferenceSet, k_norm: int) -> np.ndarray:
    # each reference vector's mean distance to its k_norm nearest peers
    if ref.n < k_norm + 1:
        raise ScorerError(
            f"local_density needs at least k_norm+1={k_norm + 1} reference "
            f"vectors, {ref.machine!r} has {ref.n}"
        )
    spacings = _nearest(ref.vectors, ref, k_norm, exclude_self=True)[0].mean(axis=1)
    if np.any(spacings == 0.0):
        raise ScorerError(
            f"duplicate reference vectors give {ref.machine!r} zero local spacing"
        )
    return spacings


def scoring_function(
    spec: ScorerSpec, ref: ReferenceSet
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch scorer for one machine: (n, d) features to n normalized scores.

    Raw scores: nearest_reference is the mean Euclidean distance to the k
    nearest reference vectors; mahalanobis is the distance to the reference
    mean under the epsilon-regularized reference covariance. Both are
    nonnegative. Normalizers then rescale them using reference vectors only:
    zscore_reference standardizes by the mean and population stddev of the
    held-out raw scores of the reference vectors themselves (each vector
    scored against the set without it, so zero self-distances cannot deflate
    the mean); local_density divides the raw score by the mean local spacing
    of the k_norm reference vectors nearest to the query; none is the identity.
    """
    norm = spec.normalizer
    if spec.kind == "nearest_reference" and spec.k > ref.n:
        raise ScorerError(f"k={spec.k} exceeds reference size {ref.n} for {ref.machine!r}")
    if norm.kind == "zscore_reference":
        held_out = _held_out(spec, ref)
        mu, sigma = float(held_out.mean()), float(held_out.std())
        if sigma == 0.0:
            raise ScorerError(
                f"constant held-out reference scores for {ref.machine!r}; "
                f"zscore_reference is undefined"
            )
    spacings = _local_spacings(ref, norm.k_norm) if norm.kind == "local_density" else None
    # one nearest-reference lookup serves the k-nearest scorer and local_density
    m = spec.k if spec.kind == "nearest_reference" else 0
    if spacings is not None:
        m = max(m, norm.k_norm)
    # the covariance is factored once per scorer, not once per batch
    if spec.kind == "mahalanobis":
        whitening = _whitening(spec, ref.machine, ref.covariance)

    def _batch(x: np.ndarray) -> np.ndarray:
        batch = _as_batch(x, ref.d, ref.machine)
        if m:
            distances, nearest = _nearest(batch, ref, m)
        if spec.kind == "nearest_reference":
            scores = distances[:, : spec.k].mean(axis=1)
        else:
            scores = _mahalanobis(whitening, ref.mean, batch)
        if norm.kind == "zscore_reference":
            scores = (scores - mu) / sigma
        elif spacings is not None:
            scores = scores / spacings[nearest[:, : norm.k_norm]].mean(axis=1)
        if not np.isfinite(scores).all():
            raise ScorerError(f"scores against {ref.machine!r} overflow to non-finite values "
                              f"(with mahalanobis, use a larger epsilon)")
        return scores

    return _batch


def build_score_matrix(
    specs: Mapping[str, tuple[ScorerSpec, ReferenceSet]], ids: Sequence[str], features
) -> ScoreMatrix:
    """Score every recording against every machine.

    `features` is an (n, d) array with row i for ids[i]; true machine labels
    never reach the scoring stage. Column order is sorted machine name.
    """
    if specs and not len(ids):  # no specs: _scorer says so first
        raise ScorerError("no recordings to score")
    # one block of every row, whose scores are the values (ScoreMatrix checks their count)
    values = []
    _scorer(specs, lambda _, scores: values.append(scores))(None, features)
    return ScoreMatrix(_machines(specs), ids, values[0])


def _machines(specs: Mapping[str, tuple[ScorerSpec, ReferenceSet]]) -> list[str]:
    """The score columns of ``specs``: their machine names, sorted."""
    if not specs:
        raise ScorerError("no machine scorers configured")
    return sorted(specs)


def _scorer(
    specs: Mapping[str, tuple[ScorerSpec, ReferenceSet]],
    place: Callable[[np.ndarray | None, np.ndarray], None],
) -> Callable[[np.ndarray | None, np.ndarray], None]:
    """A score(rows, block) that passes the (b, k) scores of a block of features,
    columns in _machines order, to place(rows, scores), each block's as a new
    array. Each machine's scorer is built once, here."""
    batches = [scoring_function(*specs[machine]) for machine in _machines(specs)]

    def score(rows: np.ndarray | None, block: np.ndarray) -> None:
        # features of no dimension fail in the scorer
        scores = np.empty((len(block) if np.ndim(block) else 0, len(batches)))
        for j, batch in enumerate(batches):
            scores[:, j] = batch(block)
        place(rows, scores)

    return score
