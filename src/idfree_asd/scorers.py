"""Reference-based anomaly scorers and score normalizers.

Each machine's notion of normality is a set of normal feature vectors. A
scorer turns distance to that set into a nonnegative anomaly score (higher
means more anomalous); normalizers rescale raw scores using reference
vectors only, so they remain applicable when test identities are unknown.
"""

from __future__ import annotations

import math
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

# query rows go through the distance kernel in blocks whose distances to every
# reference fit in this many bytes, so memory per machine stays bounded as
# the number of scored recordings grows; held-out Mahalanobis covariances are
# stacked in blocks of the same size
_BLOCK_BYTES = 16 * 2**20

# a held-out covariance downdated from the full one carries the full one's
# rounding; once removing a vector leaves less than this fraction of the
# (rescaled) trace, that rounding is no longer small against what is left,
# so the held-out moments are recomputed from the remaining vectors instead
_DOWNDATE_KEEP = 0.5


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
        if not np.isfinite(vecs).all():
            raise ScorerError(f"reference set for {self.machine!r} has non-finite values")
        self.vectors = vecs
        self.mean, self.covariance = _moments(vecs)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def _finite_number(value) -> bool:
    # bools are ints to Python, but true/false in a manifest is no number
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _positive_count(name: str, value) -> int:
    """value as an int when it is a whole number of at least 1 (2.0 passes)."""
    if not (_finite_number(value) and int(value) == value and value >= 1):
        raise ScorerError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != d:
        raise ScorerError(
            f"vectors of dimension {batch.shape[-1] if batch.ndim else 0} "
            f"cannot be scored against {machine!r} references of dimension {d}"
        )
    if not np.isfinite(batch).all():
        raise ScorerError(f"non-finite feature values scored against {machine!r}")
    return batch


def _mahalanobis(
    spec: ScorerSpec, machine: str, mean: np.ndarray, covariance: np.ndarray, batch: np.ndarray
) -> np.ndarray:
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
    # einsum whitens row by row, so a score does not depend on the rest of the batch
    whitened = np.einsum("kj,ij->ik", np.linalg.inv(lower), batch - mean)
    return np.sqrt(np.einsum("ij,ij->i", whitened, whitened))


def _nearest(
    queries: np.ndarray, ref: ReferenceSet, m: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Distances to the m nearest reference vectors of each query, and their indices.

    Both are (n, m), each row sorted by ascending distance. Candidates are
    chosen from squared distances computed as one matrix product per block of
    query rows, with queries and references centred at the reference mean so
    features far from the origin do not cancel. The chosen distances are then
    recomputed from direct differences, so a query equal to a reference scores
    exactly 0. With exclude_self the queries are the reference vectors
    themselves and no vector counts as its own neighbour.
    """
    centred = ref.vectors - ref.mean
    scaled = -2.0 * centred.T
    norms = np.einsum("ij,ij->i", centred, centred)
    n = queries.shape[0]
    distances = np.empty((n, m))
    indices = np.empty((n, m), dtype=np.intp)
    # a block holds its n_ref squared distances and its m x d differences
    rows = max(1, _BLOCK_BYTES // (8 * max(ref.n, m * ref.d)))
    for start in range(0, n, rows):
        block = queries[start : start + rows]
        # squared distances less each row's own constant |x - mean|^2
        squared = (block - ref.mean) @ scaled
        squared += norms
        if exclude_self:
            own = np.arange(len(block))
            squared[own, start + own] = np.inf
        if m == 1:
            nearest = squared.argmin(axis=1)[:, None]
        else:
            nearest = np.argpartition(squared, m - 1, axis=1)[:, :m]
        diff = block[:, None, :] - ref.vectors[nearest]
        exact = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if m > 1:
            order = exact.argsort(axis=1)
            exact = np.take_along_axis(exact, order, axis=1)
            nearest = np.take_along_axis(nearest, order, axis=1)
        distances[start : start + rows] = exact
        indices[start : start + rows] = nearest
    return distances, indices


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

    With e = vectors - mean, removing vector i leaves the covariance
    n/(n-1)*cov - n/(n-1)^2*e_i e_i^T and moves the mean so that
    x_i - mean_i = n/(n-1)*e_i. These downdated covariances are loaded and
    factored as one stack per block of rows, and each row is whitened by
    forward substitution over the d columns of its own factor. Rows whose
    removal cancels most of the trace, and every row of a block whose stack
    is not positive definite, are recomputed from the remaining vectors one
    at a time.
    """
    n, d = ref.n, ref.d
    scale = n / (n - 1)
    centred = ref.vectors - ref.mean
    trace = float(np.trace(ref.covariance))
    traces = scale * (trace - np.einsum("ij,ij->i", centred, centred) / (n - 1))
    exact = traces <= _DOWNDATE_KEEP * scale * trace
    held_out = np.empty(n)
    diagonal = np.arange(d)
    rows = max(1, _BLOCK_BYTES // (8 * d * d))
    for start in range(0, n, rows):
        block = start + np.flatnonzero(~exact[start : start + rows])
        e = centred[block]
        stack = e[:, :, None] * e[:, None, :]
        stack *= -scale / (n - 1)
        stack += scale * ref.covariance
        if spec.epsilon is None:
            load = np.maximum(EPSILON_RELATIVE * traces[block] / d, EPSILON_FLOOR)
            stack[:, diagonal, diagonal] += load[:, None]
        else:
            stack[:, diagonal, diagonal] += spec.epsilon
        try:
            lower = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            exact[block] = True
            continue
        whitened = scale * e
        for j in range(d):
            whitened[:, j] -= np.einsum("ij,ij->i", lower[:, j, :j], whitened[:, :j])
            whitened[:, j] /= lower[:, j, j]
        held_out[block] = np.sqrt(np.einsum("ij,ij->i", whitened, whitened))
    for i in np.flatnonzero(exact):
        mean, covariance = _moments(np.delete(ref.vectors, i, axis=0))
        held_out[i] = _mahalanobis(spec, ref.machine, mean, covariance, ref.vectors[i : i + 1])[0]
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

    def _batch(x: np.ndarray) -> np.ndarray:
        batch = _as_batch(x, ref.d, ref.machine)
        if m:
            distances, nearest = _nearest(batch, ref, m)
        if spec.kind == "nearest_reference":
            raw = distances[:, : spec.k].mean(axis=1)
        else:
            raw = _mahalanobis(spec, ref.machine, ref.mean, ref.covariance, batch)
        if norm.kind == "zscore_reference":
            return (raw - mu) / sigma
        if spacings is not None:
            return raw / spacings[nearest[:, : norm.k_norm]].mean(axis=1)
        return raw

    return _batch


def build_score_matrix(
    specs: Mapping[str, tuple[ScorerSpec, ReferenceSet]], ids: Sequence[str], features
) -> ScoreMatrix:
    """Score every recording against every machine.

    `features` is an (n, d) array with row i for ids[i]; true machine labels
    never reach the scoring stage. Column order is sorted machine name.
    """
    if not specs:
        raise ScorerError("no machine scorers configured")
    if not len(ids):
        raise ScorerError("no recordings to score")
    machines = sorted(specs)
    columns = [scoring_function(*specs[machine])(features) for machine in machines]
    return ScoreMatrix(machines, ids, np.column_stack(columns))
