"""Synthetic machine-sound stand-in data with a separability dial.

Machines are Gaussian clusters placed at the vertices of a regular simplex,
so a single separation scalar controls how confusable every machine pair is.
Anomalies sit at a radial offset from their own cluster center. Sweeping the
separation trades implicit identification accuracy against the degradation
of identity-free detection, which is the relationship the sweep reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import MetricError
from .protocol import EvalConfig, MergedTestSet, ProtocolError, _key_order, _placed_columns, _report
from . import scorers
from .scorers import ReferenceSet, ScorerError, ScorerSpec, _finite_number, _whole

# bench/spans.py traces through these names
from .protocol import full_report, merge_test_sets  # noqa: F401
from .scorers import build_score_matrix  # noqa: F401

__all__ = [
    "SimError",
    "SimConfig",
    "SweepPoint",
    "DEFAULT_SCORER",
    "DEFAULT_SEPARATIONS",
    "DEFAULT_REPEATS",
    "simplex_centers",
    "generate",
    "derive_seed",
    "run_point",
    "sweep",
]

DEFAULT_SCORER = ScorerSpec(kind="nearest_reference", k=1)
# spans the claimed-anomaly regime (low end) through clean separation where
# misidentification vanishes (high end); values are multiples of spread
DEFAULT_SEPARATIONS = (4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0, 9.0, 11.0, 13.0)
DEFAULT_REPEATS = 5

_SEED_LIMIT = 2**64
# a machine's anomaly noise is drawn this many rows at a time (128 KiB at d=64)
_NOISE_ROWS = 256

class SimError(ValueError):
    """Raised on invalid simulation configs or impossible geometry."""


@dataclass(frozen=True)
class SimConfig:
    """Generator knobs; the seed fully determines every sample."""

    k: int = 5
    d: int = 8
    n_ref: int = 64
    n_norm: int = 96
    n_anom: int = 32
    separation: float = 8.0
    spread: float = 1.0
    anomaly_offset: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        # counts follow ScorerSpec's rule: 2.0 is 2, a bool is no count
        for name in ("k", "d", "n_ref", "n_norm", "n_anom", "seed"):
            count = _whole(getattr(self, name))
            if count is None:
                raise SimError(f"{name} must be a whole number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, count)
        if self.k < 1:
            raise SimError(f"machine count k must be a positive integer, got {self.k}")
        if self.d < 1:
            raise SimError(f"dimension d must be a positive integer, got {self.d}")
        if self.n_ref < 2:
            raise SimError(f"need n_ref >= 2 reference vectors, got {self.n_ref}")
        if self.n_norm < 1:
            raise SimError(f"need n_norm >= 1 normal test vectors, got {self.n_norm}")
        if self.n_anom < 1:
            raise SimError(f"need n_anom >= 1 anomalous test vectors, got {self.n_anom}")
        for name in ("separation", "spread", "anomaly_offset"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise SimError(f"{name} must be finite, got {value}")
        if self.separation < 0.0:
            raise SimError(f"separation must be >= 0, got {self.separation}")
        if self.spread <= 0.0:
            raise SimError(f"spread must be > 0, got {self.spread}")
        if self.anomaly_offset <= 0.0:
            raise SimError(f"anomaly_offset must be > 0, got {self.anomaly_offset}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise SimError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def simplex_centers(k: int, d: int, separation: float) -> np.ndarray:
    """k mutually equidistant centers in d dimensions, centroid at origin.

    Every pair of centers is exactly `separation` apart; requires d >= k-1.
    """
    if d < k - 1:
        raise SimError(
            f"cannot place {k} equidistant centers in {d} dimensions; need d >= {k - 1}"
        )
    centers = np.zeros((k, d))
    if k == 1 or separation == 0.0:
        return centers
    # rows of the Cholesky factor realize unit vectors with pairwise dot
    # -1/(k-1); the last vertex is minus their sum, and pairwise distances
    # come out at sqrt(2k/(k-1)) before rescaling
    gram = np.full((k - 1, k - 1), -1.0 / (k - 1))
    np.fill_diagonal(gram, 1.0)
    vertices = np.linalg.cholesky(gram)
    scale = separation / np.sqrt(2.0 * k / (k - 1.0))
    centers[: k - 1, : k - 1] = vertices * scale
    centers[k - 1, : k - 1] = -vertices.sum(axis=0) * scale
    return centers


def _machine_name(index: int) -> str:
    return f"machine{index + 1:02d}"


def _draw_setup(config: SimConfig) -> tuple[list, dict[str, ReferenceSet], MergedTestSet,
                                            np.ndarray]:
    """Each machine's (random stream, cluster center) with its references
    drawn, the reference sets, the merged test set in id order, and
    rows[m, j], the id-order row of machine m's j-th test vector to draw.

    Each machine consumes its own child random stream, references first, so
    adding machines never perturbs the samples of existing ones and the test
    vectors can be drawn later, in any grouping of machines.
    """
    centers = simplex_centers(config.k, config.d, config.separation)
    children = np.random.SeedSequence(config.seed).spawn(config.k)
    streams = [(np.random.default_rng(child), center) for child, center in zip(children, centers)]
    references: dict[str, ReferenceSet] = {}
    for index, (rng, center) in enumerate(streams):
        refs = rng.standard_normal((config.n_ref, config.d))
        refs *= config.spread
        refs += center
        references[_machine_name(index)] = ReferenceSet(_machine_name(index), refs)
    # draws run machine by machine, normals first; the ids are ASCII without
    # NUL, built as bytes: each key is an id's bytes, every byte but the padding raised
    numbers = [np.char.zfill(np.arange(count).astype(bytes), 4)
               for count in (config.n_norm, config.n_anom)]
    keys = np.concatenate([np.char.add(f"{machine}-{kind}".encode(), number)
                           for machine in references for kind, number in zip("na", numbers)])
    raw = keys.view(np.uint8)
    raw += raw > 0
    order = _key_order(keys)
    per_machine = config.n_norm + config.n_anom
    merged = MergedTestSet(
        None,
        list(references),
        order // per_machine,
        order % per_machine >= config.n_norm,
        keys=keys[order],
    )
    return streams, references, merged, np.argsort(order).reshape(config.k, per_machine)


def _test_blocks(config: SimConfig, streams: list, rows: np.ndarray, group: int):
    """Every machine's test vectors, `group` whole machines at a time in draw
    order, as (id-order rows, block) pairs; each block reuses one buffer.

    A machine draws its normals, then its anomalies: anomaly_offset along a
    uniform random direction, then cluster noise, _NOISE_ROWS rows at a time
    into one small buffer. The draws are scaled and shifted in place, in the
    operation order of `center + spread * noise`, so every value is bit for
    bit what that expression gives.
    """
    block = np.empty((group, rows.shape[1], config.d))
    noise = np.empty((min(config.n_anom, _NOISE_ROWS), config.d))
    for first in range(0, config.k, group):
        machines = streams[first:first + group]
        for (rng, center), out in zip(machines, block):
            normals, anomalies = out[:config.n_norm], out[config.n_norm:]
            rng.standard_normal(out=normals)
            normals *= config.spread
            normals += center
            rng.standard_normal(out=anomalies)
            norms = np.linalg.norm(anomalies, axis=1, keepdims=True)
            anomalies /= np.where(norms == 0.0, 1.0, norms)
            anomalies *= config.anomaly_offset
            anomalies += center
            # the stream gives the same values in pieces as in one draw
            for start in range(0, config.n_anom, _NOISE_ROWS):
                piece = anomalies[start:start + _NOISE_ROWS]
                drawn = rng.standard_normal(out=noise[:len(piece)])
                drawn *= config.spread
                piece += drawn
        yield rows[first:first + group].ravel(), block[:len(machines)].reshape(-1, config.d)


def generate(config: SimConfig) -> tuple[dict[str, ReferenceSet], MergedTestSet]:
    """Draw per-machine reference sets and a merged, featured test set.

    Every machine's references are drawn first, then the test vectors, one
    machine at a time into one reused buffer and from it to their rows of one
    (n, d) array in id order; the test set holds its ids as keys, decoding
    `ids` on first read. `run_point` scores the same values without holding
    this array.
    """
    streams, references, merged, rows = _draw_setup(config)
    merged.features = np.empty((rows.size, config.d))  # its rows filled in place, in id order
    for ids_rows, block in _test_blocks(config, streams, rows, 1):
        merged.features[ids_rows] = block
    return references, merged


@dataclass(frozen=True)
class SweepPoint:
    """Metrics of one simulated evaluation at one separation value.

    Metric fields are None when undefined (single machine, chance-level
    known performance) or when the point failed; error then carries the
    cause.
    """

    separation: float
    repeat: int
    seed: int
    id_accuracy_normalized: float | None = None
    delta_norm: float | None = None
    a_known: float | None = None
    a_unknown: float | None = None
    misid_probability: float | None = None
    error: str | None = None


def run_point(
    config: SimConfig,
    scorer: ScorerSpec = DEFAULT_SCORER,
    eval_config: EvalConfig = EvalConfig(),
    repeat: int = 0,
) -> SweepPoint:
    """Draw one dataset, score it, and condense the report to a point.

    The report is `full_report` of `generate`'s values scored by
    `build_score_matrix`, but no id is decoded and neither the (n, d)
    features nor the (n, k) scores are held: after every machine's
    references, the test vectors are drawn into one reused block of as many
    whole machines as fit in half the kernel's block budget (at least one),
    the half its float32 screen of a block leaves, and each block is scored
    against every machine and reduced to the protocols' columns before the
    next is drawn.
    """
    streams, references, merged, rows = _draw_setup(config)
    group = scorers._BLOCK_BYTES // 2 // (8 * rows.shape[1] * config.d)
    blocks = _test_blocks(config, streams, rows, min(config.k, max(1, group)))
    specs = {machine: (scorer, ref) for machine, ref in references.items()}
    machines = scorers._machines(specs)
    columns, place = _placed_columns(machines, [merged], False)
    scorers._score_blocks(specs, blocks, place)
    report = _report(columns, merged, machines, eval_config)
    return SweepPoint(
        separation=config.separation,
        repeat=repeat,
        seed=config.seed,
        id_accuracy_normalized=report.identification.normalized_accuracy,
        delta_norm=report.delta_norm,
        a_known=report.known.aggregate,
        a_unknown=report.unknown.aggregate,
        misid_probability=report.identification.misid_probability,
    )


def derive_seed(base_seed: int, separation_index: int, repeat: int) -> int:
    """Stable per-point seed; extending the sweep keeps existing points."""
    sequence = np.random.SeedSequence([base_seed, separation_index, repeat])
    return int(sequence.generate_state(1, np.uint64)[0])


def sweep(
    base: SimConfig,
    separations: Sequence[float] = DEFAULT_SEPARATIONS,
    repeats: int = DEFAULT_REPEATS,
    scorer: ScorerSpec = DEFAULT_SCORER,
    eval_config: EvalConfig = EvalConfig(),
) -> list[SweepPoint]:
    """Run repeats at every separation; a point's data error becomes its failure."""
    if not separations:
        raise SimError("sweep needs at least one separation value")
    count = _whole(repeats)
    if count is None or count < 1:
        raise SimError(f"repeats must be a positive integer, got {repeats}")
    points: list[SweepPoint] = []
    for sep_index, separation in enumerate(separations):
        for repeat in range(count):
            seed = derive_seed(base.seed, sep_index, repeat)
            config = dataclasses.replace(base, separation=separation, seed=seed)
            try:
                points.append(run_point(config, scorer, eval_config, repeat))
            except (SimError, ScorerError, ProtocolError, MetricError) as exc:
                points.append(SweepPoint(separation, repeat, seed,
                                         error=f"{type(exc).__name__}: {exc}"))
    return points
