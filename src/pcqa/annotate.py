"""Statistics core: MOS with kurtosis screening, rank correlations,
per-distortion-type metric selection, nonlinear score regression, and
pseudo-MOS generation with annotation-error reporting.

Correlations, ranks, kurtosis and the simplex optimizer are implemented
from first principles; the test suite validates them against independent
oracles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .frmetrics import metric_order_key
from .pcio import read_csv_rows

__all__ = [
    "DegenerateCorrelationError",
    "plcc", "srocc", "fractional_ranks",
    "Rating", "RatingMatrix", "ScreeningResult",
    "subject_kurtosis", "screen_subjects", "compute_mos",
    "select_best_metric",
    "RegressionModel", "fit_regression", "eval_regression", "nelder_mead",
    "AnnotationRecord", "ScoredSample", "generate_pseudo_mos",
    "ErrorStats", "annotation_error_stats",
    "MOS_MIN", "MOS_MAX",
]

log = logging.getLogger(__name__)

MOS_MIN, MOS_MAX = 1.0, 5.0


class DegenerateCorrelationError(ValueError):
    """Raised when a correlation is undefined (zero variance input)."""


# ---------------------------------------------------------------------------
# Correlations
# ---------------------------------------------------------------------------


def plcc(p: Sequence[float], q: Sequence[float]) -> float:
    """Pearson linear correlation coefficient."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(p) < 2:
        raise ValueError("need at least 2 samples")
    pc = p - p.mean()
    qc = q - q.mean()
    ssp = float((pc * pc).sum())
    ssq = float((qc * qc).sum())
    if ssp == 0.0 or ssq == 0.0:
        raise DegenerateCorrelationError("undefined correlation")
    r = float((pc * qc).sum()) / math.sqrt(ssp * ssq)
    return min(1.0, max(-1.0, r))


def fractional_ranks(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values receive the average of their rank range."""
    x = np.asarray(x, dtype=np.float64)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def srocc(p: Sequence[float], q: Sequence[float]) -> float:
    """Spearman rank-order correlation: Pearson correlation of fractional ranks."""
    return plcc(fractional_ranks(p), fractional_ranks(q))


# ---------------------------------------------------------------------------
# Subjective ratings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rating:
    stimulus_id: str
    subject_id: str
    score: float
    scale: tuple[float, float] = field(default=(MOS_MIN, MOS_MAX), repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.scale
        if not lo <= self.score <= hi:
            raise ValueError(f"score {self.score} outside [{lo}, {hi}]")


@dataclass
class RatingMatrix:
    """Sparse subject x stimulus score table; each subject rates a subset."""

    ratings: list[Rating] = field(default_factory=list)

    @classmethod
    def from_csv(cls, path: str | Path,
                 scale: tuple[float, float] = (MOS_MIN, MOS_MAX)) -> "RatingMatrix":
        out = []
        for where, row in read_csv_rows(path, {"stimulus_id", "subject_id", "score"}, "rating"):
            try:
                out.append(Rating(row["stimulus_id"], row["subject_id"], float(row["score"]), scale))
            except ValueError as exc:  # a blank, non-numeric or out-of-scale score
                raise ValueError(f"{where}: {exc}") from None
        return cls(out)

    def by_subject(self) -> dict[str, np.ndarray]:
        groups: dict[str, list[float]] = {}
        for r in self.ratings:
            groups.setdefault(r.subject_id, []).append(r.score)
        return {s: np.asarray(v) for s, v in sorted(groups.items())}

    def by_stimulus(self, subjects: set[str] | None = None) -> dict[str, np.ndarray]:
        groups: dict[str, list[float]] = {}
        for r in self.ratings:
            if subjects is None or r.subject_id in subjects:
                groups.setdefault(r.stimulus_id, []).append(r.score)
        return {s: np.asarray(v) for s, v in sorted(groups.items())}


def subject_kurtosis(scores: np.ndarray) -> float:
    """Population kurtosis beta2 = m4 / m2^2."""
    x = np.asarray(scores, dtype=np.float64)
    centered = x - x.mean()
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        return float("nan")
    m4 = float((centered**4).mean())
    return m4 / (m2 * m2)


@dataclass
class ScreeningResult:
    kept: list[str]
    rejected: dict[str, str]  # subject id -> reason


def screen_subjects(ratings: RatingMatrix) -> ScreeningResult:
    """Keep subjects whose score kurtosis lies in [2, 4]; constant scorers
    are rejected with reason 'degenerate' rather than crashing."""
    kept: list[str] = []
    rejected: dict[str, str] = {}
    for subject, scores in ratings.by_subject().items():
        if len(scores) < 4:
            raise ValueError(f"subject {subject!r} has fewer than 4 scores")
        beta2 = subject_kurtosis(scores)
        if math.isnan(beta2):
            rejected[subject] = "degenerate"
        elif 2.0 <= beta2 <= 4.0:
            kept.append(subject)
        else:
            rejected[subject] = f"beta2={beta2:.4f}"
    return ScreeningResult(kept=kept, rejected=rejected)


def compute_mos(
    ratings: RatingMatrix,
    kept_subjects: Sequence[str],
    min_scores: int = 16,
) -> dict[str, float]:
    """Arithmetic mean of kept scores per stimulus.

    Stimuli retaining fewer than `min_scores` ratings log a warning (desk
    scale rarely reaches the recommended count); zero kept scores is an error.
    """
    per_stimulus = ratings.by_stimulus(set(kept_subjects))
    all_stimuli = {r.stimulus_id for r in ratings.ratings}
    missing = sorted(all_stimuli - set(per_stimulus))
    if missing:
        raise ValueError(f"stimuli with zero kept scores: {missing[:5]}")
    mos = {}
    below = 0
    for stim, scores in per_stimulus.items():
        if len(scores) < min_scores:
            below += 1
        mos[stim] = float(scores.mean())
    if below:
        log.warning("%d stimuli have fewer than %d kept scores", below, min_scores)
    return mos


# ---------------------------------------------------------------------------
# Best-metric selection
# ---------------------------------------------------------------------------


def select_best_metric(
    scores_by_type: Mapping[int, Mapping[str, Sequence[float]]],
    mos_by_type: Mapping[int, Sequence[float]],
) -> dict[int, str]:
    """Per distortion type, the metric with maximal SROCC against MOS.

    Ties break on PLCC, then on canonical metric order. Metrics with fewer
    than 3 samples or degenerate score vectors are excluded.
    """
    selection: dict[int, str] = {}
    for did in sorted(scores_by_type):
        mos = np.asarray(mos_by_type[did], dtype=np.float64)
        best = None
        for metric in sorted(scores_by_type[did], key=metric_order_key):
            vec = np.asarray(scores_by_type[did][metric], dtype=np.float64)
            if len(vec) != len(mos):
                raise ValueError(
                    f"type {did}: metric {metric} has {len(vec)} samples vs {len(mos)} MOS")
            if len(vec) < 3:
                continue
            try:
                s = srocc(mos, vec)
                p = plcc(mos, vec)
            except DegenerateCorrelationError:
                continue
            key = (s, p)
            if best is None or key > best[0]:
                best = (key, metric)
        if best is None:
            raise ValueError(f"no applicable metric for distortion type {did}")
        selection[did] = best[1]
    return selection


# ---------------------------------------------------------------------------
# Nonlinear regression
# ---------------------------------------------------------------------------

_PARAM_COUNT = {"logistic4": 4, "logistic5": 5, "cubic4": 4}


@dataclass(frozen=True)
class RegressionModel:
    kind: str
    params: tuple[float, ...]
    rmse: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.kind not in _PARAM_COUNT:
            raise ValueError(f"unknown regression kind '{self.kind}'")
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind} expects {_PARAM_COUNT[self.kind]} params, got {len(self.params)}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("parameters must be finite")


def _eval_kind(kind: str, params: np.ndarray, qs: np.ndarray) -> np.ndarray:
    if kind == "logistic4":
        b1, b2, b3, b4 = params.tolist()
        z = np.minimum(np.maximum(-(qs - b3) / abs(b4), -700.0), 700.0)
        return (b1 - b2) / (1.0 + np.exp(z)) + b2
    if kind == "logistic5":
        b1, b2, b3, b4, b5 = params.tolist()
        z = np.minimum(np.maximum(b2 * (qs - b3), -700.0), 700.0)
        return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * qs + b5
    if kind == "cubic4":
        a, b, c, d = params.tolist()
        return a * qs**3 + b * qs**2 + c * qs + d
    raise ValueError(f"unknown regression kind '{kind}'")


def eval_regression(model: RegressionModel, qs) -> np.ndarray | float:
    """Closed-form evaluation of the fitted curve (no clamping)."""
    arr = np.asarray(qs, dtype=np.float64)
    out = _eval_kind(model.kind, np.asarray(model.params, dtype=np.float64), np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _stable_argsort(values: list[float]) -> list[int]:
    """`np.argsort(values, kind="stable")` of a short list: ascending, ties
    in index order, NaN last."""
    total = sum(values)
    if total == total:  # no NaN, so `<` orders every pair
        return sorted(range(len(values)), key=values.__getitem__)
    return sorted(range(len(values)), key=lambda i: (values[i] != values[i], values[i]))


def nelder_mead(
    f,
    x0: np.ndarray,
    max_iter: int = 10_000,
    xatol: float = 1e-10,
    fatol: float = 1e-12,
) -> tuple[np.ndarray, float, int, bool]:
    """Derivative-free simplex descent (reflection/expansion/contraction/shrink).

    Returns (best point, best value, iterations, converged flag). The
    iteration cap makes the search deterministic; non-convergence returns
    the best point seen so far.

    The simplex is held as lists of Python floats, because on a few
    coordinates NumPy's per-call overhead costs far more than the
    arithmetic. Each float operation is the one the array form
    (`sim[:-1].mean(axis=0)`, `centroid + alpha * (centroid - sim[-1])`,
    ...) performs, in the same order, so the results and the sequence of
    points handed to `f` are bit-identical to it.
    """
    def evaluate(x: list[float]) -> float:
        return float(f(np.array(x)))

    x0 = np.asarray(x0, dtype=np.float64)
    n = len(x0)
    sim = [x0.tolist()]
    for i in range(n):
        y = list(sim[0])
        y[i] = y[i] * 1.05 if y[i] != 0.0 else 0.00025
        sim.append(y)
    fsim = [evaluate(s) for s in sim]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    it = 0
    converged = False
    while it < max_iter:
        order = _stable_argsort(fsim)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
        best, fbest = sim[0], fsim[0]
        # `all(... <= tol)` is False on a NaN, as `np.max(...) <= tol` is
        if (all(abs(v - fbest) <= fatol for v in fsim[1:])
                and all(abs(a - b) <= xatol for s in sim[1:] for a, b in zip(s, best))):
            converged = True
            break
        it += 1
        # row by row, as NumPy reduces over the leading axis
        centroid = best
        for s in sim[1:-1]:
            centroid = [a + b for a, b in zip(centroid, s)]
        centroid = [c / n for c in centroid]
        worst = sim[-1]
        xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        fr = evaluate(xr)
        if fr < fbest:
            xe = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
            fe = evaluate(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            inner = xr if fr < fsim[-1] else worst
            xc = [c + rho * (v - c) for c, v in zip(centroid, inner)]
            fc = evaluate(xc)
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                sim[1:] = [[b + sigma * (v - b) for v, b in zip(s, best)] for s in sim[1:]]
                fsim[1:] = [evaluate(s) for s in sim[1:]]
    # np.argmin: the first NaN if there is one, else the first minimum
    nan = [i for i, v in enumerate(fsim) if v != v]
    i = nan[0] if nan else min(range(n + 1), key=fsim.__getitem__)
    return np.array(sim[i]), fsim[i], it, converged


def _start_points(kind: str, qs: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    tmin, tmax = float(targets.min()), float(targets.max())
    mid = (tmin + tmax) / 2.0
    trange = tmax - tmin
    q25, q50, q75 = (float(np.quantile(qs, p)) for p in (0.25, 0.5, 0.75))
    span = max(float(qs.max() - qs.min()), 1e-6)
    # monotone-linear least squares over (qs, targets)
    design = np.stack([qs, np.ones_like(qs)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, targets, rcond=None)

    if kind == "logistic4":
        w = span / 4.0
        starts = [
            (tmax, tmin, q25, w), (tmax, tmin, q50, w), (tmax, tmin, q75, w),
            (tmin, tmax, q25, w), (tmin, tmax, q50, w), (tmin, tmax, q75, w),
            (tmax, tmin, q50, w / 4.0), (tmin, tmax, q50, w * 2.0),
        ]
    elif kind == "logistic5":
        starts = [
            (0.0, 1.0 / span, q50, slope, intercept),
            (trange, 4.0 / span, q50, 0.0, mid),
            (-trange, 4.0 / span, q50, 0.0, mid),
            (trange, 1.0 / span, q25, slope, intercept),
            (trange, 1.0 / span, q75, slope, intercept),
            (-trange, 1.0 / span, q50, slope, intercept),
            (trange / 2.0, 8.0 / span, q50, slope / 2.0, intercept),
            (0.0, 4.0 / span, q25, slope, intercept),
        ]
    else:  # cubic4; fit_regression checks the kind
        vand = np.stack([qs**3, qs**2, qs, np.ones_like(qs)], axis=1)
        ls, *_ = np.linalg.lstsq(vand, targets, rcond=None)
        starts = [
            tuple(ls),
            (0.0, 0.0, slope, intercept),
            (0.0, 0.0, 0.0, mid),
            tuple(ls * 1.5),
            tuple(ls * 0.5),
            (ls[0], ls[1], ls[2], ls[3] + 0.1 * max(trange, 1.0)),
            (-ls[0], ls[1], ls[2], ls[3]),
            (0.0, ls[1], ls[2], ls[3]),
        ]
    return [np.asarray(s, dtype=np.float64) for s in starts]


def _rmse_objective(kind: str, qs: np.ndarray, targets: np.ndarray):
    """RMSE of the `kind` curve over (qs, targets) as a function of its
    parameters; a non-finite RMSE reads as +inf. Run it under
    `np.errstate(all="ignore")`: the search probes overflowing curves."""
    n = len(targets)

    def objective(params: np.ndarray) -> float:
        d = _eval_kind(kind, params, qs) - targets
        # bit-equal to np.sqrt(np.mean(d**2)): the same pairwise sum over d*d
        rmse = math.sqrt(np.add.reduce(d * d) / n)
        return rmse if math.isfinite(rmse) else math.inf

    return objective


def fit_regression(kind: str, qs: Sequence[float], targets: Sequence[float]) -> RegressionModel:
    """Least-squares fit of the chosen curve form via multi-start simplex descent.

    Eight deterministic starts; the best-RMSE model wins. Non-convergence
    within the iteration cap returns the best-so-far flagged not converged.
    """
    if kind not in _PARAM_COUNT:
        raise ValueError(f"unknown regression kind '{kind}'")
    qs = np.asarray(qs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if qs.shape != targets.shape or qs.ndim != 1:
        raise ValueError("qs and targets must be equal-length vectors")
    if len(qs) < _PARAM_COUNT[kind]:
        raise ValueError(f"need at least {_PARAM_COUNT[kind]} samples for {kind}")
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(targets))):
        raise ValueError("inputs must be finite")

    objective = _rmse_objective(kind, qs, targets)
    best = None
    total_it = 0
    for x0 in _start_points(kind, qs, targets):
        with np.errstate(all="ignore"):
            x, fx, it, conv = nelder_mead(objective, x0)
        total_it += it
        if not np.all(np.isfinite(x)):
            continue
        if best is None or fx < best[1]:
            best = (x, fx, conv)
    if best is None:
        raise RuntimeError("all regression starts diverged")
    x, fx, conv = best
    return RegressionModel(kind=kind, params=tuple(float(v) for v in x),
                           rmse=fx, iterations=total_it, converged=conv)


# ---------------------------------------------------------------------------
# Pseudo-MOS records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnotationRecord:
    degraded_id: str
    distortion_id: int
    level: int
    pseudo_mos: float
    source_metric: str
    mos: float | None = None

    @property
    def annotation_error(self) -> float | None:
        if self.mos is None:
            return None
        return self.mos - self.pseudo_mos


@dataclass(frozen=True)
class ScoredSample:
    degraded_id: str
    distortion_id: int
    level: int
    scores: Mapping[str, float]
    mos: float | None = None


def generate_pseudo_mos(
    fits: Mapping[int, tuple[str, RegressionModel]],
    samples: Sequence[ScoredSample],
    scale: tuple[float, float] = (MOS_MIN, MOS_MAX),
) -> list[AnnotationRecord]:
    """Map each sample's selected-metric score through its type's fitted
    curve; outputs are clamped onto the MOS scale."""
    lo, hi = scale
    records = []
    for s in samples:
        if s.distortion_id not in fits:
            raise ValueError(f"no fitted model for distortion type {s.distortion_id}")
        metric, model = fits[s.distortion_id]
        if metric not in s.scores:
            raise ValueError(
                f"sample {s.degraded_id} lacks a score for selected metric {metric}")
        value = float(eval_regression(model, float(s.scores[metric])))
        records.append(AnnotationRecord(
            degraded_id=s.degraded_id, distortion_id=s.distortion_id, level=s.level,
            pseudo_mos=min(hi, max(lo, value)), source_metric=metric, mos=s.mos))
    return records


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    stddev: float
    q95_abs: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]


def annotation_error_stats(records: Sequence[AnnotationRecord]) -> ErrorStats:
    """Mean / population stddev of (MOS - pseudo MOS), the 95% quantile of
    the absolute error, and a fixed 0.25-wide histogram over [-2.5, 2.5]."""
    errors = np.asarray(
        [r.annotation_error for r in records if r.annotation_error is not None],
        dtype=np.float64)
    if len(errors) < 2:
        raise ValueError("need at least 2 records carrying both labels")
    edges = np.arange(-2.5, 2.5 + 0.25 / 2, 0.25)
    counts, _ = np.histogram(errors, bins=edges)
    return ErrorStats(
        mean=float(errors.mean()),
        stddev=float(errors.std()),
        q95_abs=float(np.quantile(np.abs(errors), 0.95)),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
    )
