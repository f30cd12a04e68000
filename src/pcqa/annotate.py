"""Statistics core: MOS with kurtosis screening, rank correlations,
per-distortion-type metric selection, nonlinear score regression, and
pseudo-MOS generation with annotation-error reporting.

Correlations, ranks, kurtosis and the simplex optimizer are implemented
from first principles; the test suite validates them against independent
oracles.
"""

from __future__ import annotations

import itertools
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
    "RegressionModel", "fit_regression", "fit_regressions", "eval_regression", "nelder_mead",
    "generate_pseudo_mos",
    "ErrorStats", "annotation_error_stats",
    "MOS_MIN", "MOS_MAX",
]

log = logging.getLogger(__name__)

MOS_MIN, MOS_MAX = 1.0, 5.0
MIN_KEPT_SCORES = 16  # ratings per stimulus below which compute_mos warns

# the simplex search stops after MAX_ITER iterations per start, or once its
# vertices lie within XATOL and their values within FATOL of the best one
MAX_ITER, XATOL, FATOL = 10_000, 1e-10, 1e-12
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float


class DegenerateCorrelationError(ValueError):
    """Raised when a correlation is undefined (zero variance input)."""


# ---------------------------------------------------------------------------
# Correlations
# ---------------------------------------------------------------------------


def plcc(p: Sequence[float], q: Sequence[float]) -> float:
    """Pearson linear correlation coefficient of two finite vectors, of any
    magnitude from the smallest normal float to the largest."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(p) < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("inputs must be finite")
    # before the sums: the mean of a constant vector can round away from its value
    if p.min() == p.max() or q.min() == q.max():
        raise DegenerateCorrelationError("undefined correlation")
    with np.errstate(all="ignore"):
        pc = p - p.mean()
        qc = q - q.mean()
        ssp = float((pc * pc).sum())
        ssq = float((qc * qc).sum())
    if not all(_TINY <= v < math.inf for v in (ssp, ssq, ssp * ssq)):
        # a sum of squares or their product left the normal floats: the
        # scaled copies in [-1, 1] of non-constant vectors keep them there
        return plcc(p / np.abs(p).max(), q / np.abs(q).max())
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


def compute_mos(ratings: RatingMatrix, kept_subjects: Sequence[str]) -> dict[str, float]:
    """Arithmetic mean of kept scores per stimulus.

    Stimuli retaining fewer than MIN_KEPT_SCORES ratings log a warning (desk
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
        if len(scores) < MIN_KEPT_SCORES:
            below += 1
        mos[stim] = float(scores.mean())
    if below:
        log.warning("%d stimuli have fewer than %d kept scores", below, MIN_KEPT_SCORES)
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
    starts_converged: tuple[bool, ...] = ()  # each simplex start's flag, in start order

    def __post_init__(self):
        if self.kind not in _PARAM_COUNT:
            raise ValueError(f"unknown regression kind '{self.kind}'")
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind} expects {_PARAM_COUNT[self.kind]} params, got {len(self.params)}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("parameters must be finite")


def _eval_kind(kind: str, params: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The `kind` curve at `qs`: for one parameter vector, or for an (m, k)
    stack of them, row i evaluated at row i of an (m, n) `qs`."""
    cols = params.T[..., None]  # one coefficient each, broadcast along the samples
    if kind == "logistic4":
        b1, b2, b3, b4 = cols
        z = np.minimum(np.maximum(-(qs - b3) / abs(b4), -700.0), 700.0)
        return (b1 - b2) / (1.0 + np.exp(z)) + b2
    if kind == "logistic5":
        b1, b2, b3, b4, b5 = cols
        z = np.minimum(np.maximum(b2 * (qs - b3), -700.0), 700.0)
        return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * qs + b5
    if kind == "cubic4":
        a, b, c, d = cols
        return a * qs**3 + b * qs**2 + c * qs + d
    raise ValueError(f"unknown regression kind '{kind}'")


def eval_regression(model: RegressionModel, qs) -> np.ndarray | float:
    """Closed-form evaluation of the fitted curve (no clamping)."""
    arr = np.asarray(qs, dtype=np.float64)
    out = _eval_kind(model.kind, np.asarray(model.params, dtype=np.float64), np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _record(results: list, ids: np.ndarray, sim: np.ndarray, fsim: np.ndarray,
            it: int, converged: bool) -> None:
    """Store each search's np.argmin vertex (the first NaN, else the first minimum)."""
    for r, vertices, values, best in zip(ids, sim, fsim, np.argmin(fsim, axis=1)):
        results[r] = (vertices[best], float(values[best]), it, converged)


def _simplex_batch(x0s, score,
                   max_iter: int = MAX_ITER) -> list[tuple[np.ndarray, float, int, bool]]:
    """Derivative-free simplex descent (reflection/expansion/contraction/shrink)
    from each row of the (R, n) starts `x0s`, returning (best point, best
    value, iterations, converged flag) per start.

    The R simplices are one (R, n+1, n) array and their values one (R, n+1)
    array; each loop pass is one iteration of every live search.
    `score(rows, points)` returns an array of the objective at each of the
    (m, n) `points`, point i belonging to search `rows[i]` (ascending). A
    pass calls it once for all reflections, once for the expansion or
    contraction points that are needed and, if a search shrinks, once for
    all shrunk vertices. Every float operation is the one a single search
    on NumPy arrays performs (`sim[:-1].mean(axis=0)`, `centroid + alpha *
    (centroid - sim[-1])`, ...), so each search's result and the points it
    has scored, in order, are bit-identical to that search run alone.
    """
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2 or x0s.shape[1] == 0:
        raise ValueError(f"starts must be an (R, n) array with n >= 1, got shape {x0s.shape}")
    R, n = x0s.shape
    firsts = np.arange(0, R * (n + 1), n + 1)[:, None]  # each simplex's first flat row
    sim = np.repeat(x0s[:, None], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] = np.where(x0s != 0.0, x0s * 1.05, 0.00025)
    ids = np.arange(R)  # the live searches, ascending
    fsim = score(np.repeat(ids, n + 1), sim.reshape(-1, n)).reshape(R, n + 1)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    results: list = [None] * R
    it = 0
    # every live search started together, so all of them reach the cap at once
    while len(ids) and it < max_iter:
        # a stable sort of each row, NaN last, gathered through flat indices
        rows = (fsim.argsort(axis=1, kind="stable") + firsts).ravel()
        sim = sim.reshape(-1, n).take(rows, axis=0).reshape(sim.shape)
        fsim = fsim.take(rows).reshape(fsim.shape)
        # `max(...) <= tol` is False on a NaN
        done = np.abs(fsim[:, 1:] - fsim[:, :1]).max(axis=1) <= FATOL
        if np.count_nonzero(done):
            done &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= XATOL
        if np.count_nonzero(done):
            _record(results, ids[done], sim[done], fsim[done], it, True)
            keep = ~done
            ids, sim, fsim = ids[keep], sim[keep], fsim[keep]
            firsts = firsts[:len(ids)]
            if not len(ids):
                break
        it += 1
        # row by row, as NumPy reduces over the leading axis
        centroid = sim[:, 0].copy()
        for j in range(1, n):
            centroid += sim[:, j]
        centroid /= n
        worst, fworst = sim[:, -1], fsim[:, -1]
        xr = centroid + alpha * (centroid - worst)
        fr = score(ids, xr)
        expand = fr < fsim[:, 0]
        contract = ~(expand | (fr < fsim[:, -2]))
        # expansion toward xr, or contraction toward xr or the worst vertex
        toward = np.where((expand | (fr < fworst))[:, None], xr, worst)
        x2 = centroid + np.where(expand, gamma, rho)[:, None] * (toward - centroid)
        f2 = fr.copy()
        tried = (expand | contract).nonzero()[0]
        if len(tried):
            f2[tried] = score(ids.take(tried), x2.take(tried, axis=0))
        # `min(fr, fworst)` with Python's NaN semantics; an accepted
        # reflection has f2 = fr <= fworst, so it takes nothing here
        take = f2 < np.where(fworst < fr, fworst, fr)
        shrink = contract & ~take
        sim[:, -1] = np.where(take[:, None], x2, np.where(shrink[:, None], worst, xr))
        fsim[:, -1] = np.where(take, f2, fr)
        if np.count_nonzero(shrink):
            base = sim[shrink, :1]
            points = base + sigma * (sim[shrink, 1:] - base)
            sim[shrink, 1:] = points
            fsim[shrink, 1:] = score(np.repeat(ids[shrink], n),
                                     points.reshape(-1, n)).reshape(-1, n)
    _record(results, ids, sim, fsim, it, False)
    return results


def nelder_mead(f, x0: np.ndarray,
                max_iter: int = MAX_ITER) -> tuple[np.ndarray, float, int, bool]:
    """Minimise the scalar function `f` by simplex descent from `x0`.

    Returns (best point, best value, iterations, converged flag). The
    iteration cap makes the search deterministic; non-convergence returns
    the best point seen so far. This is `_simplex_batch` on one start,
    calling `f` on each point in turn; `fit_regressions` runs many starts
    in one `_simplex_batch` call with an array objective, with the same
    results.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or not len(x0):
        raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {x0.shape}")
    [result] = _simplex_batch(
        x0[None], lambda _, points: np.array([float(f(x)) for x in points]), max_iter)
    return result


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
        with np.errstate(over="ignore"):
            vand = np.stack([qs**3, qs**2, qs, np.ones_like(qs)], axis=1)
        if not np.all(np.isfinite(vand)):  # lstsq does not return on an inf matrix
            raise ValueError(f"cubic4: the largest |score| {float(np.abs(qs).max()):g} "
                             f"overflows float64 when cubed")
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


def _rmse_rows(kind: str, params: np.ndarray, qs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """RMSE of the `kind` curve of each row of `params` over the same row of
    `qs` and `targets`; a non-finite RMSE reads as +inf. Each row is reduced
    on its own, with the pairwise sum a 1-D reduction of its length
    performs, so it is bit-equal to `np.sqrt(np.mean(d**2))` of that row.
    Run it under `np.errstate(all="ignore")`: the search probes overflowing
    curves."""
    d = _eval_kind(kind, params, qs) - targets
    rmse = np.sqrt(np.add.reduce(d * d, axis=1) / qs.shape[1])
    rmse[~np.isfinite(rmse)] = np.inf
    return rmse


def _checked_problem(kind: str, qs: Sequence[float],
                     targets: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    qs = np.asarray(qs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if qs.shape != targets.shape or qs.ndim != 1:
        raise ValueError("qs and targets must be equal-length vectors")
    if len(qs) < _PARAM_COUNT[kind]:
        raise ValueError(f"need at least {_PARAM_COUNT[kind]} samples for {kind}")
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(targets))):
        raise ValueError("inputs must be finite")
    return qs, targets


def fit_regressions(
    kind: str,
    problems: Sequence[tuple[Sequence[float], Sequence[float]]],
) -> list[RegressionModel]:
    """`fit_regression` of each (qs, targets) problem, all in one lockstep search.

    Every start of every problem is one row of a single `_simplex_batch`
    call. Its objective scores the points of each pass with one
    `_rmse_rows` call per sample count, over (qs, targets) stacks built
    once with a row per search (rows are never padded: padding would
    change the pairwise sums), so each model is bit-identical to the best
    of its starts run one by one through `nelder_mead` on its RMSE.
    """
    if kind not in _PARAM_COUNT:
        raise ValueError(f"unknown regression kind '{kind}'")
    checked = [_checked_problem(kind, qs, targets) for qs, targets in problems]
    # one search per (problem, start); problems go in order of sample count,
    # so that the searches of one sample count are the ids [lo, hi)
    owner, starts = [], []
    for p in sorted(range(len(checked)), key=lambda p: len(checked[p][0])):
        x0s = _start_points(kind, *checked[p])
        owner += [p] * len(x0s)
        starts += x0s
    # per sample count: (lo, qs stack, targets stack), a row per search
    groups = []
    for _, run in itertools.groupby(enumerate(owner), key=lambda rp: len(checked[rp[1]][0])):
        run = list(run)
        qs, targets = (np.stack(column) for column in zip(*(checked[p] for _, p in run)))
        groups.append((run[0][0], qs, targets))
    bounds = [lo for lo, _, _ in groups] + [len(owner)]

    def score(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
        values = np.empty(len(rows))
        cuts = rows.searchsorted(bounds)
        for (lo, qs, targets), a, b in zip(groups, cuts, cuts[1:]):
            local = rows[a:b] - lo
            values[a:b] = _rmse_rows(kind, points[a:b], qs.take(local, axis=0),
                                     targets.take(local, axis=0))
        return values

    with np.errstate(all="ignore"):
        results = _simplex_batch(np.reshape(starts, (-1, _PARAM_COUNT[kind])), score)
    per_problem: list[list] = [[] for _ in checked]
    for p, result in zip(owner, results):
        per_problem[p].append(result)
    models = []
    for runs in per_problem:
        finite = [run for run in runs if np.all(np.isfinite(run[0]))]
        if not finite:
            raise RuntimeError("all regression starts diverged")
        x, fx, _, conv = min(finite, key=lambda run: run[1])  # the first best
        models.append(RegressionModel(
            kind=kind, params=tuple(float(v) for v in x), rmse=fx,
            iterations=sum(it for _, _, it, _ in runs), converged=conv,
            starts_converged=tuple(c for _, _, _, c in runs)))
    return models


def fit_regression(kind: str, qs: Sequence[float], targets: Sequence[float]) -> RegressionModel:
    """Least-squares fit of the chosen curve form via multi-start simplex descent.

    Eight deterministic starts; the best-RMSE model wins. Non-convergence
    within the iteration cap returns the best-so-far flagged not converged.
    """
    return fit_regressions(kind, [(qs, targets)])[0]


# ---------------------------------------------------------------------------
# Pseudo-MOS
# ---------------------------------------------------------------------------


def generate_pseudo_mos(
    model: RegressionModel, q: float, scale: tuple[float, float] = (MOS_MIN, MOS_MAX),
) -> float:
    """Map one selected-metric score through its type's fitted curve,
    clamped onto the MOS scale."""
    lo, hi = scale
    return min(hi, max(lo, float(eval_regression(model, q))))


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    stddev: float
    q95_abs: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]


def annotation_error_stats(
    errors: Sequence[float], scale: tuple[float, float] = (MOS_MIN, MOS_MAX),
) -> ErrorStats:
    """Mean / population stddev of the (MOS - pseudo MOS) errors, the 95%
    quantile of the absolute error, and a 20-bin histogram over [-2.5, 2.5]
    on the [1, 5] scale, widened by (hi - lo) / 4 on another scale; errors
    past the outer edges count in the outer bins."""
    errors = np.asarray(errors, dtype=np.float64)
    if len(errors) < 2:
        raise ValueError("need at least 2 errors")
    lo, hi = scale
    edges = np.arange(-2.5, 2.5 + 0.25 / 2, 0.25) * ((hi - lo) / 4)
    counts, _ = np.histogram(np.clip(errors, edges[0], edges[-1]), bins=edges)
    return ErrorStats(
        mean=float(errors.mean()),
        stddev=float(errors.std()),
        q95_abs=float(np.quantile(np.abs(errors), 0.95)),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
    )
