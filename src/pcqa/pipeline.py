"""Batch pipeline over reproducible manifests: dataset building, metric
scoring, pseudo-MOS annotation, training, evaluation and reports.

All randomness flows from one dataset seed recorded in the manifest
header; job seeds are derived by hashing (seed, reference, distortion) so
builds are reproducible at any parallelism. The level stays out of the
hash: the distortion generator spawns its per-level streams itself.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

from . import annotate as ann
from . import frmetrics as fr
from .distort import (
    REGISTRY, NATIVE_IDS, AdapterConfig, AdapterError, DistortionError,
    DistortionSpec, apply_distortion,
)
from .pcio import PointCloud, atomic_write, load_ply, save_ply
from .schema import ValidationError, build, check
from .sparsenn import (
    Model, ModelConfig, TrainConfig, TrainSample,
    init_model, load_checkpoint, param_count, predict, save_checkpoint, train,
)

__all__ = [
    "ValidationError", "ManifestRow", "Manifest", "SplitSpec", "Config",
    "job_seed", "cmd_build", "cmd_score", "cmd_annotate", "cmd_train",
    "cmd_eval", "run_ablation", "EvalReport",
    "format_overall_table", "format_pertype_table",
    "format_depth_table", "format_residual_table",
    "RESIDUAL_DESCRIPTIONS",
]

log = logging.getLogger(__name__)

MANIFEST_KIND = "pcqa-manifest"
MANIFEST_VERSION = 1

DistortionId = Annotated[int, (REGISTRY.__contains__, "a REGISTRY id, not an unknown distortion")]
DistortionIds = Annotated[tuple[DistortionId, ...],
                          (lambda ids: len(set(ids)) == len(ids), "a list of distinct ids")]
LabelScale = Annotated[tuple[float, float],
                       (lambda s: s[0] < s[1], "a [min, max] pair, min < max")]


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class ManifestRow:
    sample_id: str
    reference_id: str
    distortion_id: DistortionId
    level: Annotated[int, (lambda l: 1 <= l <= 7, "an int in 1-7")]
    seed: int
    path: str | None = None
    status: Literal["ok", "failed"] = "ok"
    error: str | None = None
    pseudo_mos: float | None = None
    mos: float | None = None
    source_metric: str | None = None
    provenance: dict | None = None

    def __post_init__(self):
        check(self, "manifest row")

    def to_json(self) -> str:
        d = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @property
    def label(self) -> float | None:
        return self.pseudo_mos if self.pseudo_mos is not None else self.mos


class _RowError(ValidationError):
    """A manifest check that fails on `rows[index]`."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass
class Manifest:
    seed: int
    label_scale: LabelScale
    references: dict[str, str]  # reference id -> PLY path
    rows: list[ManifestRow] = field(default_factory=list)

    def __post_init__(self):
        check(self, "manifest")
        seen = set()
        lo, hi = self.label_scale
        for i, row in enumerate(self.rows):
            if row.sample_id in seen:
                raise _RowError(i, f"duplicate sample_id {row.sample_id}")
            seen.add(row.sample_id)
            if row.reference_id not in self.references:
                raise _RowError(i, f"{row.sample_id}: unknown reference {row.reference_id}")
            for label in (row.pseudo_mos, row.mos):
                if label is not None and not lo <= label <= hi:
                    raise _RowError(i, f"{row.sample_id}: label {label} outside scale [{lo}, {hi}]")
            if row.status == "ok" and not row.path:
                raise _RowError(i, f"{row.sample_id}: ok row without a path")

    def header(self) -> dict:
        return {
            "kind": MANIFEST_KIND,
            "version": MANIFEST_VERSION,
            "seed": self.seed,
            "label_scale": list(self.label_scale),
            "psnr_cap": fr.PSNR_CAP_DB,
            "references": dict(sorted(self.references.items())),
        }

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(json.dumps(self.header(), sort_keys=True, separators=(",", ":")) + "\n")
            f.writelines(r.to_json() + "\n" for r in sorted(self.rows, key=lambda r: r.sample_id))

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        try:
            lines = Path(path).read_text().splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if not lines:
            raise ValidationError(f"empty manifest {path}")
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.pop("kind", None) != MANIFEST_KIND:
            raise ValidationError(f"{path} is not a dataset manifest")
        version = header.pop("version", None)
        if version != MANIFEST_VERSION:
            raise ValidationError(f"{path}:1: unsupported manifest version "
                                  f"{version!r} (expected {MANIFEST_VERSION})")
        header.pop("psnr_cap", None)  # recorded for the reader, not a Manifest field
        rows, line_of = [], []
        for i, ln in enumerate(lines[1:], start=2):
            if not ln.strip():
                continue
            try:
                rows.append(build(ManifestRow, json.loads(ln), "manifest row"))
            except ValueError as exc:
                raise ValidationError(f"{path}:{i}: {exc}") from None
            line_of.append(i)
        try:
            return build(cls, {**header, "rows": rows}, "manifest")
        except _RowError as exc:
            raise ValidationError(f"{path}:{line_of[exc.index]}: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}:1: {exc}") from None

    def ok_rows(self) -> list[ManifestRow]:
        return [r for r in self.rows if r.status == "ok"]


def _open_dataset(manifest_path: str | Path) -> tuple[Manifest, Path]:
    """The manifest and the clouds/ beside it, which must hold every ok row's file."""
    manifest_path = Path(manifest_path)
    manifest = Manifest.load(manifest_path)
    clouds_dir = manifest_path.parent / "clouds"
    for row in manifest.ok_rows():
        if not (clouds_dir / row.path).exists():
            raise ValidationError(f"{row.sample_id}: missing file {clouds_dir / row.path}")
    return manifest, clouds_dir


@dataclass(frozen=True)
class SplitSpec:
    """Partition of reference ids; by-reference so content never overlaps."""

    train: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        check(self, "split")
        overlap = set(self.train) & set(self.test)
        if overlap:
            raise ValidationError(f"train/test reference overlap: {sorted(overlap)}")

    @classmethod
    def parse(cls, spec: str, all_refs: list[str]) -> "SplitSpec":
        """Either a JSON file path or an inline 'test=ref1,ref2' rule; every
        id must name one of `all_refs`."""
        if spec.startswith("test="):
            test = tuple(s for s in spec[5:].split(",") if s)
            split = cls(train=tuple(r for r in all_refs if r not in test), test=test)
        else:
            path = Path(spec)
            if not path.exists():
                raise ValidationError(f"split spec file not found: {spec}")
            try:
                d = json.loads(path.read_text())
            except ValueError as exc:
                raise ValidationError(f"{spec}: not a JSON split file ({exc})") from None
            if not (isinstance(d, dict)
                    and all(isinstance(d.get(k), list) for k in ("train", "test"))):
                raise ValidationError(f"{spec}: a split file needs 'train' and 'test' lists")
            split = cls(train=d["train"], test=d["test"])
        for name in ("train", "test"):
            unknown = set(getattr(split, name)) - set(all_refs)
            if unknown:
                raise ValidationError(f"unknown {name} references: {sorted(unknown)}")
        return split


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass
class Config:
    seed: int = 0
    distortions: DistortionIds = NATIVE_IDS
    label_scale: LabelScale = (1.0, 5.0)
    adapters: dict[int, AdapterConfig] = field(default_factory=dict)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check(self, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        return cls.from_dict(_read_json(path))

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        """The config a JSON object describes; unknown keys are rejected at every level."""
        if not isinstance(d, dict):
            raise ValidationError(f"bad config: expected a JSON object, got {type(d).__name__}")
        return build(cls, d, "config")


def load_adapters(path: str | Path) -> dict[int, AdapterConfig]:
    return Config.from_dict({"adapters": _read_json(path)}).adapters


def _read_json(path: str | Path):
    """The JSON value in a UTF-8 file; a file that is neither names itself."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValidationError(f"{path}: {exc}") from None


def job_seed(dataset_seed: int, reference_id: str, distortion_id: int) -> int:
    """Stable 64-bit job key derived from the dataset seed and coordinates.

    The level deliberately stays out of the hash (the distortion generator
    spawns per-level streams itself); this keeps local-distortion anchors
    nested across the levels of one built dataset.
    """
    text = f"{dataset_seed}|{reference_id}|{distortion_id}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _map(worker, tasks: list, jobs: int) -> list:
    """worker over tasks in order, in a pool of `jobs` processes when jobs > 1."""
    if jobs <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    import scipy.spatial  # noqa: F401  once, here: the forked workers inherit it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=4))


@functools.cache
def _load_ref(path: str, normals: bool) -> PointCloud:
    """A reference cloud, read once per worker process, so that its k-d
    tree (`PointCloud.index`) is built at most once per worker and serves
    every sample; with `normals`, with its p2plane normals, estimated once
    over that tree. Build must get the plain cloud: distortions would carry
    the normals along. Pass `normals` positionally: the cache keys
    `f(p, x)` and `f(p, normals=x)` apart."""
    return fr.with_normals(_load_ref(path, False)) if normals else load_ply(path)


def _load_sample(path: str | Path) -> PointCloud:
    """A dataset sample's cloud; a bad file's error names its path."""
    try:
        return load_ply(path)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _build_worker(args: tuple) -> dict:
    ref_path, ref_id, did, level, seed, out_path, adapters = args
    row: dict = {
        "sample_id": Path(out_path).stem, "reference_id": ref_id,
        "distortion_id": did, "level": level, "seed": seed,
    }
    try:
        cloud = _load_ref(ref_path, False)
        spec = DistortionSpec(distortion_id=did, level=level, seed=seed)
        out = apply_distortion(cloud, spec, adapters=adapters)
        save_ply(out, out_path)
        row["status"] = "ok"
        row["path"] = str(Path(out_path).name)
        info = REGISTRY[did]
        if info.category == "external":
            raw = info.param(level)
            params = list(raw) if isinstance(raw, tuple) else [raw]
            row["provenance"] = {"tool": adapters[did].command, "params": params}
    except (DistortionError, AdapterError, OSError, ValueError) as exc:
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_build(
    refs_dir: str | Path,
    out_dir: str | Path,
    config: Config,
    jobs: int = 1,
) -> Manifest:
    """One distorted cloud + manifest row per (reference, distortion, level)."""
    _load_ref.cache_clear()  # a reference file may have changed since the last command
    refs_dir = Path(refs_dir)
    out_dir = Path(out_dir)
    ref_paths = sorted(refs_dir.glob("*.ply"))
    if not ref_paths:
        raise ValidationError(f"no reference PLY files in {refs_dir}")
    clouds_dir = out_dir / "clouds"
    clouds_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    references = {}
    for ref_path in ref_paths:
        ref_id = ref_path.stem
        references[ref_id] = str(ref_path)
        for did in sorted(config.distortions):
            for level in range(1, 8):
                seed = job_seed(config.seed, ref_id, did)
                sample_id = f"{ref_id}__d{did:02d}_l{level}"
                out_path = str(clouds_dir / f"{sample_id}.ply")
                tasks.append((str(ref_path), ref_id, did, level, seed, out_path, config.adapters))

    rows = [ManifestRow(**r) for r in _map(_build_worker, tasks, jobs)]
    failures = [r for r in rows if r.status == "failed"]
    if failures:
        log.warning("%d/%d build jobs failed; first: %s (%s)",
                    len(failures), len(rows), failures[0].sample_id, failures[0].error)
    manifest = Manifest(seed=config.seed, label_scale=config.label_scale,
                        references=references, rows=rows)
    manifest.save(out_dir / "manifest.jsonl")
    return manifest


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _score_worker(args: tuple) -> list[tuple[str, str, str, float]]:
    ref_path, ref_id, degraded_path, degraded_id, metrics = args
    try:
        reference = _load_ref(ref_path, not fr.PLANE_METRICS.isdisjoint(metrics))
    except ValueError as exc:  # build's rows quote _load_ref's message as it is
        raise ValidationError(f"{ref_path}: {exc}") from None
    scores = fr.score_pair(reference, _load_sample(degraded_path), metrics)
    return [(metric, ref_id, degraded_id, value) for metric, value in scores.items()]


def cmd_score(
    manifest_path: str | Path,
    out_csv: str | Path,
    metrics: tuple[str, ...] = fr.BUILTIN_METRICS,
    jobs: int = 1,
) -> int:
    """One score row per applicable (metric, sample); returns the row count."""
    _load_ref.cache_clear()
    manifest, clouds_dir = _open_dataset(manifest_path)
    unknown = [m for m in metrics if m not in fr.BUILTIN_METRICS]
    if unknown:
        raise ValidationError(f"unknown builtin metrics: {unknown}")

    tasks = []
    skipped = 0
    for row in manifest.ok_rows():
        applicable = tuple(m for m in metrics if fr.metric_applicable(m, row.distortion_id))
        skipped += len(metrics) - len(applicable)
        tasks.append((
            manifest.references[row.reference_id], row.reference_id,
            str(clouds_dir / row.path), row.sample_id, applicable))
    scores = sorted(
        (s for chunk in _map(_score_worker, tasks, jobs) for s in chunk),
        key=lambda s: (fr.metric_order_key(s[0]), s[2]))
    with atomic_write(out_csv) as f:
        f.write("metric_name,reference_id,degraded_id,value\n")
        f.writelines(f"{m},{r},{d},{v!r}\n" for m, r, d, v in scores)
    if skipped:
        log.info("skipped %d inapplicable (metric, sample) pairs", skipped)
    return len(scores)


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------


@dataclass
class AnnotateResult:
    manifest: Manifest
    fit_srocc: float
    fit_plcc: float
    holdout_srocc: float | None
    holdout_plcc: float | None
    holdout_refs: tuple[str, ...]
    fit_stats: ann.ErrorStats | None
    holdout_stats: ann.ErrorStats | None
    fits: dict[int, tuple[str, ann.RegressionModel]]  # type -> (metric, curve)
    screening: ann.ScreeningResult


def _write_lines(path: str | Path, lines: list[str]) -> None:
    """Write newline-terminated lines to `path` atomically."""
    with atomic_write(path) as f:
        f.write("\n".join(lines) + "\n")


def _safe_corr(labels: list[float], preds: list[float]) -> tuple[float, float]:
    """(PLCC, SROCC); NaN where a correlation is undefined or too few samples."""
    try:
        p = ann.plcc(labels, preds)
    except (ann.DegenerateCorrelationError, ValueError):
        p = float("nan")
    try:
        s = ann.srocc(labels, preds)
    except (ann.DegenerateCorrelationError, ValueError):
        s = float("nan")
    return p, s


def cmd_annotate(
    manifest_path: str | Path,
    scores_csv: str | Path,
    subjective_csv: str | Path,
    out_manifest: str | Path,
    report_dir: str | Path | None = None,
    holdout_refs: tuple[str, ...] | None = None,
) -> AnnotateResult:
    """Screen subjects, compute MOS, select the best FR metric per
    distortion type, fit the 5-parameter logistic per type and write
    pseudo-MOS for every scored sample. A by-reference holdout of the
    labeled data measures annotation fidelity."""
    manifest = Manifest.load(manifest_path)
    if not Path(subjective_csv).exists():
        raise ValidationError(f"subjective score file not found: {subjective_csv}")
    scores = fr.ingest_external_scores(scores_csv)
    ratings = ann.RatingMatrix.from_csv(subjective_csv, manifest.label_scale)

    screening = ann.screen_subjects(ratings)
    if not screening.kept:
        raise ValidationError("all subjects rejected by screening")
    mos = ann.compute_mos(ratings, screening.kept)

    rows = manifest.ok_rows()
    known = {r.sample_id for r in rows}
    orphan = sorted(set(mos) - known)
    if orphan:
        raise ValidationError(f"subjective stimuli missing from manifest: {orphan[:5]}")
    labeled = [r for r in rows if r.sample_id in mos]
    labeled_refs = sorted({r.reference_id for r in labeled})
    if holdout_refs is None:
        n_hold = len(labeled_refs) // 4 if len(labeled_refs) > 1 else 0
        holdout_refs = tuple(labeled_refs[len(labeled_refs) - n_hold:])
    else:
        unknown = set(holdout_refs) - set(labeled_refs)
        if unknown:
            raise ValidationError(f"holdout references carry no labels: {sorted(unknown)}")
    holdout_set = set(holdout_refs)
    fit_rows = [r for r in labeled if r.reference_id not in holdout_set]

    present_types = sorted({r.distortion_id for r in rows})
    n_fit = Counter(r.distortion_id for r in fit_rows)
    need = ann._PARAM_COUNT["logistic5"]
    short = {d: n_fit[d] for d in present_types if n_fit[d] < need}
    if short:
        raise ValidationError(f"distortion types without labeled fit samples, or with "
                              f"fewer than {need} (type: count): {short}")

    # per type, the fit rows' MOS and each metric that scores every one of them
    metric_names = sorted({m for m, _ in scores}, key=fr.metric_order_key)
    scores_by_type: dict[int, dict[str, list[float]]] = {}
    mos_by_type: dict[int, list[float]] = {}
    for did in present_types:
        type_rows = sorted((r for r in fit_rows if r.distortion_id == did),
                           key=lambda r: r.sample_id)
        columns = {m: [scores.get((m, r.sample_id)) for r in type_rows] for m in metric_names}
        table = {m: vals for m, vals in columns.items() if None not in vals}
        if not table:
            raise ValidationError(f"no scored metric covers distortion type {did}")
        scores_by_type[did] = table
        mos_by_type[did] = [mos[r.sample_id] for r in type_rows]

    selection = ann.select_best_metric(scores_by_type, mos_by_type)
    models = ann.fit_regressions("logistic5", [
        (scores_by_type[did][selection[did]], mos_by_type[did]) for did in present_types])
    fits = {did: (selection[did], model) for did, model in zip(present_types, models)}

    pseudo: dict[str, float] = {}
    for r in rows:
        metric, model = fits[r.distortion_id]
        if (metric, r.sample_id) not in scores:
            raise ValidationError(
                f"{r.sample_id}: no score for selected metric {metric}")
        pseudo[r.sample_id] = ann.generate_pseudo_mos(
            model, scores[(metric, r.sample_id)], manifest.label_scale)
        r.pseudo_mos = round(pseudo[r.sample_id], 10)
        r.source_metric = metric
        if r.sample_id in mos:
            r.mos = round(mos[r.sample_id], 10)
    manifest.save(out_manifest)

    def fidelity(subset):
        """(PLCC, SROCC, error stats) of the pseudo-MOS over labeled rows."""
        labels = [mos[r.sample_id] for r in subset]
        preds = [pseudo[r.sample_id] for r in subset]
        errors = [m - p for m, p in zip(labels, preds)]
        stats = (ann.annotation_error_stats(errors, manifest.label_scale)
                 if len(errors) >= 2 else None)
        return (*_safe_corr(labels, preds), stats)

    fit_plcc, fit_srocc, fit_stats = fidelity(fit_rows)
    hold_rows = [r for r in labeled if r.reference_id in holdout_set]
    if hold_rows:
        holdout_plcc, holdout_srocc, holdout_stats = fidelity(hold_rows)
    else:
        log.warning("no holdout references; holdout report degenerates to the fit set")
        holdout_srocc = holdout_plcc = None
        holdout_stats = None

    result = AnnotateResult(
        manifest=manifest, fit_srocc=fit_srocc, fit_plcc=fit_plcc,
        holdout_srocc=holdout_srocc, holdout_plcc=holdout_plcc,
        holdout_refs=tuple(holdout_refs), fit_stats=fit_stats,
        holdout_stats=holdout_stats, fits=fits, screening=screening)
    if report_dir is not None:
        _write_annotate_reports(Path(report_dir), result, scores_by_type, mos_by_type)
    return result


def _write_annotate_reports(report_dir, result, scores_by_type, mos_by_type):
    report_dir.mkdir(parents=True, exist_ok=True)
    lines = ["distortion_id,name,metric,srocc,plcc"]
    txt = [f"{'id':>3} {'type':<28} {'metric':<12} {'SROCC':>10} {'PLCC':>10}"]
    for did, (metric, _) in sorted(result.fits.items()):
        s = ann.srocc(mos_by_type[did], scores_by_type[did][metric])
        p = ann.plcc(mos_by_type[did], scores_by_type[did][metric])
        name = REGISTRY[did].name
        lines.append(f"{did},{name},{metric},{s!r},{p!r}")
        txt.append(f"{did:>3} {name:<28} {metric:<12} {s:>10.6f} {p:>10.6f}")
    _write_lines(report_dir / "selection.csv", lines)
    _write_lines(report_dir / "selection.txt", txt)

    rep = ["pseudo-MOS fidelity (95% quantile is of absolute errors)"]
    rep.append(f"fit set     : SROCC {result.fit_srocc:.6f}  PLCC {result.fit_plcc:.6f}")
    if result.holdout_srocc is not None:
        rep.append(
            f"holdout set : SROCC {result.holdout_srocc:.6f}  PLCC {result.holdout_plcc:.6f}"
            f"  (references: {', '.join(result.holdout_refs)})")
    else:
        rep.append("holdout set : EMPTY (all labeled references used in the fit)")
    for tag, stats in (("fit", result.fit_stats), ("holdout", result.holdout_stats)):
        if stats is not None:
            rep.append(f"{tag} errors  : mean {stats.mean:.4f}  stddev {stats.stddev:.4f}"
                       f"  q95|e| {stats.q95_abs:.4f}")
    rep.append("")
    rep.append("curve fits (iterations summed over the simplex starts; converged is "
               "that of the best start; starts_converged counts the starts that "
               "converged within the iteration cap)")
    rep.append(f"{'id':>3} {'metric':<12} {'kind':<10} {'iterations':>10} "
               f"{'converged':>9} {'rmse':>10} {'starts_converged':>16}")
    for did, (metric, model) in sorted(result.fits.items()):
        starts = f"{sum(model.starts_converged)}/{len(model.starts_converged)}"
        rep.append(f"{did:>3} {metric:<12} {model.kind:<10} {model.iterations:>10} "
                   f"{'yes' if model.converged else 'NO':>9} {model.rmse:>10.6f} "
                   f"{starts:>16}")
    screening = result.screening
    n_subjects = len(screening.kept) + len(screening.rejected)
    rep.append("")
    rep.append(f"subject screening: kept {len(screening.kept)} of {n_subjects}, "
               f"rejected {len(screening.rejected)}")
    for subject, reason in sorted(screening.rejected.items()):
        rep.append(f"  rejected {subject}: {reason}")
    _write_lines(report_dir / "annotation_report.txt", rep)

    if result.fit_stats is not None:
        hist = ["bin_left,bin_right,count"]
        stats = result.fit_stats
        for i, c in enumerate(stats.hist_counts):
            hist.append(f"{stats.hist_edges[i]!r},{stats.hist_edges[i + 1]!r},{c}")
        _write_lines(report_dir / "annotation_errors.csv", hist)


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def _split_rows(manifest: Manifest, refs: tuple[str, ...], stage: str) -> list[ManifestRow]:
    """The ok rows of the split's references, by sample_id; each must carry a label."""
    rows = sorted((r for r in manifest.ok_rows() if r.reference_id in refs),
                  key=lambda r: r.sample_id)
    if not rows:
        raise ValidationError(f"{stage} split is empty")
    for row in rows:
        if row.label is None:
            raise ValidationError(f"{row.sample_id}: no label for {stage}")
    return rows


def cmd_train(
    manifest_path: str | Path,
    split: SplitSpec,
    model_config: ModelConfig,
    train_config: TrainConfig,
    out_checkpoint: str | Path,
    loss_csv: str | Path | None = None,
) -> Model:
    manifest, clouds_dir = _open_dataset(manifest_path)
    samples = [TrainSample(sample_id=r.sample_id, label=float(r.label),
                           cloud=_load_sample(clouds_dir / r.path))
               for r in _split_rows(manifest, split.train, "training")]
    model = init_model(model_config, seed=train_config.seed)
    log.info("training %d samples, %d parameters", len(samples), param_count(model))
    result = train(model, samples, train_config)
    save_checkpoint(model, out_checkpoint)
    if loss_csv is not None:
        lines = ["step,epoch,lr,loss"]
        lines += [f"{p.step},{p.epoch},{p.lr!r},{p.loss!r}" for p in result.losses]
        _write_lines(loss_csv, lines)
    return model


@dataclass
class EvalReport:
    overall_plcc: float
    overall_srocc: float
    per_type: dict[int, tuple[float, float]]  # did -> (plcc, srocc)
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "overall": {"plcc": self.overall_plcc, "srocc": self.overall_srocc,
                        "n": self.n_samples},
            "per_type": {str(k): {"plcc": v[0], "srocc": v[1]}
                         for k, v in sorted(self.per_type.items())},
        }


def cmd_eval(
    manifest_path: str | Path,
    split: SplitSpec,
    checkpoint_path: str | Path,
    out_dir: str | Path,
    model_config: ModelConfig | None = None,
) -> EvalReport:
    """Predict the test split and report PLCC/SROCC overall and per type."""
    manifest, clouds_dir = _open_dataset(manifest_path)
    model = load_checkpoint(checkpoint_path)
    if model_config is not None and model_config != model.config:
        raise ValidationError("checkpoint/config mismatch")
    test_rows = _split_rows(manifest, split.test, "evaluation")
    labels, preds, types = [], [], []
    pred_lines = ["sample_id,distortion_id,level,label,prediction"]
    for row in test_rows:
        q = predict(model, _load_sample(clouds_dir / row.path))
        labels.append(float(row.label))
        preds.append(q)
        types.append(row.distortion_id)
        pred_lines.append(
            f"{row.sample_id},{row.distortion_id},{row.level},{row.label!r},{q!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once every test cloud has loaded
    _write_lines(out_dir / "predictions.csv", pred_lines)

    overall_plcc, overall_srocc = _safe_corr(labels, preds)
    per_type = {}
    for did in sorted(set(types)):
        sel = [i for i, t in enumerate(types) if t == did]
        per_type[did] = _safe_corr([labels[i] for i in sel], [preds[i] for i in sel])
    report = EvalReport(overall_plcc=overall_plcc, overall_srocc=overall_srocc,
                        per_type=per_type, n_samples=len(labels))
    _write_lines(out_dir / "eval_report.json",
                 [json.dumps(report.to_dict(), sort_keys=True, indent=2)])
    _write_lines(out_dir / "eval_report.txt",
                 [format_overall_table([("model", overall_plcc, overall_srocc)]),
                  format_pertype_table(per_type)])
    return report


# ---------------------------------------------------------------------------
# report formatting (plain text tables + CSV)
# ---------------------------------------------------------------------------


def _cell(x: float) -> str:
    return "NaN" if math.isnan(x) else f"{x:.4f}"


def _table(header: str, rows) -> str:
    """A label column as wide as `header`, then PLCC and SROCC columns."""
    out = [f"{header} {'PLCC':>8} {'SROCC':>8}"]
    out += [f"{label:<{len(header)}} {_cell(p):>8} {_cell(s):>8}" for label, p, s in rows]
    return "\n".join(out)


def format_overall_table(rows: list[tuple[str, float, float]]) -> str:
    """Overall metric performance: one row per metric, PLCC and SROCC columns."""
    return _table(f"{'metric':<24}", rows)


def format_pertype_table(per_type: dict[int, tuple[float, float]]) -> str:
    """Per-distortion-type breakdown, one row per type."""
    return _table(f"{'id':>3} {'distortion':<32}",
                  [(f"{did:>3} {REGISTRY[did].name}", *per_type[did]) for did in sorted(per_type)])


def format_depth_table(results: dict[int, tuple[float, float]]) -> str:
    """Network-depth ablation: columns per block count, PLCC/SROCC rows."""
    depths = sorted(results)
    header = f"{'':<8}" + "".join(f"{f'{d} block' + ('s' if d > 1 else ''):>12}" for d in depths)
    plcc_row = f"{'PLCC':<8}" + "".join(f"{_cell(results[d][0]):>12}" for d in depths)
    srocc_row = f"{'SROCC':<8}" + "".join(f"{_cell(results[d][1]):>12}" for d in depths)
    return "\n".join([header, plcc_row, srocc_row])


RESIDUAL_DESCRIPTIONS = {
    "A": "Without residual connection",
    "B": "1, 2-layers residual connection",
    "C": "1, 3-layers residual connection",
    "D": "2, 3-layers residual connection",
}


def format_residual_table(results: dict[str, tuple[float, float]]) -> str:
    """Residual-scheme ablation: one row per variant."""
    return _table(f"{'variant':<41}",
                  [(f"{v}: {RESIDUAL_DESCRIPTIONS[v]}", *results[v]) for v in sorted(results)])


# ablation kind -> (ModelConfig field it varies, its values, report table)
_ABLATIONS = {
    "depth": ("blocks", range(1, 6), format_depth_table),
    "residual": ("residual", "ABCD", format_residual_table),
}


def run_ablation(
    manifest_path: str | Path,
    split: SplitSpec,
    base_model: ModelConfig,
    train_config: TrainConfig,
    kind: str,
    out_dir: str | Path,
) -> dict:
    """Train/eval once per configuration in the ablation axis and emit the
    depth- or residual-shaped report (CSV + aligned text)."""
    if kind not in _ABLATIONS:
        raise ValidationError(f"unknown ablation kind '{kind}'")
    field_name, values, table = _ABLATIONS[kind]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for key in values:
        cfg = dataclasses.replace(base_model, **{field_name: key})
        ckpt = out_dir / f"ablation_{kind}_{key}.ckpt"
        cmd_train(manifest_path, split, cfg, train_config, ckpt)
        report = cmd_eval(manifest_path, split, ckpt, out_dir / f"eval_{kind}_{key}")
        results[key] = (report.overall_plcc, report.overall_srocc)

    _write_lines(out_dir / f"ablation_{kind}.txt", [table(results)])
    lines = ["config,plcc,srocc"]
    lines += [f"{k},{results[k][0]!r},{results[k][1]!r}" for k in sorted(results)]
    _write_lines(out_dir / f"ablation_{kind}.csv", lines)
    return results
