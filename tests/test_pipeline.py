import contextlib
import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from pcqa import frmetrics as fr
from pcqa import pcio
from pcqa import pipeline as pl
from pcqa.cli import main as cli_main
from pcqa.distort import AdapterConfig, DistortionSpec, apply_distortion
from pcqa.pcio import PointCloud, load_ply, save_ply
from pcqa.sparsenn import ModelConfig, TrainConfig, init_model, save_checkpoint

from conftest import grid_cloud, textured_ref

TINY_MODEL = {"blocks": 1, "width": 6, "fc_hidden": 4}
TINY_TRAIN = {"lr": 0.02, "lr_decay": 1.0, "accum": 2, "epochs": 3, "seed": 0,
              "scale_range": [1.0, 1.0], "rotation_range": [0.0, 0.0]}


@pytest.fixture
def refs_dir(tmp_path):
    d = tmp_path / "refs"
    d.mkdir()
    rng = np.random.default_rng(77)
    for i in range(2):
        save_ply(grid_cloud(rng, n=250, extent=50), d / f"ref{i}.ply")
    return d


def build_dataset(tmp_path, refs_dir, distortions=(5, 11, 17), seed=3, jobs=1):
    cfg = pl.Config(seed=seed, distortions=distortions)
    out = tmp_path / "ds"
    manifest = pl.cmd_build(refs_dir, out, cfg, jobs=jobs)
    return out, manifest


def read_csv(path):
    """The rows of a headed CSV, read with the file closed again."""
    return list(csv.DictReader(Path(path).read_text().splitlines()))


def plant_ratings(manifest, path, noise=0.55, n_subjects=18, seed=5):
    # hidden monotone function of level plus noise; the score range and
    # noise keep honest subjects inside the beta2 in [2, 4] screening band
    r = np.random.default_rng(seed)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(n_subjects):
            bias = r.uniform(-0.15, 0.15)
            for row in manifest.ok_rows():
                base = 4.2 - 2.6 * (row.level - 1) / 6
                w.writerow([row.sample_id, f"subj{subj:02d}",
                            f"{np.clip(base + bias + r.normal(0, noise), 1, 5):.3f}"])


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def test_build_combinatorics(tmp_path, refs_dir):
    _, manifest = build_dataset(tmp_path, refs_dir)
    assert len(manifest.rows) == 2 * 3 * 7  # refs x distortions x levels
    assert all(r.status == "ok" for r in manifest.rows)
    ids = [r.sample_id for r in manifest.rows]
    assert len(set(ids)) == len(ids)


def test_manifest_roundtrip_and_validation(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir)
    loaded, clouds_dir = pl._open_dataset(out / "manifest.jsonl")
    assert loaded.seed == manifest.seed
    assert len(loaded.rows) == len(manifest.rows)
    assert clouds_dir == out / "clouds"


def test_manifest_rejects_out_of_scale_labels(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir)
    manifest.rows[0].pseudo_mos = 9.0
    path = out / "bad.jsonl"
    manifest.save(path)
    with pytest.raises(pl.ValidationError, match="outside scale"):
        pl.Manifest.load(path)


def test_manifest_rejects_missing_file(tmp_path, refs_dir):
    out, _ = build_dataset(tmp_path, refs_dir)
    manifest = pl.Manifest.load(out / "manifest.jsonl")
    (out / "clouds" / manifest.rows[0].path).unlink()
    with pytest.raises(pl.ValidationError, match="missing file"):
        pl._open_dataset(out / "manifest.jsonl")


def test_rerun_same_seed_byte_identical_manifest(tmp_path, refs_dir):
    out1, _ = build_dataset(tmp_path / "a", refs_dir)
    out2, _ = build_dataset(tmp_path / "b", refs_dir)
    assert (out1 / "manifest.jsonl").read_bytes() == (out2 / "manifest.jsonl").read_bytes()


@pytest.mark.parametrize("jobs, n_tasks, pool", [
    (64, 3, 3), (2, 5, 2), (2, 1, None), (4, 0, None), (1, 5, None),
])
def test_map_starts_no_more_workers_than_tasks(monkeypatch, jobs, n_tasks, pool):
    # a forking pool starts all its workers at once: an in-process fake
    # records how many were asked for, and starts none
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks, chunksize=1):
            return map(worker, tasks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert pl._map(str, list(range(n_tasks)), jobs) == [str(t) for t in range(n_tasks)]
    assert pools == ([] if pool is None else [pool])


def test_build_jobs_parallel_identical(tmp_path, refs_dir):
    out1, _ = build_dataset(tmp_path / "a", refs_dir, jobs=1)
    out2, _ = build_dataset(tmp_path / "b", refs_dir, jobs=4)
    for p1 in sorted((out1 / "clouds").iterdir()):
        p2 = out2 / "clouds" / p1.name
        assert p1.read_bytes() == p2.read_bytes()
    assert (out1 / "manifest.jsonl").read_bytes() == (out2 / "manifest.jsonl").read_bytes()


def test_build_failure_recorded_not_fatal(tmp_path, refs_dir):
    # external id without adapter: rows fail, build continues
    cfg = pl.Config(seed=1, distortions=(5, 25))
    manifest = pl.cmd_build(refs_dir, tmp_path / "ds", cfg, jobs=1)
    failed = [r for r in manifest.rows if r.status == "failed"]
    ok = [r for r in manifest.rows if r.status == "ok"]
    assert len(failed) == 2 * 7  # id 25 rows
    assert all("not configured" in r.error for r in failed)
    assert len(ok) == 2 * 7


def test_build_with_passthrough_adapter(tmp_path, refs_dir):
    cfg = pl.Config(seed=1, distortions=(25,),
                    adapters={25: AdapterConfig("cp", ("{in}", "{out}"))})
    manifest = pl.cmd_build(refs_dir, tmp_path / "ds", cfg, jobs=1)
    assert all(r.status == "ok" for r in manifest.rows)
    assert all(r.provenance == {"tool": "cp", "params": [27, 31, 35, 39, 43, 47, 51][r.level - 1:r.level]}
               for r in manifest.rows)


# ---------------------------------------------------------------------------
# Score
# ---------------------------------------------------------------------------


def test_score_applicability_and_counts(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir)
    n = pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv", jobs=1)
    # color metrics on all 42; geometry metrics only on ids 11 and 17 (28 rows)
    rows = read_csv(tmp_path / "scores.csv")
    assert n == len(rows)
    per_metric = {}
    for r in rows:
        per_metric.setdefault(r["metric_name"], 0)
        per_metric[r["metric_name"]] += 1
    assert per_metric["PSNRyuv"] == 42
    assert per_metric["M-p2po"] == 28
    assert n <= 42 * 6


def test_score_identical_reference_rows_capped(tmp_path, refs_dir):
    cfg = pl.Config(seed=1, distortions=(25,),
                    adapters={25: AdapterConfig("cp", ("{in}", "{out}"))})
    out = tmp_path / "ds"
    pl.cmd_build(refs_dir, out, cfg, jobs=1)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    for r in read_csv(tmp_path / "scores.csv"):
        assert float(r["value"]) == 100.0


# ---------------------------------------------------------------------------
# Annotate
# ---------------------------------------------------------------------------


def test_annotate_end_to_end(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 11, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    result = pl.cmd_annotate(
        out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
        tmp_path / "annotated.jsonl", report_dir=tmp_path / "reports",
        holdout_refs=("ref1",))
    assert result.holdout_srocc is not None and result.holdout_srocc > 0.8
    annotated = pl.Manifest.load(tmp_path / "annotated.jsonl")
    for row in annotated.ok_rows():
        assert row.pseudo_mos is not None
        assert 1.0 <= row.pseudo_mos <= 5.0
        assert row.source_metric
    assert (tmp_path / "reports" / "selection.txt").exists()
    assert (tmp_path / "reports" / "annotation_report.txt").exists()
    text = (tmp_path / "reports" / "annotation_report.txt").read_text()
    assert "absolute errors" in text  # quantile convention recorded in the header


ANNOTATE_DIGESTS = {
    "annotated.jsonl": "e756d50d8530cb07298983f80b51996a606a3c61a3334ea4dd0bf7214b8f5641",
    "selection.csv": "2f1701dad3acf452bc491142549dec0b3065b85d6793955b9d08d007e5b620d8",
    "selection.txt": "1ae5dca6600037e999c6ba846d1e1d900ee7f7bd8fdf4b90960dcd20852ae0f5",
    "annotation_report.txt": "1791e71ff00140875a3528a171acf6a72b4197efc2cbce7a7ed4b0a3e940021d",
    "annotation_errors.csv": "fa54974683800850413496a05a682b25af1e2fe05faaebc68499122beb5aedea",
}


def test_annotate_outputs_are_pinned(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 11, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    reports = tmp_path / "reports"
    reports.mkdir()
    pl.cmd_annotate(out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
                    reports / "annotated.jsonl", report_dir=reports, holdout_refs=("ref1",))
    # the manifest header names the references by absolute path
    got = {name: hashlib.sha256((reports / name).read_bytes().replace(
        str(refs_dir).encode(), b"refs")).hexdigest() for name in ANNOTATE_DIGESTS}
    assert got == ANNOTATE_DIGESTS


def test_annotate_report_shows_fits_and_screening(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    with open(tmp_path / "subjective.csv", "a", newline="") as f:
        w = csv.writer(f)
        for k, row in enumerate(manifest.ok_rows()):  # two raters screening must drop
            w.writerow([row.sample_id, "zconst", "3.0"])
            w.writerow([row.sample_id, "zbinary", "1.0" if k % 2 else "5.0"])
    result = pl.cmd_annotate(
        out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
        tmp_path / "annotated.jsonl", report_dir=tmp_path / "reports",
        holdout_refs=("ref1",))
    lines = (tmp_path / "reports" / "annotation_report.txt").read_text().splitlines()

    assert sorted(result.fits) == [5, 17]
    assert any(ln.split()[-2:] == ["rmse", "starts_converged"] for ln in lines), lines
    for did, (metric, model) in result.fits.items():
        assert len(model.starts_converged) == 8
        want = [str(did), metric, "logistic5", str(model.iterations),
                "yes" if model.converged else "NO"]
        starts = f"{sum(model.starts_converged)}/8"
        assert any(ln.split()[:5] == want and ln.split()[-1] == starts
                   for ln in lines), (want, starts, lines)

    rejected = result.screening.rejected
    assert rejected["zconst"] == "degenerate"
    assert rejected["zbinary"].startswith("beta2=")
    assert (f"subject screening: kept {len(result.screening.kept)} of 20, "
            f"rejected {len(rejected)}") in lines
    for subject, reason in rejected.items():
        assert f"  rejected {subject}: {reason}" in lines


def test_annotate_missing_subjective_errors(tmp_path, refs_dir):
    out, _ = build_dataset(tmp_path, refs_dir)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    with pytest.raises(pl.ValidationError, match="not found"):
        pl.cmd_annotate(out / "manifest.jsonl", tmp_path / "scores.csv",
                        tmp_path / "nope.csv", tmp_path / "annotated.jsonl")


def test_annotate_all_refs_labeled_degenerates_to_fit(tmp_path, refs_dir, caplog):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    with caplog.at_level("WARNING"):
        result = pl.cmd_annotate(
            out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
            tmp_path / "annotated.jsonl", holdout_refs=())
    assert result.holdout_srocc is None
    assert "degenerates" in caplog.text


def test_annotate_uncovered_type_errors(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    # only label distortion 5 rows: type 17 has no labeled fit samples
    r = np.random.default_rng(1)
    with open(tmp_path / "subjective.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(6):
            for row in manifest.ok_rows():
                if row.distortion_id != 5:
                    continue
                w.writerow([row.sample_id, f"s{subj}",
                            f"{np.clip(4.5 - 0.5 * row.level + r.normal(0, 0.5), 1, 5):.2f}"])
    with pytest.raises(pl.ValidationError, match="without labeled fit samples"):
        pl.cmd_annotate(out / "manifest.jsonl", tmp_path / "scores.csv",
                        tmp_path / "subjective.csv", tmp_path / "annotated.jsonl",
                        holdout_refs=())


# ---------------------------------------------------------------------------
# Split / train / eval
# ---------------------------------------------------------------------------


def test_split_validation():
    with pytest.raises(pl.ValidationError, match="overlap"):
        pl.SplitSpec(train=("a", "b"), test=("b",))
    split = pl.SplitSpec.parse("test=ref1", ["ref0", "ref1"])
    assert split.train == ("ref0",)
    assert split.test == ("ref1",)
    with pytest.raises(pl.ValidationError, match="unknown test"):
        pl.SplitSpec.parse("test=zz", ["ref0"])


def _annotated_dataset(tmp_path, refs_dir, distortions=(5, 17)):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=distortions)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    pl.cmd_annotate(out / "manifest.jsonl", tmp_path / "scores.csv",
                    tmp_path / "subjective.csv", out / "manifest.jsonl",
                    holdout_refs=())
    return out


def test_train_eval_cycle(tmp_path, refs_dir):
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    ckpt = tmp_path / "model.ckpt"
    pl.cmd_train(out / "manifest.jsonl", split, ModelConfig(**TINY_MODEL),
                 TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in TINY_TRAIN.items()}),
                 ckpt, loss_csv=tmp_path / "loss.csv")
    assert ckpt.exists()
    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,lr,loss"
    assert len(lines) == 1 + 14 * 3  # 14 train samples x 3 epochs

    report = pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval")
    assert report.n_samples == 14
    assert (tmp_path / "eval" / "predictions.csv").exists()
    assert (tmp_path / "eval" / "eval_report.txt").exists()
    assert set(report.per_type) == {5, 17}


def test_eval_report_reproducible_from_predictions(tmp_path, refs_dir):
    import scipy.stats
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    ckpt = tmp_path / "model.ckpt"
    pl.cmd_train(out / "manifest.jsonl", split, ModelConfig(**TINY_MODEL),
                 TrainConfig(lr=0.02, lr_decay=1.0, accum=2, epochs=3, seed=0,
                             scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0)),
                 ckpt)
    report = pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval")
    rows = read_csv(tmp_path / "eval" / "predictions.csv")
    labels = [float(r["label"]) for r in rows]
    preds = [float(r["prediction"]) for r in rows]
    assert report.overall_plcc == pytest.approx(scipy.stats.pearsonr(labels, preds)[0], abs=1e-9)
    assert report.overall_srocc == pytest.approx(scipy.stats.spearmanr(labels, preds)[0], abs=1e-9)


def test_eval_empty_split_errors(tmp_path, refs_dir):
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0", "ref1"), test=())
    ckpt = tmp_path / "model.ckpt"
    pl.cmd_train(out / "manifest.jsonl", pl.SplitSpec(train=("ref0",), test=("ref1",)),
                 ModelConfig(**TINY_MODEL),
                 TrainConfig(epochs=1, scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0)),
                 ckpt)
    with pytest.raises(pl.ValidationError, match="empty"):
        pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval")


def test_eval_checkpoint_config_mismatch(tmp_path, refs_dir):
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    ckpt = tmp_path / "model.ckpt"
    pl.cmd_train(out / "manifest.jsonl", split, ModelConfig(**TINY_MODEL),
                 TrainConfig(epochs=1, scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0)),
                 ckpt)
    with pytest.raises(pl.ValidationError, match="mismatch"):
        pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval",
                    model_config=ModelConfig(blocks=2, width=6, fc_hidden=4))


def test_cli_eval_unlabeled_row_exits_before_writing(tmp_path, refs_dir, capsys):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5,))
    for row in manifest.rows:
        row.pseudo_mos = 5.0 - 0.5 * row.level
    last = max((r for r in manifest.rows if r.reference_id == "ref1"), key=lambda r: r.sample_id)
    last.pseudo_mos = None  # the last test row: rejected before any row is predicted
    unlabeled = last.sample_id
    manifest.save(out / "manifest.jsonl")
    save_checkpoint(init_model(ModelConfig(**TINY_MODEL), seed=0), tmp_path / "m.ckpt")
    _assert_cli_error(["eval", "--manifest", str(out / "manifest.jsonl"),
                       "--split", "test=ref1", "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--out", str(tmp_path / "eval")], capsys,
                      f"{unlabeled}: no label for evaluation")
    assert not (tmp_path / "eval").exists()


# ---------------------------------------------------------------------------
# Ablation + report formatting
# ---------------------------------------------------------------------------


def test_format_tables_shape():
    depth = pl.format_depth_table({b: (0.5, 0.6) for b in range(1, 6)})
    assert "1 block" in depth and "5 blocks" in depth
    assert depth.splitlines()[1].startswith("PLCC")
    residual = pl.format_residual_table({v: (0.5, 0.6) for v in "ABCD"})
    assert "Without residual connection" in residual
    assert "2, 3-layers residual connection" in residual
    nan_table = pl.format_overall_table([("model", float("nan"), 0.4)])
    assert "NaN" in nan_table


def test_score_tables_end_each_plcc_cell_under_its_header():
    nan = float("nan")
    tables = [
        pl.format_overall_table([("model", 0.5, nan), ("M-p2po", -0.25, 1.0)]),
        pl.format_pertype_table({5: (0.5, 0.6), 17: (-0.25, nan), 25: (nan, -1.0)}),
        pl.format_residual_table({"A": (0.5, -0.6), "B": (nan, 0.1), "C": (-1.0, nan),
                                  "D": (0.25, 0.5)}),
    ]
    for table in tables:
        header, *rows = table.splitlines()
        end = header.index("PLCC") + len("PLCC")
        for row in rows:
            assert row[end - 1] != " " and row[end] == " ", (header, row)
            assert len(row) == len(header), (header, row)


def test_overall_and_pertype_table_bytes_are_pinned():
    nan = float("nan")
    assert pl.format_overall_table(
        [("model", 0.5, nan), ("a label wider than twenty-four", -0.25, 1.0)]) == (
        "metric                       PLCC    SROCC\n"
        "model                      0.5000      NaN\n"
        "a label wider than twenty-four  -0.2500   1.0000")
    assert pl.format_pertype_table({5: (0.5, 0.6), 17: (-0.25, nan)}) == (
        " id distortion                           PLCC    SROCC\n"
        "  5 MeanShift                          0.5000   0.6000\n"
        " 17 GaussianShifting                  -0.2500      NaN")


def test_run_ablation_unknown_kind_errors(tmp_path):
    with pytest.raises(pl.ValidationError, match="unknown ablation kind 'width'"):
        pl.run_ablation(tmp_path / "manifest.jsonl", pl.SplitSpec(train=("r0",), test=("r1",)),
                        ModelConfig(**TINY_MODEL), TrainConfig(), "width", tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_full_cycle(tmp_path, refs_dir, capsys):
    out = tmp_path / "ds"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 9, "distortions": [5, 17],
        "model": TINY_MODEL, "train": TINY_TRAIN}))

    assert cli_main(["build", "--refs", str(refs_dir), "--out", str(out),
                     "--config", str(cfg_path)]) == 0
    assert cli_main(["score", "--manifest", str(out / "manifest.jsonl"),
                     "--out", str(tmp_path / "scores.csv")]) == 0
    manifest = pl.Manifest.load(out / "manifest.jsonl")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    assert cli_main(["annotate", "--manifest", str(out / "manifest.jsonl"),
                     "--scores", str(tmp_path / "scores.csv"),
                     "--subjective", str(tmp_path / "subjective.csv"),
                     "--out", str(out / "manifest.jsonl"),
                     "--holdout-refs", ""]) == 0
    assert cli_main(["train", "--manifest", str(out / "manifest.jsonl"),
                     "--split", "test=ref1", "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg_path)]) == 0
    assert cli_main(["eval", "--manifest", str(out / "manifest.jsonl"),
                     "--split", "test=ref1", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert cli_main(["report", "--kind", "per-type",
                     "--source", str(tmp_path / "eval")]) == 0
    out_text = capsys.readouterr().out
    assert "PLCC" in out_text and "SROCC" in out_text


def test_cli_validation_exit_code(tmp_path):
    assert cli_main(["build", "--refs", str(tmp_path / "none"),
                     "--out", str(tmp_path / "o")]) == 1


def test_cli_bad_manifest_exit_code(tmp_path):
    bad = tmp_path / "m.jsonl"
    bad.write_text('{"kind":"other"}\n')
    assert cli_main(["score", "--manifest", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 1


def _assert_cli_error(argv, capsys, match):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert match in err, err


def _edit_checkpoint_header(raw: bytes, edit) -> bytes:
    """Re-encode a checkpoint after `edit` mutates its JSON header."""
    magic, (version, n) = raw[:8], struct.unpack("<II", raw[8:16])
    header = json.loads(raw[16:16 + n])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode()
    return magic + struct.pack("<II", version, len(new)) + new + raw[16 + n:]


def _set_shape(header, name, shape):
    for entry in header["arrays"]:
        if entry[0] == name:
            entry[1] = shape


@pytest.mark.parametrize("corrupt, match", [
    (lambda raw: raw[:12], "truncated checkpoint header"),
    (lambda raw: _edit_checkpoint_header(raw, lambda h: h["config"].update(depth=3)),
     "bad checkpoint header"),
    (lambda raw: raw + b"\0" * 8, "trailing bytes"),
    (lambda raw: _edit_checkpoint_header(raw, lambda h: _set_shape(h, "fc2.b", [2])),
     "shape"),
    # version 1 headers list the removed pooling and in_channels settings
    (lambda raw: raw[:8] + struct.pack("<I", 1) + raw[12:], "unsupported checkpoint version 1"),
], ids=["truncated-header", "unknown-config-key", "trailing-bytes", "wrong-shape", "version-1"])
def test_cli_malformed_checkpoint_exit_code(tmp_path, capsys, corrupt, match):
    manifest = tmp_path / "manifest.jsonl"
    pl.Manifest(seed=0, label_scale=(1.0, 5.0),
                references={"ref0": "ref0.ply", "ref1": "ref1.ply"}).save(manifest)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_model(ModelConfig(**TINY_MODEL), seed=0), ckpt)
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    _assert_cli_error(["eval", "--manifest", str(manifest), "--split", "test=ref1",
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")],
                      capsys, match)


def _manifest_lines(tmp_path):
    manifest = pl.Manifest(seed=0, label_scale=(1.0, 5.0), references={"ref0": "ref0.ply"},
                           rows=[pl.ManifestRow("s0", "ref0", 5, 1, 0, status="failed")])
    manifest.save(tmp_path / "m.jsonl")
    return [json.loads(ln) for ln in (tmp_path / "m.jsonl").read_text().splitlines()]


def _score_manifest(tmp_path, lines, capsys, match):
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    _assert_cli_error(["score", "--manifest", str(path), "--out", str(tmp_path / "s.csv")],
                      capsys, match)


def test_cli_manifest_row_unknown_key_exit_code(tmp_path, capsys):
    header, row = _manifest_lines(tmp_path)
    row["grade"] = 3
    _score_manifest(tmp_path, [header, row], capsys, "m.jsonl:2")


@pytest.mark.parametrize("key", ["seed", "label_scale"])
def test_cli_manifest_header_missing_field_exit_code(tmp_path, capsys, key):
    header, row = _manifest_lines(tmp_path)
    del header[key]
    _score_manifest(tmp_path, [header, row], capsys, "m.jsonl:1")


@pytest.mark.parametrize("version", [99, None])
def test_cli_manifest_unsupported_version_exit_code(tmp_path, capsys, version):
    header, row = _manifest_lines(tmp_path)
    header["version"] = version
    _score_manifest(tmp_path, [header, row], capsys, "m.jsonl:1: unsupported manifest version")
    with pytest.raises(pl.ValidationError, match="expected 1"):
        pl.Manifest.load(tmp_path / "m.jsonl")


def test_cli_manifest_duplicate_row_names_its_own_line(tmp_path, capsys):
    header, row = _manifest_lines(tmp_path)
    lines = [header, row, {**row, "sample_id": "s1"}, row]  # line 4 repeats line 2
    _score_manifest(tmp_path, lines, capsys, "m.jsonl:4: duplicate sample_id s0")


def test_manifest_row_check_counts_blank_lines(tmp_path):
    header, row = _manifest_lines(tmp_path)
    stray = json.dumps({**row, "sample_id": "s1", "reference_id": "nope"})
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join([json.dumps(header), json.dumps(row), "", stray]) + "\n")
    with pytest.raises(pl.ValidationError, match=r"m\.jsonl:4: s1: unknown reference nope"):
        pl.Manifest.load(path)


@pytest.mark.parametrize("config, match", [
    ({"model": {"depth": 3}}, "depth"),
    ({"train": {"momentum": 0.9}}, "momentum"),
    ({"adapters": {"25": {"args": ["{in}", "{out}"]}}}, "command"),
    ({"model": {"width": "64"}}, "model width must be a positive int, got '64'"),
    ({"model": {"blocks": 2.0}}, "model blocks must be a positive int"),
    ({"adapters": [{"command": "x"}]}, "adapters must be a JSON object"),
    ([{"seed": 1}], "expected a JSON object"),
    ({"distortions": [2, 2, 5]}, "config distortions must be a list of distinct ids, got [2, 2, 5]"),
], ids=["unknown-model-key", "unknown-train-key", "adapter-without-command",
        "string-width", "float-blocks", "adapters-not-an-object", "config-not-an-object",
        "repeated-distortion"])
def test_cli_malformed_config_exit_code(tmp_path, refs_dir, capsys, config, match):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _assert_cli_error(["build", "--refs", str(refs_dir), "--out", str(tmp_path / "ds"),
                       "--config", str(path)], capsys, match)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("text, match", [
    (json.dumps({"test": ["ref1"]}), "'train' and 'test' lists"),
    (json.dumps({"train": ["ref0"]}), "'train' and 'test' lists"),
    (json.dumps({"train": ["ref0"], "test": "ref1"}), "'train' and 'test' lists"),
    (json.dumps(["ref1"]), "'train' and 'test' lists"),
    (json.dumps({"train": ["ref0", "typo"], "test": ["ref1"]}),
     "unknown train references: ['typo']"),
    (json.dumps({"train": ["ref0"], "test": ["ref1", "typo"]}),
     "unknown test references: ['typo']"),
    (json.dumps({"train": ["ref0"], "test": [1]}), "split test must be a string, got 1"),
    ("test: [ref1]", "split.json: not a JSON split file"),
], ids=["no-train", "no-test", "test-not-a-list", "not-an-object",
        "unknown-train-id", "unknown-test-id", "non-string-id", "not-json"])
def test_cli_malformed_split_file_exit_code(tmp_path, capsys, text, match):
    manifest = tmp_path / "manifest.jsonl"
    pl.Manifest(seed=0, label_scale=(1.0, 5.0),
                references={"ref0": "ref0.ply", "ref1": "ref1.ply"}).save(manifest)
    path = tmp_path / "split.json"
    path.write_text(text)
    assert cli_main(["eval", "--manifest", str(manifest), "--split", str(path),
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--out", str(tmp_path / "eval")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and match in line, line


# ---------------------------------------------------------------------------
# Remaining interface surfaces
# ---------------------------------------------------------------------------


def test_native_subset_combinatorics(tmp_path):
    rng = np.random.default_rng(1)
    d = tmp_path / "refs"
    d.mkdir()
    save_ply(grid_cloud(rng, n=120, extent=30), d / "only.ply")
    from pcqa.distort import NATIVE_IDS
    cfg = pl.Config(seed=2, distortions=NATIVE_IDS)
    manifest = pl.cmd_build(d, tmp_path / "ds", cfg, jobs=1)
    assert len(manifest.rows) == len(NATIVE_IDS) * 7  # 23 native ids x 7 levels


def test_adapters_from_env(tmp_path, refs_dir, monkeypatch):
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps({"25": {"command": "cp", "args": ["{in}", "{out}"]}}))
    monkeypatch.setenv("PCQA_ADAPTERS", str(adapters))
    out = tmp_path / "ds"
    assert cli_main(["build", "--refs", str(refs_dir), "--out", str(out),
                     "--subset", "25", "--seed", "4"]) == 0
    manifest = pl.Manifest.load(out / "manifest.jsonl")
    assert all(r.status == "ok" for r in manifest.rows)
    assert all(r.provenance["tool"] == "cp" for r in manifest.rows)


def test_adapters_from_env_must_be_an_object(tmp_path, refs_dir, monkeypatch, capsys):
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps([{"command": "x"}]))
    with pytest.raises(pl.ValidationError, match="adapters must be a JSON object"):
        pl.load_adapters(adapters)
    monkeypatch.setenv("PCQA_ADAPTERS", str(adapters))
    _assert_cli_error(["build", "--refs", str(refs_dir), "--out", str(tmp_path / "ds"),
                       "--subset", "25"], capsys, "adapters must be a JSON object")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("kind, report", [
    ("overall", {"per_type": {}}),
    ("overall", {"overall": {"plcc": 0.5}}),
    ("per-type", {"overall": {"plcc": 0.5, "srocc": 0.5}}),
    ("per-type", {"per_type": [0.5]}),
    ("overall", ["not", "a", "report"]),
], ids=["no-overall", "overall-without-srocc", "no-per-type", "per-type-list", "list"])
def test_cli_report_malformed_eval_report_exit_code(tmp_path, capsys, kind, report):
    path = tmp_path / "eval_report.json"
    path.write_text(json.dumps(report))
    _assert_cli_error(["report", "--kind", kind, "--source", str(tmp_path)],
                      capsys, f"{path}: malformed eval report")


def test_eval_constant_prediction_nan_flagged(tmp_path, refs_dir):
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    ckpt = tmp_path / "zero.ckpt"
    from pcqa.sparsenn import init_model, save_checkpoint
    model = init_model(ModelConfig(**TINY_MODEL), seed=0)
    for name in model.params:
        model.params[name][...] = 0.0  # constant (zero) predictor
    save_checkpoint(model, ckpt)
    report = pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval")
    assert np.isnan(report.overall_plcc) and np.isnan(report.overall_srocc)
    text = (tmp_path / "eval" / "eval_report.txt").read_text()
    assert "NaN" in text


@pytest.mark.parametrize("preds", [[0.0] * 3, [0.1] * 3, [4.3] * 5])
def test_safe_corr_of_a_constant_prediction_is_nan(preds):
    # the mean of [0.1] * 3 rounds to 0.10000000000000002: still no PLCC
    labels = [1.0, 2.5, 4.0, 3.0, 2.0][:len(preds)]
    plcc, srocc = pl._safe_corr(labels, preds)
    assert np.isnan(plcc) and np.isnan(srocc)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "seed": 5, "distortions": [1, 2], "label_scale": [1, 10],
        "adapters": {"25": {"command": "cp", "args": ["{in}", "{out}"]}},
        "model": {"blocks": 2, "width": 16},
        "train": {"lr": 0.01, "scale_range": [0.9, 1.1]}}))
    cfg = pl.Config.from_file(path)
    assert cfg.seed == 5
    assert cfg.distortions == (1, 2)
    assert cfg.label_scale == (1.0, 10.0)
    assert cfg.adapters[25].command == "cp"
    assert cfg.model.blocks == 2
    assert cfg.train.lr == 0.01
    assert cfg.train.scale_range == (0.9, 1.1)


def test_config_rejects_unknown_distortion(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"distortions": [99]}))
    with pytest.raises(pl.ValidationError, match="unknown distortion"):
        pl.Config.from_file(path)


def test_eval_per_type_cells_reproducible(tmp_path, refs_dir):
    import scipy.stats
    out = _annotated_dataset(tmp_path, refs_dir)
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    ckpt = tmp_path / "model.ckpt"
    pl.cmd_train(out / "manifest.jsonl", split, ModelConfig(**TINY_MODEL),
                 TrainConfig(lr=0.02, lr_decay=1.0, accum=2, epochs=3, seed=0,
                             scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0)),
                 ckpt)
    report = pl.cmd_eval(out / "manifest.jsonl", split, ckpt, tmp_path / "eval")
    rows = read_csv(tmp_path / "eval" / "predictions.csv")
    for did, (plcc_cell, srocc_cell) in report.per_type.items():
        sel = [r for r in rows if int(r["distortion_id"]) == did]
        labels = [float(r["label"]) for r in sel]
        preds = [float(r["prediction"]) for r in sel]
        assert plcc_cell == pytest.approx(scipy.stats.pearsonr(labels, preds)[0], abs=1e-9)
        assert srocc_cell == pytest.approx(scipy.stats.spearmanr(labels, preds)[0], abs=1e-9)


def test_serialized_adapter_parallel_build(tmp_path, refs_dir):
    cfg = pl.Config(seed=1, distortions=(25,),
                    adapters={25: AdapterConfig("cp", ("{in}", "{out}"), serialize=True)})
    manifest = pl.cmd_build(refs_dir, tmp_path / "ds", cfg, jobs=4)
    assert all(r.status == "ok" for r in manifest.rows)


# ---------------------------------------------------------------------------
# Reference cache, atomic artifacts, one nearest-neighbour pass per direction
# ---------------------------------------------------------------------------


def test_build_rereads_a_changed_reference(tmp_path):
    refs = tmp_path / "refs"
    refs.mkdir()
    rng = np.random.default_rng(8)
    cfg = pl.Config(seed=0, distortions=(5,))  # color-only: keeps every point
    save_ply(grid_cloud(rng, n=300, extent=50), refs / "ref0.ply")
    pl.cmd_build(refs, tmp_path / "a", cfg)
    save_ply(grid_cloud(rng, n=500, extent=50), refs / "ref0.ply")
    pl.cmd_build(refs, tmp_path / "b", cfg)
    assert len(load_ply(tmp_path / "a" / "clouds" / "ref0__d05_l1.ply")) == 300
    assert len(load_ply(tmp_path / "b" / "clouds" / "ref0__d05_l1.ply")) == 500


def test_score_rereads_a_changed_reference(tmp_path, refs_dir):
    out, _ = build_dataset(tmp_path, refs_dir, distortions=(5,))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "before.csv")
    ref = load_ply(refs_dir / "ref0.ply")
    save_ply(ref.with_colors(255 - ref.colors), refs_dir / "ref0.ply")
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "after.csv")
    want = fr.score_pair(load_ply(refs_dir / "ref0.ply"),
                         load_ply(out / "clouds" / "ref0__d05_l1.ply"), ("PSNRyuv",))
    rows = {(r["metric_name"], r["degraded_id"]): r["value"]
            for r in read_csv(tmp_path / "after.csv")}
    assert rows[("PSNRyuv", "ref0__d05_l1")] == repr(want["PSNRyuv"])


@pytest.mark.parametrize("did, builds, normals", [(17, 2, 2), (5, 0, 0)])
def test_score_worker_one_nn_pass_per_direction(tmp_path, monkeypatch, did, builds, normals):
    # one tree per cloud, shared by its normal estimation and its
    # nearest-neighbour query: the reference's is made once per worker,
    # with its normals, when a p2plane metric applies; a colour-only
    # distortion keeps every position, so it needs no tree and queries none
    ref = textured_ref(np.random.default_rng(9), n=300, extent=40)
    save_ply(ref, tmp_path / "ref.ply")
    save_ply(apply_distortion(ref, DistortionSpec(did, 4, 1)), tmp_path / "deg.ply")
    counts = _count_score_work(monkeypatch)

    metrics = tuple(m for m in fr.BUILTIN_METRICS if fr.metric_applicable(m, did))
    rows = pl._score_worker(
        (str(tmp_path / "ref.ply"), "ref", str(tmp_path / "deg.ply"), "deg", metrics))
    assert [r[0] for r in rows] == list(metrics)
    assert counts == {"builds": builds, "queries": 2 if builds else 0, "normals": normals}


def _count_score_work(monkeypatch):
    """Live counts of tree builds, nearest-neighbour queries and normal
    estimations, from an empty reference cache."""
    pl._load_ref.cache_clear()
    counts = {"builds": 0, "queries": 0, "normals": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(pcio.SpatialIndex, "__init__",
                        counted("builds", pcio.SpatialIndex.__init__))
    monkeypatch.setattr(pcio.SpatialIndex, "nearest",
                        counted("queries", pcio.SpatialIndex.nearest))
    # the reference's normals are estimated from pcio (`plane_normals`), a
    # degraded cloud's at some rows from frmetrics
    for module in (pcio, fr):
        monkeypatch.setattr(module, "estimate_normals",
                            counted("normals", module.estimate_normals))
    return counts


def _score_task(ref_path, deg_path, did):
    metrics = tuple(m for m in fr.BUILTIN_METRICS if fr.metric_applicable(m, did))
    return (str(ref_path), "ref", str(deg_path), Path(deg_path).stem, metrics)


def test_score_worker_estimates_reference_normals_once(tmp_path, monkeypatch):
    ref = textured_ref(np.random.default_rng(9), n=300, extent=40)
    save_ply(ref, tmp_path / "ref.ply")
    for did, level in ((17, 2), (17, 5), (5, 3)):
        save_ply(apply_distortion(ref, DistortionSpec(did, level, 1)),
                 tmp_path / f"d{did}_l{level}.ply")
    counts = _count_score_work(monkeypatch)
    per_task = []
    for name, did in (("d17_l2", 17), ("d17_l5", 17), ("d5_l3", 5)):
        before = dict(counts)
        pl._score_worker(_score_task(tmp_path / "ref.ply", tmp_path / f"{name}.ply", did))
        per_task.append({k: counts[k] - before[k] for k in counts})
    # the reference's tree and normals come from the worker's cache after
    # the first d17 sample, which builds both; each d17 sample builds its own
    # tree for its normals and the backward query; the colour-only d05 sample
    # keeps every position, so it builds no tree, queries none and estimates
    # no normals at all
    assert per_task == [{"builds": 2, "queries": 2, "normals": 2},
                        {"builds": 1, "queries": 2, "normals": 1},
                        {"builds": 0, "queries": 0, "normals": 0}]


def test_score_worker_keeps_one_reference_cloud_per_path(tmp_path):
    ref = textured_ref(np.random.default_rng(9), n=300, extent=40)
    save_ply(ref, tmp_path / "ref.ply")
    for did in (17, 5):
        save_ply(apply_distortion(ref, DistortionSpec(did, 3, 1)), tmp_path / f"d{did}.ply")
    pl._load_ref.cache_clear()
    # a p2plane task, then a colour-only one: the same cached cloud serves both
    for did in (17, 5):
        pl._score_worker(_score_task(tmp_path / "ref.ply", tmp_path / f"d{did}.ply", did))
    assert pl._load_ref.cache_info().currsize == 1
    pl._load_ref.cache_clear()


def test_score_worker_keeps_the_reference_tree_without_a_plane_metric(tmp_path, monkeypatch):
    ref = textured_ref(np.random.default_rng(9), n=300, extent=40)
    save_ply(ref, tmp_path / "ref.ply")
    for level in (2, 5):
        save_ply(apply_distortion(ref, DistortionSpec(17, level, 1)),
                 tmp_path / f"d17_l{level}.ply")
    counts = _count_score_work(monkeypatch)
    for level in (2, 5):
        task = _score_task(tmp_path / "ref.ply", tmp_path / f"d17_l{level}.ply", 17)
        pl._score_worker(task[:4] + ((fr.M_P2PO, fr.PSNR_YUV),))
    # the reference's tree once, each sample's own once
    assert counts == {"builds": 3, "queries": 4, "normals": 0}


def test_build_makes_one_tree_per_reference(tmp_path, monkeypatch):
    refs = tmp_path / "refs"
    refs.mkdir()
    save_ply(grid_cloud(np.random.default_rng(8), n=300, extent=50), refs / "ref0.ply")
    counts = _count_score_work(monkeypatch)
    # correlated noise reads each point's 8 neighbours at all 7 levels
    manifest = pl.cmd_build(refs, tmp_path / "ds", pl.Config(seed=0, distortions=(8,)))
    assert [r.status for r in manifest.rows] == ["ok"] * 7
    assert counts["builds"] == 1


def _score_rows(path):
    return {(r["metric_name"], r["degraded_id"]): r["value"] for r in read_csv(path)}


def test_score_is_fresh_score_pair_at_any_jobs(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "j1.csv", jobs=1)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "j2.csv", jobs=2)
    assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j2.csv").read_bytes()
    rows = _score_rows(tmp_path / "j1.csv")
    expected = {}
    for row in manifest.ok_rows():
        metrics = tuple(m for m in fr.BUILTIN_METRICS
                        if fr.metric_applicable(m, row.distortion_id))
        scores = fr.score_pair(load_ply(refs_dir / f"{row.reference_id}.ply"),
                               load_ply(out / "clouds" / row.path), metrics)
        expected.update({(m, row.sample_id): repr(v) for m, v in scores.items()})
    assert rows == expected
    assert any(m == fr.M_P2PL for m, _ in rows)


def test_score_rereads_a_moved_reference_for_p2plane(tmp_path, refs_dir):
    out, _ = build_dataset(tmp_path, refs_dir, distortions=(17,))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "before.csv")
    ref = load_ply(refs_dir / "ref0.ply")
    save_ply(ref.with_positions(ref.positions * [1.0, 1.0, 1.5] + 0.5), refs_dir / "ref0.ply")
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "after.csv")
    before, after = _score_rows(tmp_path / "before.csv"), _score_rows(tmp_path / "after.csv")
    for level in (1, 7):
        sample = f"ref0__d17_l{level}"
        want = fr.score_pair(load_ply(refs_dir / "ref0.ply"),
                             load_ply(out / "clouds" / f"{sample}.ply"), (fr.M_P2PL, fr.H_P2PL))
        for metric in (fr.M_P2PL, fr.H_P2PL):
            assert after[(metric, sample)] == repr(want[metric])
            assert after[(metric, sample)] != before[(metric, sample)]


def test_manifest_save_failure_keeps_previous_file(tmp_path, refs_dir, monkeypatch):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5,))
    path = out / "manifest.jsonl"
    before = path.read_bytes()
    to_json = pl.ManifestRow.to_json
    written = []

    def fail_after_three_rows(row):
        if len(written) == 3:
            raise RuntimeError("disk full")
        written.append(row)
        return to_json(row)
    monkeypatch.setattr(pl.ManifestRow, "to_json", fail_after_three_rows)
    manifest.rows[0].pseudo_mos = 2.0
    with pytest.raises(RuntimeError, match="disk full"):
        manifest.save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["clouds", "manifest.jsonl"]


def test_score_csv_failure_keeps_previous_file(tmp_path, refs_dir, monkeypatch):
    out, _ = build_dataset(tmp_path, refs_dir, distortions=(5,))
    csv_path = tmp_path / "scores.csv"
    pl.cmd_score(out / "manifest.jsonl", csv_path)
    before = csv_path.read_bytes()

    class Unprintable(float):
        def __repr__(self):
            raise RuntimeError("cannot format")

    score_pair = fr.score_pair
    calls = []

    def last_sample_unprintable(reference, degraded, metrics):
        calls.append(1)
        scores = score_pair(reference, degraded, metrics)
        if len(calls) == 14:  # ref1__d05_l7, the last row of the CSV
            scores = {m: Unprintable(v) for m, v in scores.items()}
        return scores
    monkeypatch.setattr(fr, "score_pair", last_sample_unprintable)
    with pytest.raises(RuntimeError, match="cannot format"):
        pl.cmd_score(out / "manifest.jsonl", csv_path)
    assert csv_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "refs", "scores.csv"]


def test_checkpoint_save_failure_keeps_previous_file(tmp_path):
    model = init_model(ModelConfig(**TINY_MODEL), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()
    model.state["zz_bad"] = np.array(["not a number"], dtype=object)  # written last
    with pytest.raises(ValueError):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_annotate_out_may_be_its_input_manifest(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    path = str(out / "manifest.jsonl")
    assert cli_main(["annotate", "--manifest", path, "--scores", str(tmp_path / "scores.csv"),
                     "--subjective", str(tmp_path / "subjective.csv"), "--out", path,
                     "--holdout-refs", "ref1"]) == 0
    annotated = pl.Manifest.load(path)
    assert len(annotated.rows) == len(manifest.rows)
    assert all(r.pseudo_mos is not None for r in annotated.ok_rows())
    assert sorted(p.name for p in out.iterdir()) == ["clouds", "manifest.jsonl"]


def test_cli_train_on_a_manifest_written_elsewhere_names_the_path_it_searched(
        tmp_path, refs_dir, capsys):
    # a manifest finds its samples in the clouds/ beside it, so one annotated
    # into another directory finds none there; the error says where it looked
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "subjective.csv")
    elsewhere = tmp_path / "elsewhere" / "annotated.jsonl"
    elsewhere.parent.mkdir()
    assert cli_main(["annotate", "--manifest", str(out / "manifest.jsonl"),
                     "--scores", str(tmp_path / "scores.csv"),
                     "--subjective", str(tmp_path / "subjective.csv"),
                     "--out", str(elsewhere), "--holdout-refs", ""]) == 0
    first = pl.Manifest.load(elsewhere).ok_rows()[0]
    _assert_cli_error(["train", "--manifest", str(elsewhere), "--split", "test=ref1",
                       "--out", str(tmp_path / "m.ckpt")], capsys,
                      f"{first.sample_id}: missing file {elsewhere.parent / 'clouds' / first.path}")
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_annotate_checks_the_manifest_rows(tmp_path, refs_dir, capsys):
    # a duplicated row and a scored row on an unknown reference: every command
    # that loads the manifest refuses it, annotate included
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    scores = tmp_path / "scores.csv"
    pl.cmd_score(out / "manifest.jsonl", scores)
    plant_ratings(manifest, tmp_path / "subjective.csv")
    path = out / "manifest.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    stray = {**row, "sample_id": "nope__d05_l1", "reference_id": "nope"}
    path.write_text("\n".join([*lines, lines[1], json.dumps(stray)]) + "\n")
    with open(scores, "a") as f:
        f.writelines(ln.replace(f",{row['reference_id']},{row['sample_id']},", ",nope,nope__d05_l1,")
                     for ln in scores.read_text().splitlines(keepends=True)
                     if f",{row['sample_id']}," in ln)
    _assert_cli_error(["annotate", "--manifest", str(path),
                       "--scores", str(scores), "--subjective", str(tmp_path / "subjective.csv"),
                       "--out", str(tmp_path / "annotated.jsonl")],
                      capsys, f"duplicate sample_id {row['sample_id']}")
    assert not (tmp_path / "annotated.jsonl").exists()


def test_cli_score_two_point_sample_gets_default_normals(tmp_path, refs_dir):
    out, _ = build_dataset(tmp_path, refs_dir, distortions=(17,))
    tiny = PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), [[10, 20, 30], [40, 50, 60]])
    save_ply(tiny, out / "clouds" / "ref0__d17_l1.ply")
    assert cli_main(["score", "--manifest", str(out / "manifest.jsonl"),
                     "--out", str(tmp_path / "scores.csv")]) == 0
    rows = {r["metric_name"]: float(r["value"])
            for r in read_csv(tmp_path / "scores.csv")
            if r["degraded_id"] == "ref0__d17_l1"}
    assert sorted(rows) == sorted(fr.BUILTIN_METRICS)
    assert all(np.isfinite(v) for v in rows.values())


def test_annotate_one_sample_holdout_reports_nan(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "all.csv")
    with open(tmp_path / "all.csv") as f, open(tmp_path / "subjective.csv", "w") as g:
        g.writelines(ln for ln in f if not ln.startswith("ref1") or
                     ln.startswith("ref1__d05_l3,"))
    result = pl.cmd_annotate(
        out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
        tmp_path / "annotated.jsonl", report_dir=tmp_path / "reports",
        holdout_refs=("ref1",))
    assert np.isnan(result.holdout_srocc) and np.isnan(result.holdout_plcc)
    assert result.holdout_stats is None
    assert result.fit_srocc > 0.8
    assert pl.Manifest.load(tmp_path / "annotated.jsonl").rows[0].pseudo_mos is not None


def test_cli_train_seed_is_the_training_seed(tmp_path, refs_dir):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5,))
    for row in manifest.rows:
        row.pseudo_mos = 5.0 - 0.5 * row.level
    manifest.save(out / "manifest.jsonl")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "train": TINY_TRAIN}))

    def loss_csv(seed, name):
        path = tmp_path / f"{name}.csv"
        assert cli_main(["train", "--manifest", str(out / "manifest.jsonl"),
                         "--split", "test=ref1", "--out", str(tmp_path / f"{name}.ckpt"),
                         "--config", str(cfg_path), "--seed", str(seed),
                         "--loss-csv", str(path)]) == 0
        return path.read_bytes()
    assert loss_csv(1, "a") == loss_csv(1, "b")
    assert loss_csv(1, "a") != loss_csv(2, "c")


def test_annotate_names_type_with_too_few_fit_samples(tmp_path, refs_dir, capsys):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5, 17))
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "all.csv")
    unrated = tuple(f"__d17_l{level}," for level in range(4, 8))
    with open(tmp_path / "all.csv") as f, open(tmp_path / "subjective.csv", "w") as g:
        g.writelines(ln for ln in f if not any(tag in ln for tag in unrated))
    annotated = tmp_path / "annotated.jsonl"
    assert cli_main(["annotate", "--manifest", str(out / "manifest.jsonl"),
                     "--scores", str(tmp_path / "scores.csv"),
                     "--subjective", str(tmp_path / "subjective.csv"),
                     "--out", str(annotated), "--holdout-refs", "ref1"]) == 1
    err = capsys.readouterr().err
    assert "{17: 3}" in err and "Traceback" not in err
    assert not annotated.exists()


def test_predictions_write_failure_keeps_previous_file(tmp_path, refs_dir, monkeypatch):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5,))
    for row in manifest.rows:
        row.pseudo_mos = 5.0 - 0.5 * row.level
    manifest.save(out / "manifest.jsonl")
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    for seed in (0, 1):
        save_checkpoint(init_model(ModelConfig(**TINY_MODEL), seed=seed),
                        tmp_path / f"m{seed}.ckpt")
    eval_dir = tmp_path / "eval"
    pl.cmd_eval(out / "manifest.jsonl", split, tmp_path / "m0.ckpt", eval_dir)
    path = eval_dir / "predictions.csv"
    before = path.read_bytes()

    class DiskFull:
        def __init__(self, f):
            self.f = f

        def write(self, text):
            self.f.write(text[:len(text) // 2])
            self.f.flush()
            assert any(p.name.endswith(".tmp") for p in eval_dir.iterdir())
            raise OSError(28, "No space left on device")

    atomic_write = pl.atomic_write

    @contextlib.contextmanager
    def disk_full_for_predictions(target, mode="w"):
        with atomic_write(target, mode) as f:
            yield DiskFull(f) if Path(target).name == "predictions.csv" else f
    monkeypatch.setattr(pl, "atomic_write", disk_full_for_predictions)
    with pytest.raises(OSError, match="No space"):
        pl.cmd_eval(out / "manifest.jsonl", split, tmp_path / "m1.ckpt", eval_dir)
    assert path.read_bytes() == before
    assert sorted(p.name for p in eval_dir.iterdir()) == [
        "eval_report.json", "eval_report.txt", "predictions.csv"]


def test_annotate_takes_ratings_on_the_manifest_scale(tmp_path, refs_dir, capsys):
    cfg = pl.Config(seed=3, distortions=(5, 17), label_scale=(1.0, 10.0))
    manifest = pl.cmd_build(refs_dir, tmp_path / "ds", cfg)
    path = tmp_path / "ds" / "manifest.jsonl"
    pl.cmd_score(path, tmp_path / "scores.csv")
    plant_ratings(manifest, tmp_path / "five.csv")
    with open(tmp_path / "five.csv") as f, open(tmp_path / "ten.csv", "w") as g:
        g.write(next(f))
        for line in f:  # the same ratings mapped onto [1, 10]
            stim, subj, score = line.rstrip("\n").split(",")
            g.write(f"{stim},{subj},{1 + (float(score) - 1) * 9 / 4:.4f}\n")
    annotated = tmp_path / "annotated.jsonl"
    argv = ["annotate", "--manifest", str(path), "--scores", str(tmp_path / "scores.csv"),
            "--out", str(annotated), "--holdout-refs", "ref1"]
    assert cli_main(argv + ["--subjective", str(tmp_path / "ten.csv"),
                            "--report-dir", str(tmp_path / "reports")]) == 0, \
        capsys.readouterr().err
    mos = [r.mos for r in pl.Manifest.load(annotated).ok_rows() if r.mos is not None]
    assert max(mos) > 5.0 and min(mos) >= 1.0
    # the error histogram's bins widen with the scale: +-2.5 * 9 / 4 on [1, 10]
    hist = read_csv(tmp_path / "reports" / "annotation_errors.csv")
    assert (hist[0]["bin_left"], hist[-1]["bin_right"]) == ("-5.625", "5.625")
    assert sum(int(h["count"]) for h in hist) == 14  # the fit rows: ref0's 2 types x 7 levels

    with open(tmp_path / "ten.csv", "a") as g:  # one score past the manifest's scale
        g.write(f"{manifest.ok_rows()[0].sample_id},zextra,10.5\n")
    assert cli_main(argv + ["--subjective", str(tmp_path / "ten.csv")]) == 1
    assert "outside [1.0, 10.0]" in capsys.readouterr().err


def test_cli_train_divergence_exits_1_naming_the_step(tmp_path, refs_dir, capsys):
    out, manifest = build_dataset(tmp_path, refs_dir, distortions=(5,))
    for row in manifest.rows:
        row.pseudo_mos = 5.0 - 0.5 * row.level
    manifest.save(out / "manifest.jsonl")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "train": {**TINY_TRAIN, "lr": 1e300}}))
    ckpt = tmp_path / "m.ckpt"
    with np.errstate(all="ignore"):
        assert cli_main(["train", "--manifest", str(out / "manifest.jsonl"),
                         "--split", "test=ref1", "--out", str(ckpt),
                         "--config", str(cfg_path), "--loss-csv", str(tmp_path / "l.csv")]) == 1
    err = capsys.readouterr().err
    assert "error: training diverged at step 3: loss nan on sample ref0__d05_l" in err
    assert "Traceback" not in err
    assert not ckpt.exists() and not (tmp_path / "l.csv").exists()
