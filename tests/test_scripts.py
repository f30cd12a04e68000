"""The demo and ablation scripts run end to end on a tiny dataset."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


def test_demo_pipeline_then_residual_ablation(tmp_path):
    demo = tmp_path / "demo"
    done = run_script("run_demo_pipeline.py", "--out", str(demo), "--refs", "2",
                      "--distortions", "2,17", "--epochs", "1", "--width", "4", "--blocks", "1")
    assert done.returncode == 0, done.stderr
    for name in ("ds/manifest.jsonl", "scores.csv", "reports/annotation_report.txt",
                 "loss.csv", "model.ckpt", "eval/predictions.csv", "eval/eval_report.txt"):
        assert (demo / name).is_file(), name

    out = tmp_path / "ablation"
    done = run_script("run_ablation.py", "--manifest", str(demo / "ds" / "manifest.jsonl"),
                      "--split", "test=ref1", "--kind", "residual", "--out", str(out),
                      "--width", "4", "--fc-hidden", "4", "--epochs", "1")
    assert done.returncode == 0, done.stderr
    assert "== residual ablation ==" in done.stdout
    rows = (out / "ablation_residual.csv").read_text().splitlines()
    assert rows[0] == "config,plcc,srocc"
    assert [r.split(",")[0] for r in rows[1:]] == list("ABCD")
    assert "A: Without residual connection" in (out / "ablation_residual.txt").read_text()


def test_run_ablation_bad_split_exits_1_without_traceback(tmp_path):
    from pcqa import pipeline as pl
    manifest = tmp_path / "manifest.jsonl"
    pl.Manifest(seed=0, label_scale=(1.0, 5.0), references={"ref0": "ref0.ply"}).save(manifest)
    done = run_script("run_ablation.py", "--manifest", str(manifest), "--split", "test=refX",
                      "--kind", "residual", "--out", str(tmp_path / "ablation"))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and "refX" in done.stderr
    assert not (tmp_path / "ablation").exists()
