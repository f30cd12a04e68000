"""The demo and ablation scripts run end to end on a tiny dataset, and a
fresh interpreter loads only what its command needs.

The in-process tests run after the test modules have imported SciPy, so
what a user's process loads is checked here, in subprocesses.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pcqa import pipeline as pl
from pcqa.pcio import save_ply

from conftest import grid_cloud

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` with this checkout's `src` on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / name), *args)


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


def loaded(done: subprocess.CompletedProcess) -> str:
    """The last stdout line of a child that ends by printing what it loaded."""
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_help_in_a_fresh_interpreter():
    done = run_python("-m", "pcqa.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage: pcqa" in done.stdout


def test_import_loads_neither_scipy_nor_the_process_pool():
    done = run_python("-c", "import sys; import pcqa.cli, pcqa.pipeline, pcqa.sparsenn; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                            " or m == 'concurrent.futures.process'))")
    assert loaded(done) == "[]"


TRAIN_THEN_EVAL = """
import sys
from pcqa import pipeline as pl
from pcqa.sparsenn import ModelConfig, TrainConfig

manifest, out = sys.argv[1:]
split = pl.SplitSpec(train=("ref0",), test=("ref1",))
model = ModelConfig(blocks=1, width=4, fc_hidden=4)
pl.cmd_train(manifest, split, model, TrainConfig(accum=1, max_steps=1), out + "/m.ckpt")
pl.cmd_eval(manifest, split, out + "/m.ckpt", out + "/eval")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_train_and_eval_never_load_scipy(tmp_path):
    rng = np.random.default_rng(5)
    (tmp_path / "clouds").mkdir()
    rows = []
    for i, ref in enumerate(["ref0", "ref1", "ref1"]):
        save_ply(grid_cloud(rng, n=40, extent=10), tmp_path / "clouds" / f"s{i}.ply")
        rows.append(pl.ManifestRow(sample_id=f"s{i}", reference_id=ref, distortion_id=5,
                                   level=i + 1, seed=0, path=f"s{i}.ply", pseudo_mos=2.0 + i))
    pl.Manifest(seed=0, label_scale=(1.0, 5.0), references={"ref0": "r0.ply", "ref1": "r1.ply"},
                rows=rows).save(tmp_path / "manifest.jsonl")
    done = run_python("-c", TRAIN_THEN_EVAL, str(tmp_path / "manifest.jsonl"), str(tmp_path))
    assert loaded(done) == "[]"
    assert (tmp_path / "eval" / "predictions.csv").read_text().count("\n") == 3


# Each task reports whether SciPy was loaded when its worker picked it up.
POOL_PROBE = """
import sys
from pcqa import pipeline as pl

def scipy_loaded(_):
    return "scipy.spatial" in sys.modules

assert "scipy.spatial" not in sys.modules
print(pl._map(scipy_loaded, list(range(8)), jobs=2))
"""


def test_pool_workers_inherit_scipy_from_the_parent():
    assert loaded(run_python("-c", POOL_PROBE)) == str([True] * 8)
