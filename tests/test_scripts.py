"""The demo and ablation scripts run end to end on a tiny dataset, and a
fresh interpreter loads only what its command needs.

The in-process tests run after the test modules have imported SciPy, so
what a user's process loads is checked here, in subprocesses.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(pass_s: float, items_per_s: float, annotate_s: float, correct=True) -> str:
    """The last three stdout lines of a `benchmark/run.py --trace 0` run."""
    record = {"workload": "dataset", "seed": 0, "trace": 0, "metrics": {
        "annotate_s": {"value": annotate_s, "unit": "s", "q1": 0, "q3": 0, "n": 1,
                       "passes": [annotate_s]},
        "pool_busy_frac": {"value": 0.5, "unit": "ratio"},
        "setup_s": {"value": 0.2, "unit": "s", "repeats": [0.2], "import_s": [0.1]},
    }}
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1, "metrics": {
        "pass_s": {"value": pass_s, "unit": "s"},
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "setup_s": {"value": 0.2, "unit": "s"},
    }}
    return "a progress line\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def test_bench_pairs_summary_medians_quartiles_and_wins():
    bp = _bench_pairs()
    parent = [bp.parse_run(_fake_run(p, i, a)) for p, i, a in
              [(8.0, 100.0, 6.0), (9.0, 90.0, 7.0), (7.0, 110.0, 5.0), (10.0, 95.0, 8.0)]]
    change = [bp.parse_run(_fake_run(p, i, a)) for p, i, a in
              [(4.0, 100.0, 3.0), (9.5, 91.0, 2.0), (3.0, 120.0, 2.5), (5.0, 80.0, 3.5)]]
    summary = bp.summarise(list(zip(parent, change)), {"items_per_s": "higher"})

    pass_s = summary["pass_s"]
    assert (pass_s["unit"], pass_s["better"]) == ("s", "lower")
    assert pass_s["parent_median"] == 8.5 and pass_s["change_median"] == 4.5
    assert (pass_s["parent_q1"], pass_s["parent_q3"]) == (7.25, 9.75)  # exclusive quartiles
    assert pass_s["wins"] == 3 and pass_s["pairs"] == 4  # pair 2 is lost
    assert pass_s["parent"] == [8.0, 9.0, 7.0, 10.0]

    # a tie counts for neither side; a higher rate wins
    assert summary["items_per_s"]["better"] == "higher"
    assert summary["items_per_s"]["wins"] == 2
    # per-pass timings of the record line, with the direction from the unit
    assert summary["annotate_s"]["wins"] == 4
    assert summary["pool_busy_frac"]["better"] == "higher"
    assert summary["pool_busy_frac"]["wins"] == 0
    assert summary["setup_s"]["parent_median"] == 0.2


_SPREAD = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 9.0]  # quartiles 6.75, 13.25


@pytest.mark.parametrize("parent, change, better, bound, want", [
    # 10 of 10 wins by 2, more than the parent's quartile distance of 0.4
    ([10.0, 10.2, 9.8, 10.3, 9.7, 10.1, 9.9, 10.4, 9.6, 10.0],
     [8.0, 8.2, 7.8, 8.3, 7.7, 8.1, 7.9, 8.4, 7.6, 8.0], "lower", 0.25, "gain"),
    ([100.0, 102.0, 98.0, 101.0, 99.0], [130.0, 131.0, 129.0, 128.0, 132.0],
     "higher", 0.25, "gain"),
    # 8 of 10 wins is too few, however large the difference
    ([10.0] * 10, [5.0] * 8 + [11.0] * 2, "lower", 0.25, "flat"),
    # 10 of 10 wins, but by less than the parent's quartile distance
    ([10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 11.0, 9.0, 10.5, 9.5], [9.9] * 10, "lower", 0.25, "flat"),
    # the change's median is 30% worse, beyond the 25% bound
    ([10.0] * 10, [13.0] * 10, "lower", 0.25, "regression"),
    ([100.0] * 5, [70.0] * 5, "higher", 0.25, "regression"),
    # 20% worse is inside the bound; a per-layer metric has no bound at all
    ([10.0] * 10, [12.0] * 10, "lower", 0.25, "flat"),
    ([10.0] * 10, [30.0] * 10, "lower", None, "flat"),
    # the parent's quartile distance, 6.5, exceeds 25% of its median, 10
    (_SPREAD, _SPREAD[::-1], "lower", 0.25, "unresolved"),
    # ... unless every change run beats every parent run
    (_SPREAD, [4.9] * 10, "lower", 0.25, "flat"),
])
def test_bench_pairs_verdict(parent, change, better, bound, want):
    bp = _bench_pairs()
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert bp.verdict(parent, change, better, wins, q3 - q1, bound) == want


def test_bench_pairs_summary_verdicts_use_the_end_to_end_bounds():
    bp = _bench_pairs()
    parent = [bp.parse_run(_fake_run(10.0 + i % 2, 100.0, 6.0)) for i in range(10)]
    change = [bp.parse_run(_fake_run(13.5, 100.0, 9.0)) for _ in range(10)]
    summary = bp.summarise(list(zip(parent, change)), {}, {"pass_s": 0.25})
    assert summary["pass_s"]["verdict"] == "regression"  # 10.5 -> 13.5 s, +29%
    assert summary["annotate_s"]["verdict"] == "flat"  # +50%, but no bound
    assert summary["items_per_s"]["verdict"] == "flat"
    assert bp.summarise(list(zip(change, parent)), {})["pass_s"]["verdict"] == "gain"


def test_bench_pairs_parse_run_keeps_correctness():
    bp = _bench_pairs()
    run = bp.parse_run(_fake_run(1.0, 2.0, 0.5, correct=False))
    assert run["correct"] is False
    assert run["metrics"]["pass_s"] == (1.0, "s")
    assert run["metrics"]["annotate_s"] == (0.5, "s")


def test_bench_pairs_runs_both_sides_from_sibling_copies(tmp_path, monkeypatch):
    bp = _bench_pairs()
    root = tmp_path / "repo"  # a working tree whose imports left bytecode behind
    for name in ("src/pcqa", "benchmark"):
        (root / name / "__pycache__").mkdir(parents=True)
        (root / name / "__pycache__" / "m.cpython.pyc").write_bytes(b"")
        (root / name / "m.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setattr(bp, "ROOT", root)
    monkeypatch.setattr(bp, "export_revision", lambda rev, dest: dest.mkdir() or "0" * 40)
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, sorted(p.relative_to(checkout).as_posix()
                                      for p in checkout.rglob("*"))))
        return bp.parse_run(_fake_run(1.0, 2.0, 0.5))

    monkeypatch.setattr(bp, "run_benchmark", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "dataset",
                                      "--pairs", "2", "--out", str(tmp_path / "b.json")])
    assert bp.main() == 0
    parent, change = runs[0][0], runs[1][0]
    assert [c for c, _ in runs] == [parent, change, change, parent]  # alternating
    assert parent.parent == change.parent and root not in change.parents
    assert runs[1][1] == ["benchmark", "benchmark/m.py", "src", "src/pcqa", "src/pcqa/m.py"]
    assert not change.exists()  # the temporary directory is gone


def test_bench_pairs_runs_as_long_as_the_benchmark_by_default(tmp_path, monkeypatch):
    bp = _bench_pairs()
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert run_seconds > 0
    root = tmp_path / "repo"
    for name in ("src", "benchmark"):
        (root / name).mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [],
                                                     "run_seconds": run_seconds}))
    monkeypatch.setattr(bp, "ROOT", root)
    monkeypatch.setattr(bp, "export_revision", lambda rev, dest: dest.mkdir() or "0" * 40)
    seconds = []

    def fake_run(checkout, workload, seed, s):
        seconds.append(s)
        return bp.parse_run(_fake_run(1.0, 2.0, 0.5))

    monkeypatch.setattr(bp, "run_benchmark", fake_run)
    argv = ["bench_pairs.py", "--workload", "dataset", "--pairs", "1",
            "--out", str(tmp_path / "b.json")]
    monkeypatch.setattr(sys, "argv", argv)
    assert bp.main() == 0
    assert seconds == [run_seconds] * 2
    assert json.loads((tmp_path / "b.json").read_text())["seconds"] == run_seconds
    monkeypatch.setattr(sys, "argv", argv + ["--seconds", "0"])
    assert bp.main() == 0
    assert seconds[2:] == [0.0] * 2
