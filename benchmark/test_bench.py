"""Tests of the benchmark itself (not of pcqa).

    PYTHONPATH=src python3 -m pytest -q benchmark/test_bench.py
"""

import csv
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads as wls  # noqa: E402
from spans import Span, Tracer, self_times_ns  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0, 100, None),
        Span(1, "a", 10, 30, 0),
        Span(2, "a.x", 12, 20, 1),
        Span(3, "b", 25, 40, 0),     # overlaps a: union of [10,30] and [25,40] is 30
        Span(4, "c", 90, 120, 0),    # runs past the parent: clipped to [90,100]
    ]
    assert self_times_ns(spans) == [100 - 30 - 10, 20 - 8, 8, 15, 30]


def _bindings():
    """Every module-level binding of the pcqa modules plus traced class attrs."""
    mods = {k: m for k, m in sys.modules.items() if k.startswith("pcqa") and m}
    out = {(k, name): value for k, m in mods.items() for name, value in vars(m).items()}
    idx = sys.modules["pcqa.pcio"].SpatialIndex
    out.update({("SpatialIndex", k): v for k, v in vars(idx).items()})
    return out


def test_wrappers_are_removed_after_a_traced_run():
    from pcqa import frmetrics as fr
    from pcqa.sparsenn import ModelConfig, init_model, predict

    before = _bindings()
    rng = np.random.default_rng(0)
    cloud = wls.textured_cloud(rng, 300)
    model = init_model(ModelConfig(blocks=1, width=4), seed=0)
    tracer = Tracer("test")
    probes.install(tracer)
    try:
        assert _bindings() != before
        fr.compute_metric("M-p2pl", cloud, cloud)
        predict(model, cloud)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"frmetrics.compute_metric", "pcio.estimate_normals",
            "pcio.SpatialIndex.nearest", "model.forward", "layers.conv_forward"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # untraced calls record nothing
    n = len(tracer.spans)
    predict(model, cloud)
    assert len(tracer.spans) == n


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in probes.PER_LAYER]


class SmallDataset(wls.Dataset):
    """The dataset workload's types and ratings on smaller clouds."""

    rated_sizes = (300, 300, 300)
    unrated_sizes = (200,)


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    wl = SmallDataset(seed=3)
    root = tmp_path_factory.mktemp("ds")
    wl.write_inputs(root)
    wl.setup(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        res = wl.run_pass("p", jobs=1)
        clean = wl.check(res, None)
    finally:
        os.chdir(cwd)
    return wl, root, res, clean


def _check(wl, root, res, expected):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return wl.check(res, expected)
    finally:
        os.chdir(cwd)


def _rewrite_score(path: Path, change) -> None:
    rows = list(csv.reader(open(path, newline="")))
    rows[1][3] = change(rows[1][3])
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def test_clean_dataset_pass_passes_the_gate(small_pass):
    wl, root, res, clean = small_pass
    assert clean.failed == 0, clean.problems
    assert clean.attempted > 4 * 7 * 7


def test_flipped_score_fails_the_gate(small_pass):
    wl, root, res, clean = small_pass
    expected = {"digests": dict(res.outputs["digests"])}
    scores = root / "p" / "scores.csv"
    original = scores.read_text()
    try:
        _rewrite_score(scores, lambda v: repr(float(v) + 1e-6))
        flipped = _check(wl, root, res, expected)
        assert flipped.failed == 1
        assert "scores.csv differs" in flipped.problems[0]

        _rewrite_score(scores, lambda v: "nan")
        bad = _check(wl, root, res, expected)
        assert bad.failed == 2  # the non-finite score and the digest
    finally:
        scores.write_text(original)
    assert _check(wl, root, res, expected).failed == 0


@pytest.mark.parametrize("cls", [wls.Dataset, wls.Train, wls.Infer])
def test_seed_changes_inputs_not_shape(cls):
    a, b = cls(seed=0), cls(seed=1)
    assert getattr(a, "sample_ids", None) == getattr(b, "sample_ids", None)
    assert getattr(a, "steps", None) == getattr(b, "steps", None)
    clouds_a = getattr(a, "refs", None) or a.clouds
    clouds_b = getattr(b, "refs", None) or b.clouds
    assert clouds_a.keys() == clouds_b.keys()
    pairs = [(clouds_a[k].positions, clouds_b[k].positions) for k in clouds_a]
    assert all(len(p) == len(q) for p, q in pairs)
    assert any(not np.array_equal(p, q) for p, q in pairs)


def test_non_finite_loss_fails_the_gate(tmp_path):
    wl = wls.Train.__new__(wls.Train)
    wl.steps, wl.seed = 3, 0
    (tmp_path / "loss.csv").write_text(
        "step,epoch,lr,loss\n1,0,0.001,0.5\n2,0,0.001,nan\n3,0,0.001,0.25\n")
    res = wls.PassResult({}, {"out": str(tmp_path)})
    chk = wl.check(res, None)
    assert (chk.attempted, chk.failed) == (4, 1)
