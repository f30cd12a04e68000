"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned here and nowhere else.
"""

import csv
import hashlib
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from pcqa import annotate as ann
from pcqa import frmetrics as fr
from pcqa import pipeline as pl
from pcqa.distort import (
    NATIVE_IDS, REGISTRY, DistortionSpec, anchor_boxes, apply_distortion,
    gaussian_snr_sigma,
)
from pcqa.pcio import PointCloud, estimate_normals, save_ply
from pcqa.sparsenn import (
    KERNEL_OFFSETS, ModelConfig, SparseTensor, TrainConfig, TrainSample,
    backward, build_kernel_map, conv_forward, forward, init_model,
    param_count, smooth_l1, train, voxelize,
)

from conftest import grid_cloud, random_cloud, shell_cloud, textured_ref
from test_frmetrics import brute_p2plane, brute_p2point, brute_psnr_yuv


def _report(criterion: int, detail: str, t0: float):
    print(f"[PASS] criterion {criterion}: {detail} ({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Correlation oracle
# ---------------------------------------------------------------------------


def _brute_pearson(p, q):
    n = len(p)
    mp = sum(p) / n
    mq = sum(q) / n
    num = sum((a - mp) * (b - mq) for a, b in zip(p, q))
    dp = sum((a - mp) ** 2 for a in p)
    dq = sum((b - mq) ** 2 for b in q)
    return num / np.sqrt(dp * dq)


def _brute_ranks(x):
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def test_criterion_1_correlation_oracle():
    t0 = time.time()
    r = np.random.default_rng(101)
    checked = 0
    tie_free_checked = 0
    while checked < 200:
        n = int(r.integers(2, 501))
        if r.random() < 0.5:  # tie-heavy pair
            p = r.integers(0, max(2, n // 4), n).astype(float)
            q = r.integers(0, max(2, n // 4), n).astype(float)
        else:
            p = r.normal(size=n)
            q = r.normal(size=n)
        if len(np.unique(p)) < 2 or len(np.unique(q)) < 2:
            continue
        checked += 1
        assert ann.plcc(p, q) == pytest.approx(_brute_pearson(p, q), abs=1e-9)
        rp, rq = _brute_ranks(list(p)), _brute_ranks(list(q))
        assert ann.srocc(p, q) == pytest.approx(_brute_pearson(rp, rq), abs=1e-9)
        if len(np.unique(p)) == n and len(np.unique(q)) == n:
            # tie-free: the rank-difference closed form applies
            d2 = sum((a - b) ** 2 for a, b in zip(rp, rq))
            closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            # equal up to the final-division rounding of two exact routes
            assert ann.srocc(p, q) == pytest.approx(closed, abs=1e-12)
            tie_free_checked += 1
    assert tie_free_checked >= 50
    assert time.time() - t0 < 5.0
    _report(1, f"200 pairs vs brute force (1e-9), {tie_free_checked} closed-form checks", t0)


# ---------------------------------------------------------------------------
# 2. Regression recovery
# ---------------------------------------------------------------------------


def test_criterion_2_regression_recovery():
    t0 = time.time()
    r = np.random.default_rng(10)
    cases = {
        "logistic4": (ann.RegressionModel("logistic4", (4.8, 1.2, 45.0, 6.0), 0, 0, True), (20, 70)),
        "logistic5": (ann.RegressionModel("logistic5", (3.0, 0.9, 45.0, 0.01, 2.8), 0, 0, True), (20, 70)),
        "cubic4": (ann.RegressionModel("cubic4", (0.002, -0.05, 0.5, 1.0), 0, 0, True), (0, 10)),
    }
    for kind, (truth, qrange) in cases.items():
        qs = np.sort(r.uniform(*qrange, 50))
        clean = np.asarray(ann.eval_regression(truth, qs))
        model = ann.fit_regression(kind, qs, clean + r.normal(0, 0.01, 50))
        curve_rmse = float(np.sqrt(np.mean(
            (np.asarray(ann.eval_regression(model, qs)) - clean) ** 2)))
        assert curve_rmse <= 0.05, (kind, curve_rmse)

    # monotone-saturating data: the 5-parameter logistic must fit best
    truth5 = ann.RegressionModel("logistic5", (2.6, 1.8, 2.0, 0.3, 1.9), 0, 0, True)
    qs = np.sort(r.uniform(0, 4, 60))
    targets = np.asarray(ann.eval_regression(truth5, qs)) + r.normal(0, 0.01, 60)
    rmse = {k: ann.fit_regression(k, qs, targets).rmse
            for k in ("logistic4", "logistic5", "cubic4")}
    assert rmse["logistic5"] <= rmse["logistic4"]
    assert rmse["logistic5"] <= rmse["cubic4"]
    assert time.time() - t0 < 30.0
    _report(2, "self-recovery RMSE <= 0.05; logistic-5 best on saturating data", t0)


# ---------------------------------------------------------------------------
# 3. Pseudo-MOS pipeline end-to-end
# ---------------------------------------------------------------------------


def test_criterion_3_pseudo_mos_pipeline(tmp_path):
    t0 = time.time()
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    rng = np.random.default_rng(99)
    for i in range(3):
        save_ply(textured_ref(rng, n=1400, extent=120), refs_dir / f"ref{i}.ply")

    cfg = pl.Config(seed=7, distortions=(2, 5, 11, 15, 17, 19))
    out = tmp_path / "ds"
    manifest = pl.cmd_build(refs_dir, out, cfg, jobs=1)
    assert all(r.status == "ok" for r in manifest.rows)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv", jobs=1)

    # planted subjective scores: hidden monotone function of level + noise,
    # plus two bad raters the screening must reject
    srng = np.random.default_rng(4242)
    with open(tmp_path / "subjective.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(20):
            bias = srng.uniform(-0.15, 0.15)
            for row in manifest.ok_rows():
                base = 4.2 - 2.6 * (row.level - 1) / 6
                w.writerow([row.sample_id, f"subj{subj:02d}",
                            f"{np.clip(base + bias + srng.normal(0, 0.55), 1, 5):.3f}"])
        for k, row in enumerate(manifest.ok_rows()):
            w.writerow([row.sample_id, "badconst", "3.0"])
            w.writerow([row.sample_id, "badbinary", "1.0" if k % 2 else "5.0"])

    result = pl.cmd_annotate(
        out / "manifest.jsonl", tmp_path / "scores.csv", tmp_path / "subjective.csv",
        tmp_path / "annotated.jsonl", report_dir=tmp_path / "reports",
        holdout_refs=("ref2",))
    assert result.holdout_srocc is not None
    assert result.holdout_srocc >= 0.85, result.holdout_srocc
    assert time.time() - t0 < 300.0
    _report(3, f"holdout SROCC {result.holdout_srocc:.4f} >= 0.85 "
               f"(fit {result.fit_srocc:.4f})", t0)


# ---------------------------------------------------------------------------
# 4. Subject screening
# ---------------------------------------------------------------------------


def test_criterion_4_beta2_screening():
    t0 = time.time()
    rows = []
    rows += [(f"s{i}", "uniform", v) for i, v in enumerate([1, 2, 3, 4, 5] * 8)]
    r = np.random.default_rng(5)
    gauss = np.clip(3.0 + 0.6 * r.normal(size=40), 1, 5)
    rows += [(f"s{i}", "gauss", v) for i, v in enumerate(gauss)]
    rows += [(f"s{i}", "const", 3.0) for i in range(40)]
    ratings = ann.RatingMatrix([ann.Rating(s, subj, float(v)) for s, subj, v in rows])
    result = ann.screen_subjects(ratings)
    assert result.kept == ["gauss"]
    assert result.rejected["const"] == "degenerate"
    assert result.rejected["uniform"].startswith("beta2=1.7")
    assert ann.subject_kurtosis(np.array([1, 2, 3, 4, 5] * 8, dtype=float)) == pytest.approx(1.7)
    # deterministic: identical outcome on a re-run
    again = ann.screen_subjects(ratings)
    assert (again.kept, again.rejected) == (result.kept, result.rejected)
    _report(4, "uniform rejected (beta2=1.7), gaussian kept, constant degenerate", t0)


# ---------------------------------------------------------------------------
# 5. Distortion contracts
# ---------------------------------------------------------------------------


def _severity(ref, deg, did):
    if did in (11, 19):
        return 1.0 - len(deg) / len(ref)
    if did == 24:
        return fr.p2point(ref, deg, "mse", symmetric=True)
    if REGISTRY[did].moves_geometry:
        return np.abs(deg.positions - ref.positions).mean()
    return np.abs(deg.colors.astype(float) - ref.colors.astype(float)).mean()


def test_criterion_5_distortion_contracts():
    t0 = time.time()
    r = np.random.default_rng(2024)

    # downsample counts exact per level
    cloud1k = PointCloud(r.uniform(0, 50, (1000, 3)), r.integers(0, 256, (1000, 3)))
    expected = (850, 700, 550, 400, 300, 200, 100)
    for level in range(1, 8):
        out = apply_distortion(cloud1k, DistortionSpec(11, level, seed=1))
        assert len(out) == expected[level - 1]

    # local anchor totals
    cloud = textured_ref(r, n=1600, extent=100)
    totals = (1, 2, 4, 6, 9, 12, 16)
    from pcqa.distort import rng_for_spec
    for level in range(1, 8):
        centers, _ = anchor_boxes(cloud, level, rng_for_spec(DistortionSpec(19, level, 5)))
        assert len(centers) == totals[level - 1]

    # color crop bounds over >= 1e6 fuzzed points
    color_ids = [d for d in NATIVE_IDS if not REGISTRY[d].moves_geometry]
    n_fuzz = 62_500
    fuzz = PointCloud(r.uniform(0, 60, (n_fuzz, 3)), r.integers(0, 256, (n_fuzz, 3)))
    total_checked = 0
    for did in color_ids:
        level = int(r.integers(1, 8))
        out = apply_distortion(fuzz, DistortionSpec(did, level, seed=did))
        assert out.colors.min() >= 0 and out.colors.max() <= 255
        total_checked += len(out)
    assert total_checked >= 1_000_000

    # Gaussian-SNR calibration at every level over 1e5 points
    big = PointCloud(r.uniform(0, 10, (100_000, 3)),
                     np.clip(r.normal(128, 40, (100_000, 3)).round(), 0, 255))
    signal = big.colors.astype(float)
    for level, target in enumerate((13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0), start=1):
        sigma = gaussian_snr_sigma(big.colors, REGISTRY[2].param(level))
        noise = r.normal(0, sigma, signal.shape)
        snr = 10 * np.log10(np.mean(signal**2) / np.mean(noise**2))
        assert abs(snr - target) <= 0.3, (level, snr)

    # monotone severity in level for every native distortion over 5 seeds
    for did in NATIVE_IDS:
        means = []
        for level in range(1, 8):
            vals = [_severity(cloud, apply_distortion(cloud, DistortionSpec(did, level, seed)), did)
                    for seed in range(5)]
            means.append(float(np.mean(vals)))
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:])), (did, means)

    assert time.time() - t0 < 180.0
    _report(5, "counts, anchors, crop (1e6 pts), SNR +-0.3dB, monotone severity x23", t0)


# ---------------------------------------------------------------------------
# 6. FR metric oracles
# ---------------------------------------------------------------------------


def test_criterion_6_fr_metric_oracles():
    t0 = time.time()
    r = np.random.default_rng(606)
    for _ in range(12):
        ref = random_cloud(r, n=int(r.integers(5, 201)))
        deg = random_cloud(r, n=int(r.integers(5, 201)))
        for pooling in ("mse", "hausdorff"):
            assert fr.p2point(ref, deg, pooling) == pytest.approx(
                brute_p2point(ref, deg, pooling), abs=1e-9)
            assert fr.psnr_yuv(ref, deg, pooling) == pytest.approx(
                brute_psnr_yuv(ref, deg, pooling), abs=1e-9)
        refn, _ = estimate_normals(ref, k=min(8, len(ref)))
        for pooling in ("mse", "hausdorff"):
            assert fr.p2plane(refn, deg, pooling) == pytest.approx(
                brute_p2plane(refn, deg, pooling), abs=1e-9)
        # Hausdorff pooling dominates MSE pooling universally
        assert fr.p2point(ref, deg, "hausdorff") >= fr.p2point(ref, deg, "mse")
        assert fr.p2plane(refn, deg, "hausdorff") >= fr.p2plane(refn, deg, "mse")
    ident = random_cloud(r, n=100)
    for metric in fr.BUILTIN_METRICS:
        assert fr.compute_metric(metric, ident, ident) == 100.0
    _report(6, "p2point/p2plane/PSNRyuv vs O(N^2) oracles (1e-9); caps; pooling order", t0)


# ---------------------------------------------------------------------------
# 7. Sparse engine
# ---------------------------------------------------------------------------


def test_criterion_7_sparse_engine():
    t0 = time.time()
    r = np.random.default_rng(707)

    # dense equivalence on a fully occupied 5^3 grid
    n = 5
    cells = np.array(list(itertools.product(range(n), repeat=3)))
    feats = r.normal(size=(len(cells), 3))
    w = r.normal(size=(27, 3, 4))
    coords = np.concatenate([cells, np.zeros((len(cells), 1), dtype=np.int64)], axis=1)
    t = SparseTensor(coords, feats)
    sparse_out = conv_forward(w, t.feats, build_kernel_map(t))
    grid = np.zeros((n, n, n, 3))
    grid[cells[:, 0], cells[:, 1], cells[:, 2]] = feats
    for row, c in enumerate(t.coords):
        acc = np.zeros(4)
        for k, (dx, dy, dz) in enumerate(KERNEL_OFFSETS):
            xx, yy, zz = c[0] + dx, c[1] + dy, c[2] + dz
            if 0 <= xx < n and 0 <= yy < n and 0 <= zz < n:
                acc += grid[xx, yy, zz] @ w[k]
        np.testing.assert_allclose(sparse_out[row], acc, atol=1e-6)

    # permutation invariance of forward()
    cloud = grid_cloud(r, n=150)
    model = init_model(ModelConfig(blocks=2, width=8, fc_hidden=6), seed=3)
    q1, _ = forward(model, voxelize(cloud, 1.0))
    perm = r.permutation(len(cloud))
    q2, _ = forward(model, voxelize(PointCloud(cloud.positions[perm], cloud.colors[perm]), 1.0))
    assert abs(q1 - q2) <= 1e-9

    # all-parameter finite differences on >= 10 seeds
    h = 1e-5
    for seed in range(10):
        rs = np.random.default_rng(800 + seed)
        pts = np.unique(rs.integers(0, 4, (60, 3)), axis=0)[:14]
        tt = SparseTensor(
            np.concatenate([pts, np.zeros((len(pts), 1), dtype=np.int64)], axis=1),
            rs.normal(size=(len(pts), 3)))
        cfg = ModelConfig(blocks=2, width=3, fc_hidden=3)
        m = init_model(cfg, seed=900 + seed)
        label = 3.1
        q, cache = forward(m, tt, training=True)
        _, dq = smooth_l1(q, label)
        grads = backward(m, cache, dq)
        for name in sorted(m.params):
            arr = m.params[name]
            g = np.asarray(grads[name])
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                qp, _ = forward(m, tt, training=True)
                lp = smooth_l1(qp, label)[0]
                arr[idx] = orig - h
                qm, _ = forward(m, tt, training=True)
                lm = smooth_l1(qm, label)[0]
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6)
                assert rel <= 1e-4, (seed, name, idx, fd, g[idx])

    # smooth-L1 boundary continuity is exact
    assert smooth_l1(1.0, 0.0) == (0.5, 1.0)
    assert smooth_l1(-1.0, 0.0) == (0.5, -1.0)
    assert smooth_l1(np.nextafter(1.0, 0.0), 0.0)[0] == pytest.approx(0.5, abs=1e-15)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, "dense equivalence, permutation invariance, FD on 10 seeds, smooth-L1", t0)


# ---------------------------------------------------------------------------
# 8. Training sanity (overfit)
# ---------------------------------------------------------------------------


def test_criterion_8_training_overfit():
    t0 = time.time()
    r = np.random.default_rng(202)
    samples = [
        TrainSample(f"s{i}", shell_cloud(r, n=150 + 10 * i, radius=7 + i % 3), 1.5 + 0.5 * i)
        for i in range(8)
    ]
    assert all(len(s.cloud) <= 500 for s in samples)
    cfg_model = ModelConfig()  # 4 blocks, width 64
    count = param_count(init_model(cfg_model, seed=5))
    assert abs(count - 1_200_000) / 1_200_000 <= 0.20

    cfg = TrainConfig(lr=0.02, lr_decay=1.0, accum=8, epochs=250, max_steps=2000,
                      scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0), seed=3)
    curves = []
    final_means = []
    for _ in range(2):  # two same-seed runs must agree exactly
        model = init_model(cfg_model, seed=5)
        result = train(model, samples, cfg)
        curves.append([(p.step, p.epoch, p.lr, p.loss) for p in result.losses])
        final_means.append(float(np.mean([p.loss for p in result.losses[-8:]])))
    assert curves[0] == curves[1]
    assert len(curves[0]) == 2000
    assert final_means[0] <= 0.01, final_means[0]
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, f"mean loss {final_means[0]:.5f} <= 0.01 in 2000 steps; "
               f"{count} params; identical same-seed curves", t0)


# ---------------------------------------------------------------------------
# 9. Ablation harness
# ---------------------------------------------------------------------------


def test_criterion_9_ablation_harness(tmp_path):
    t0 = time.time()
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    rng = np.random.default_rng(77)
    for i in range(2):
        save_ply(grid_cloud(rng, n=200, extent=40), refs_dir / f"ref{i}.ply")
    cfg = pl.Config(seed=3, distortions=(5, 17))
    out = tmp_path / "ds"
    manifest = pl.cmd_build(refs_dir, out, cfg, jobs=1)
    pl.cmd_score(out / "manifest.jsonl", tmp_path / "scores.csv")
    r = np.random.default_rng(5)
    with open(tmp_path / "subjective.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(12):
            for row in manifest.ok_rows():
                base = 4.2 - 2.6 * (row.level - 1) / 6
                w.writerow([row.sample_id, f"s{subj}",
                            f"{np.clip(base + r.normal(0, 0.55), 1, 5):.3f}"])
    pl.cmd_annotate(out / "manifest.jsonl", tmp_path / "scores.csv",
                    tmp_path / "subjective.csv", out / "manifest.jsonl",
                    holdout_refs=())

    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    base_model = ModelConfig(blocks=1, width=8, fc_hidden=6)
    tcfg = TrainConfig(lr=0.02, lr_decay=1.0, accum=2, epochs=2, seed=0,
                       scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0))

    depth = pl.run_ablation(out / "manifest.jsonl", split, base_model, tcfg,
                            "depth", tmp_path / "ablation")
    assert sorted(depth) == [1, 2, 3, 4, 5]
    text = (tmp_path / "ablation" / "ablation_depth.txt").read_text()
    lines = text.splitlines()
    assert "1 block" in lines[0] and "5 blocks" in lines[0]
    assert lines[1].startswith("PLCC") and lines[2].startswith("SROCC")

    residual = pl.run_ablation(out / "manifest.jsonl", split, base_model, tcfg,
                               "residual", tmp_path / "ablation")
    assert sorted(residual) == ["A", "B", "C", "D"]
    text = (tmp_path / "ablation" / "ablation_residual.txt").read_text()
    for desc in pl.RESIDUAL_DESCRIPTIONS.values():
        assert desc in text
    csv_rows = list(csv.DictReader(open(tmp_path / "ablation" / "ablation_residual.csv")))
    assert [row["config"] for row in csv_rows] == ["A", "B", "C", "D"]
    _report(9, "depth 1-5 and residual A-D runnable; table-shaped reports emitted", t0)


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------


def _run_pipeline(workdir: Path, refs_dir: Path, jobs: int) -> str:
    cfg = pl.Config(seed=11, distortions=(5, 11, 17))
    out = workdir / "ds"
    manifest = pl.cmd_build(refs_dir, out, cfg, jobs=jobs)
    pl.cmd_score(out / "manifest.jsonl", workdir / "scores.csv", jobs=jobs)
    r = np.random.default_rng(5)
    with open(workdir / "subjective.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(10):
            for row in manifest.ok_rows():
                base = 4.2 - 2.6 * (row.level - 1) / 6
                w.writerow([row.sample_id, f"s{subj}",
                            f"{np.clip(base + r.normal(0, 0.55), 1, 5):.3f}"])
    pl.cmd_annotate(out / "manifest.jsonl", workdir / "scores.csv",
                    workdir / "subjective.csv", out / "manifest.jsonl",
                    report_dir=workdir / "reports", holdout_refs=())
    split = pl.SplitSpec(train=("ref0",), test=("ref1",))
    tcfg = TrainConfig(lr=0.02, lr_decay=0.99, accum=2, epochs=2, seed=0,
                       scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0))
    pl.cmd_train(out / "manifest.jsonl", split, ModelConfig(blocks=1, width=8, fc_hidden=6),
                 tcfg, workdir / "model.ckpt", loss_csv=workdir / "loss.csv")
    pl.cmd_eval(out / "manifest.jsonl", split, workdir / "model.ckpt", workdir / "eval")

    digest = hashlib.sha256()
    for p in sorted(workdir.rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(workdir)).encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.time()
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    rng = np.random.default_rng(77)
    for i in range(2):
        save_ply(grid_cloud(rng, n=220, extent=45), refs_dir / f"ref{i}.ply")

    digests = {
        "run1_jobs1": _run_pipeline(tmp_path / "run1", refs_dir, jobs=1),
        "run2_jobs1": _run_pipeline(tmp_path / "run2", refs_dir, jobs=1),
        "run3_jobs8": _run_pipeline(tmp_path / "run3", refs_dir, jobs=8),
    }
    assert len(set(digests.values())) == 1, digests
    _report(10, f"byte-identical across two runs and jobs 1 vs 8 "
                f"({digests['run1_jobs1'][:12]})", t0)
