"""The benchmark's three seeded workloads.

Each workload makes its inputs from the seed (pure NumPy, untimed), writes
them through the program's own writers in `setup` (timed as set-up), runs
one pass through the public `pcqa.pipeline` entry points in `run_pass`
(timed) and checks every output of the pass in `check` (untimed).

All paths handed to the program are relative to the set-up directory, which
is the working directory during a pass, so manifests and score files do not
depend on where the checkout lives and their digests can be recorded.
"""

from __future__ import annotations

import csv
import hashlib
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pcqa import frmetrics as fr
from pcqa import pipeline as pl
from pcqa.pcio import PointCloud, save_ply
from pcqa.sparsenn import ModelConfig, TrainConfig, init_model, save_checkpoint


# ---------------------------------------------------------------------------
# Input generators. Frozen copies of the test-suite generators: the benchmark
# must keep producing the same inputs when the tests' helpers change.
# ---------------------------------------------------------------------------


def textured_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    """Blobby surface with smooth colour gradients. The extent grows with
    the point count so every size has about 1.05 occupied neighbours per
    voxel at voxel size 1 (extent 120 at 1400 points)."""
    extent = round(120 * math.sqrt(n / 1400))
    base = rng.normal(size=(n * 2, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    r = extent / 2 * (0.8 + 0.2 * rng.random(len(base)))[:, None]
    pts = np.unique(np.floor(base * r + extent / 2).astype(int), axis=0)
    rng.shuffle(pts)
    pts = pts[:n].astype(float)
    col = np.stack([
        128 + 100 * np.sin(pts[:, 0] / 17),
        128 + 100 * np.cos(pts[:, 1] / 23),
        128 + 100 * np.sin(pts[:, 2] / 13)], axis=1)
    col = np.clip(np.round(col + rng.normal(0, 8, col.shape)), 0, 255)
    return PointCloud(pts, col)


def shell_cloud(rng: np.random.Generator, n: int, radius: float) -> PointCloud:
    """Integer sphere shell (about 3.2 occupied neighbours per voxel)."""
    v = rng.normal(size=(n * 4, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = np.unique(np.floor(v * radius).astype(int), axis=0)
    rng.shuffle(pts)
    pts = pts[:n]
    col = rng.integers(0, 256, (len(pts), 3))
    return PointCloud(pts.astype(float), col)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Max of this process's and its waited-for children's peak RSS, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class PassResult:
    """Timings (seconds) and named outputs of one pass."""

    times: dict[str, float]
    outputs: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    """Operations attempted and failed in one pass, plus failed check names."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, what: str) -> None:
        """One correctness check: counts as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# dataset: build -> score -> annotate
# ---------------------------------------------------------------------------


class Dataset:
    """LS-PCQA-style dataset construction: distortion synthesis, FR scoring
    and pseudo-MOS annotation over 6 references x 7 types x 7 levels.

    Three rated references (`lab*`) carry planted subjective scores: 20 raters
    whose scores are a hidden monotone function of the level plus noise, and
    2 bad raters that screening must reject; `lab2` is held out. Their content,
    the ratings and the dataset seed are fixed, so the annotation fits (and the
    Nelder-Mead work they cost, which varies by +-25% between random inputs)
    are the same for every benchmark seed. Three unrated references (`ref*`,
    mixed sizes) get pseudo-MOS only; the benchmark seed draws their content.
    """

    name = "dataset"
    # colour-only types skip the geometry metrics and the normals path
    distortions = (2, 5, 10, 11, 17, 19, 24)
    rated_sizes = (1000, 1000, 1000)
    unrated_sizes = (500, 1000, 2000)
    holdout = ("lab2",)
    good_raters = 20
    dataset_seed = 7
    rated_seed = 99
    min_holdout_srocc = 0.85
    jobs = 2  # nproc of the reference machine

    def __init__(self, seed: int):
        self.seed = seed
        fixed = np.random.default_rng(self.rated_seed)
        drawn = np.random.default_rng(seed)
        self.refs = {f"lab{i}": textured_cloud(fixed, n) for i, n in enumerate(self.rated_sizes)}
        self.refs.update(
            {f"ref{i}": textured_cloud(drawn, n) for i, n in enumerate(self.unrated_sizes)})
        self.sample_ids = [
            f"{ref}__d{did:02d}_l{level}"
            for ref in sorted(self.refs) for did in self.distortions for level in range(1, 8)]
        self.ratings = self._plant_ratings()

    def _plant_ratings(self) -> list[tuple[str, str, str]]:
        rng = np.random.default_rng(4242)
        rated = [s for s in self.sample_ids if s.startswith("lab")]
        rows = []
        for subj in range(self.good_raters):
            bias = rng.uniform(-0.15, 0.15)
            for sid in rated:
                level = int(sid[-1])
                base = 4.2 - 2.6 * (level - 1) / 6
                score = np.clip(base + bias + rng.normal(0, 0.55), 1, 5)
                rows.append((sid, f"subj{subj:02d}", f"{score:.3f}"))
        for k, sid in enumerate(rated):
            rows.append((sid, "badconst", "3.0"))
            rows.append((sid, "badbinary", "1.0" if k % 2 else "5.0"))
        return rows

    def expected_mos(self) -> dict[str, float]:
        """MOS of each rated sample over the good raters only."""
        scores: dict[str, list[float]] = {}
        for sid, subj, score in self.ratings:
            if subj.startswith("subj"):
                scores.setdefault(sid, []).append(float(score))
        return {sid: float(np.asarray(v).mean()) for sid, v in scores.items()}

    def write_inputs(self, root: Path) -> None:
        """Benchmark-side input files (not program work)."""
        with open(root / "subjective.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["stimulus_id", "subject_id", "score"])
            w.writerows(self.ratings)

    def setup(self, root: Path) -> None:
        (root / "refs").mkdir(parents=True)
        for ref_id, cloud in self.refs.items():
            save_ply(cloud, root / "refs" / f"{ref_id}.ply")

    def _build_and_score(self, out: str, jobs: int):
        cfg = pl.Config(seed=self.dataset_seed, distortions=self.distortions)
        cpu0 = children_cpu_s()
        t0 = time.perf_counter()
        manifest = pl.cmd_build("refs", f"{out}/ds", cfg, jobs=jobs)
        t1 = time.perf_counter()
        n_scores = pl.cmd_score(f"{out}/ds/manifest.jsonl", f"{out}/scores.csv", jobs=jobs)
        t2 = time.perf_counter()
        busy = (children_cpu_s() - cpu0) / ((t2 - t0) * jobs)
        return manifest, n_scores, (t0, t1, t2), busy

    def pool_share(self, out: str, jobs: int) -> float:
        """Children CPU / (wall x jobs) over build and score at `jobs`."""
        busy = self._build_and_score(out, jobs)[3]
        shutil.rmtree(out)
        return busy

    def run_pass(self, out: str, jobs: int) -> PassResult:
        manifest, n_scores, (t0, t1, t2), busy = self._build_and_score(out, jobs)
        result = pl.cmd_annotate(
            f"{out}/ds/manifest.jsonl", f"{out}/scores.csv", "subjective.csv",
            f"{out}/annotated.jsonl", holdout_refs=self.holdout)
        t3 = time.perf_counter()
        n_ok = len(manifest.ok_rows())
        times = {
            "dataset_s": t3 - t0,
            "build_s": t1 - t0,
            "score_s": t2 - t1,
            "annotate_s": t3 - t2,
            "build_samples_per_s": n_ok / (t1 - t0),
            "score_samples_per_s": n_ok / (t2 - t1),
        }
        if jobs > 1:
            times["pool_busy_frac"] = busy
        return PassResult(times, {
            "out": out, "manifest": manifest, "n_scores": n_scores, "annotate": result})

    def check(self, res: PassResult, expected: dict | None) -> CheckResult:
        out = Path(res.outputs["out"])
        manifest = res.outputs["manifest"]
        c = CheckResult()
        n_rows = len(self.refs) * len(self.distortions) * 7
        ok_rows = [r for r in manifest.rows if r.status == "ok"]
        # every build row is an operation
        c.attempted += n_rows
        c.failed += n_rows - len(ok_rows)
        if len(ok_rows) != n_rows:
            c.problems.append(f"{n_rows - len(ok_rows)} of {n_rows} build rows not ok")

        # every applicable (metric, sample) pair is an operation
        want = {(m, r.sample_id) for r in ok_rows for m in fr.BUILTIN_METRICS
                if fr.metric_applicable(m, r.distortion_id)}
        got: dict[tuple[str, str], float] = {}
        with open(out / "scores.csv", newline="") as f:
            for row in csv.DictReader(f):
                got[(row["metric_name"], row["degraded_id"])] = float(row["value"])
        bad = [k for k in want if k not in got or not (
            math.isfinite(got[k]) and 0.0 <= got[k] <= 100.0)]
        c.attempted += len(want)
        c.failed += len(bad)
        if bad:
            c.problems.append(f"{len(bad)} missing or out-of-range scores, e.g. {sorted(bad)[0]}")
        c.require(res.outputs["n_scores"] == len(want) == len(got),
                  f"score rows {res.outputs['n_scores']} != applicable pairs {len(want)}")

        annotated = pl.Manifest.load(out / "annotated.jsonl")
        mos = self.expected_mos()
        rows = {r.sample_id: r for r in annotated.rows}
        c.require(all(r.pseudo_mos is not None and math.isfinite(r.pseudo_mos)
                      for r in annotated.ok_rows()), "pseudo-MOS missing or non-finite")
        # MOS over exactly the 20 good raters <=> screening rejected exactly the bad two
        c.require(all(s in rows and rows[s].mos is not None and abs(rows[s].mos - v) <= 1e-9
                      for s, v in mos.items()), "annotated MOS != mean of the good raters")
        result = res.outputs["annotate"]
        srocc = result.holdout_srocc
        c.require(srocc is not None and srocc >= self.min_holdout_srocc,
                  f"holdout SROCC {srocc} < {self.min_holdout_srocc}")
        res.outputs["digests"] = {
            "scores.csv": sha256_file(out / "scores.csv"),
            "annotated.jsonl": sha256_file(out / "annotated.jsonl"),
        }
        if expected is not None:
            for name, digest in expected["digests"].items():
                c.require(res.outputs["digests"][name] == digest,
                          f"{name} differs from the digest recorded for seed {self.seed}")
        return c


# ---------------------------------------------------------------------------
# train: cmd_train of the full-size model on small, dense shells
# ---------------------------------------------------------------------------


class Train:
    """cmd_train of the default 4x3x64 model (about 1.2M parameters) with
    default augmentation and accum=8 for a fixed step count, on 16 shell
    clouds of 150-220 points (small N, about 3.2 neighbours per site)."""

    name = "train"
    sizes = tuple(150 + 5 * i for i in range(15)) + (220,)
    steps = 160

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.clouds = {f"s{i:02d}": shell_cloud(rng, n, 7.0 + i % 3)
                       for i, n in enumerate(self.sizes)}
        self.labels = {sid: float(v) for sid, v in
                       zip(self.clouds, rng.uniform(1.0, 5.0, len(self.clouds)))}
        self.model_config = ModelConfig()
        self.train_config = TrainConfig(
            accum=8, epochs=-(-self.steps // len(self.sizes)), max_steps=self.steps,
            seed=seed)

    def write_inputs(self, root: Path) -> None:
        pass

    def setup(self, root: Path) -> None:
        write_labeled_manifest(root, self.clouds, self.labels)

    def run_pass(self, out: str, jobs: int) -> PassResult:
        Path(out).mkdir()
        split = pl.SplitSpec(train=("shells",), test=())
        t0 = time.perf_counter()
        pl.cmd_train("ds/manifest.jsonl", split, self.model_config, self.train_config,
                     f"{out}/model.ckpt", loss_csv=f"{out}/loss.csv")
        t = time.perf_counter() - t0
        return PassResult({"train_s": t, "train_steps_per_s": self.steps / t}, {"out": out})

    def check(self, res: PassResult, expected: dict | None) -> CheckResult:
        out = Path(res.outputs["out"])
        c = CheckResult()
        with open(out / "loss.csv", newline="") as f:
            losses = [float(r["loss"]) for r in csv.DictReader(f)]
        # every step is an operation; a non-finite loss fails it
        c.attempted += self.steps
        bad = sum(not math.isfinite(v) for v in losses)
        c.failed += bad + max(0, self.steps - len(losses))
        if bad:
            c.problems.append(f"{bad} non-finite losses")
        c.require(len(losses) == self.steps,
                  f"loss CSV has {len(losses)} rows, expected {self.steps}")
        res.outputs["digests"] = {"loss.csv": sha256_file(out / "loss.csv")}
        if expected is not None:
            c.require(res.outputs["digests"]["loss.csv"] == expected["digests"]["loss.csv"],
                      f"loss.csv differs from the digest recorded for seed {self.seed}")
        return c


# ---------------------------------------------------------------------------
# infer: cmd_eval of a fixed checkpoint on large, sparse clouds
# ---------------------------------------------------------------------------


class Infer:
    """cmd_eval of a seeded default-size checkpoint on 7 textured clouds of
    2k-16k points at voxel size 1 (large N, about 1.05 neighbours per site);
    forward only, running-statistics batch norm."""

    name = "infer"
    sizes = (2000, 3000, 4000, 6000, 8000, 11000, 16000)
    tolerance = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.clouds = {f"c{i}": textured_cloud(rng, n) for i, n in enumerate(self.sizes)}
        self.labels = {sid: float(v) for sid, v in
                       zip(self.clouds, rng.uniform(1.0, 5.0, len(self.clouds)))}
        self.model_config = ModelConfig()

    def write_inputs(self, root: Path) -> None:
        pass

    def setup(self, root: Path) -> None:
        write_labeled_manifest(root, self.clouds, self.labels)
        save_checkpoint(init_model(self.model_config, seed=self.seed), root / "model.ckpt")

    def run_pass(self, out: str, jobs: int) -> PassResult:
        split = pl.SplitSpec(train=(), test=("shells",))
        t0 = time.perf_counter()
        pl.cmd_eval("ds/manifest.jsonl", split, "model.ckpt", out)
        t = time.perf_counter() - t0
        return PassResult({"eval_s": t, "infer_clouds_per_s": len(self.sizes) / t},
                          {"out": out})

    def check(self, res: PassResult, expected: dict | None) -> CheckResult:
        out = Path(res.outputs["out"])
        c = CheckResult()
        with open(out / "predictions.csv", newline="") as f:
            preds = {r["sample_id"]: float(r["prediction"]) for r in csv.DictReader(f)}
        # every cloud is an operation; a missing or non-finite prediction fails it
        c.attempted += len(self.clouds)
        bad = [s for s in self.clouds if not math.isfinite(preds.get(s, math.nan))]
        c.failed += len(bad)
        if bad:
            c.problems.append(f"missing or non-finite predictions: {bad}")
        res.outputs["predictions"] = preds
        if expected is not None:
            want = expected["predictions"]
            c.require(set(preds) == set(want) and all(
                abs(preds[s] - v) <= self.tolerance for s, v in want.items()),
                f"predictions differ from those recorded for seed {self.seed} "
                f"by more than {self.tolerance}")
        return c


def write_labeled_manifest(root: Path, clouds: dict[str, PointCloud],
                           labels: dict[str, float]) -> None:
    """One labelled row per cloud under a single reference id 'shells'."""
    clouds_dir = root / "ds" / "clouds"
    clouds_dir.mkdir(parents=True)
    rows = []
    for sid, cloud in clouds.items():
        save_ply(cloud, clouds_dir / f"{sid}.ply")
        rows.append(pl.ManifestRow(sample_id=sid, reference_id="shells", distortion_id=2,
                                   level=1, seed=0, path=f"{sid}.ply",
                                   pseudo_mos=round(labels[sid], 10)))
    pl.Manifest(seed=0, label_scale=(1.0, 5.0), references={"shells": "refs/none.ply"},
                rows=rows).save(root / "ds" / "manifest.jsonl")


WORKLOADS = {w.name: w for w in (Dataset, Train, Infer)}
