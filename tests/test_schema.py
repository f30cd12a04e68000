"""The one schema: every config, adapter map, checkpoint header and manifest
row is checked against its dataclass annotations, and a bad value exits 1
with one line naming the field (or `file:line`), never a traceback."""

import copy
import csv
import dataclasses
import json
import math
import os
import struct
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcqa import pipeline as pl
from pcqa import schema
from pcqa.cli import main as cli_main
from pcqa.pcio import save_ply
from pcqa.sparsenn import RESIDUAL_VARIANTS, ModelConfig, TrainConfig, init_model, save_checkpoint

from conftest import grid_cloud

CHEAP_ID = "5"  # a colour-only distortion: fast, keeps every point

VALID_CONFIG = {
    "seed": 7, "distortions": [1, 2], "label_scale": [1, 5],
    "adapters": {"25": {"command": "cp", "args": ["{in}", "{out}"], "serialize": False}},
    "model": {"blocks": 1, "width": 4, "fc_hidden": 4, "residual": "D",
              "bn_eps": 1e-5, "bn_momentum": 0.9, "voxel_size": 1.0},
    "train": {"lr": 0.01, "lr_decay": 0.99, "accum": 2, "epochs": 1, "max_steps": 4,
              "scale_range": [0.9, 1.1], "rotation_range": [0, 360], "seed": 0},
}
VALID_ROW = {"sample_id": "s0", "reference_id": "ref0", "distortion_id": 5, "level": 1,
             "seed": 0, "path": "s0.ply", "status": "ok", "pseudo_mos": 3.0}
# six labelled samples of one type that `annotate` fits: a score CSV of one
# metric and a rating CSV of three subjects whose kurtosis passes screening
LABELLED = [f"s{i}" for i in range(6)]
VALID_SCORES = [["metric_name", "reference_id", "degraded_id", "value"]] + [
    ["PSNRyuv", "ref0", s, str(40 - 4 * i)] for i, s in enumerate(LABELLED)]
VALID_RATINGS = [["stimulus_id", "subject_id", "score"]] + [
    [s, subject, str(v)]
    for subject, scores in (("u0", (5, 3.7, 2.3, 2.6, 1.9, 1.5)),
                            ("u1", (5, 4, 3.2, 3.3, 2.6, 1.4)),
                            ("u2", (5, 3.3, 2.5, 2.7, 2, 1.6)))
    for s, v in zip(LABELLED, scores)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A reference, a one-row labelled dataset on it and a tiny checkpoint."""
    root = tmp_path_factory.mktemp("schema")
    cloud = grid_cloud(np.random.default_rng(3), n=60, extent=12)
    (root / "refs").mkdir()
    save_ply(cloud, root / "refs" / "ref0.ply")
    (root / "ds" / "clouds").mkdir(parents=True)
    save_ply(cloud, root / "ds" / "clouds" / "s0.ply")
    header = pl.Manifest(seed=0, label_scale=(1.0, 5.0),
                         references={"ref0": str(root / "refs" / "ref0.ply")}).header()
    _write_manifest(root / "ds" / "manifest.jsonl", [header, VALID_ROW])
    _write_manifest(root / "ds" / "labelled.jsonl", [header] + [
        {**VALID_ROW, "sample_id": sid, "level": i + 1, "pseudo_mos": None}
        for i, sid in enumerate(LABELLED)])
    save_checkpoint(init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0),
                    root / "m.ckpt")
    return root, header


def _write_manifest(path: Path, lines: list) -> Path:
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    return path


def _write_csv(path: Path, rows: list) -> Path:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in rows:
            writer.writerow(row if isinstance(row, list) else [row])
    return path


def _with_header(raw: bytes, header: dict) -> bytes:
    """The checkpoint `raw` with its JSON header replaced by `header`."""
    magic, (version, n) = raw[:8], struct.unpack("<II", raw[8:16])
    new = json.dumps(header).encode()
    return magic + struct.pack("<II", version, len(new)) + new + raw[16 + n:]


def _checkpoint_header(raw: bytes) -> dict:
    n = struct.unpack("<I", raw[12:16])[0]
    return json.loads(raw[16:16 + n])


def _assert_one_line_error(argv, capsys, *parts):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = err.strip().splitlines()[-1]
    assert line.startswith("error: ") and all(p in line for p in parts), err


# ---------------------------------------------------------------------------
# Every reproduced gap, through the CLI
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config, message", [
    ({"model": {"voxel_size": "1"}}, "model voxel_size must be a positive number, got '1'"),
    ({"seed": 1.7}, "config seed must be an int, got 1.7"),
    ({"seed": True}, "config seed must be an int, got True"),
    ({"bogus": 1}, "config has unknown key 'bogus'"),
    ({"label_scale": 5}, "config label_scale must be a [min, max] pair, min < max, got 5"),
    ({"label_scale": [5, 1]}, "config label_scale must be a [min, max] pair"),
    ({"distortions": 5}, "config distortions must be a list, got 5"),
    ({"distortions": [99]}, "config distortions must be a REGISTRY id"),
    ({"adapters": {"25": {"command": "cp", "args": "ab"}}},
     "adapter args must be a list, got 'ab'"),
    ({"adapters": {"25": {"command": 5}}}, "adapter command must be a string, got 5"),
    ({"train": {"accum": 2.5}}, "train accum must be a positive int, got 2.5"),
    ({"train": {"epochs": "3"}}, "train epochs must be an int, got '3'"),
    ({"train": {"label_scale": [1, 10]}}, "config train has unknown key 'label_scale'"),
    ({"train": {"lr_decay": 0}}, "train lr_decay must be a number in (0, 1], got 0"),
    ({"train": {"scale_range": [1, math.inf]}}, "train scale_range must be a finite number"),
    ({"model": {"bn_momentum": 7}}, "model bn_momentum must be a number in [0, 1), got 7"),
    ({"model": {"residual": "E"}}, "model residual must be one of 'A', 'B', 'C', 'D', got 'E'"),
    ({"train": {"epochs": 0}}, "train epochs must be a positive int, got 0"),
    ({"train": {"max_steps": 0}}, "train max_steps must be a positive int, got 0"),
    ({"model": {"pooling": "avg"}}, "config model has unknown key 'pooling'"),
    ({"model": {"in_channels": 3}}, "config model has unknown key 'in_channels'"),
], ids=["string-voxel-size", "float-seed", "bool-seed", "unknown-top-level-key",
        "scalar-label-scale", "reversed-label-scale", "scalar-distortions", "unknown-distortion",
        "string-adapter-args", "int-adapter-command", "float-accum", "string-epochs",
        "train-label-scale", "zero-lr-decay", "infinite-scale-range", "momentum-7",
        "unknown-residual", "zero-epochs", "zero-max-steps", "no-pooling-setting",
        "no-in-channels-setting"])
def test_cli_bad_config_value_exits_1_naming_the_field(tmp_path, inputs, capsys, config,
                                                       message):
    root, _ = inputs
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    _assert_one_line_error(["build", "--refs", str(root / "refs"), "--out", str(tmp_path / "ds"),
                            "--config", str(path)], capsys, message)
    assert not (tmp_path / "ds").exists()


def test_cli_build_subset_goes_through_the_config_check(tmp_path, inputs, capsys):
    root, _ = inputs
    _assert_one_line_error(["build", "--refs", str(root / "refs"), "--out", str(tmp_path / "ds"),
                            "--subset", "99"], capsys, "config distortions", "got 99")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("edit, message", [
    ({"distortion_id": 99}, "manifest row distortion_id must be a REGISTRY id"),
    ({"distortion_id": "5"}, "manifest row distortion_id must be a REGISTRY id"),
    ({"pseudo_mos": "3"}, "manifest row pseudo_mos must be a finite number, got '3'"),
    ({"path": 7}, "manifest row path must be a string, got 7"),
    ({"level": "x"}, "manifest row level must be an int in 1-7, got 'x'"),
    ({"level": 8}, "manifest row level must be an int in 1-7, got 8"),
    ({"status": "done"}, "manifest row status must be one of 'ok', 'failed', got 'done'"),
], ids=["unknown-distortion", "string-distortion", "string-label", "int-path", "string-level",
        "level-8", "unknown-status"])
def test_cli_score_bad_manifest_row_exits_1_naming_the_line(tmp_path, inputs, capsys, edit,
                                                            message):
    _, header = inputs
    path = _write_manifest(tmp_path / "m.jsonl", [header, {**VALID_ROW, **edit}])
    _assert_one_line_error(["score", "--manifest", str(path), "--out", str(tmp_path / "s.csv")],
                           capsys, f"{path}:2: {message}")


@pytest.mark.parametrize("command", ["score", "annotate", "train", "eval"])
def test_cli_every_manifest_reader_names_an_unknown_distortion(tmp_path, inputs, capsys,
                                                               command):
    _, header = inputs
    path = _write_manifest(tmp_path / "m.jsonl", [header, {**VALID_ROW, "distortion_id": 99}])
    out = str(tmp_path / "out")
    argv = {
        "score": ["--out", out],
        "annotate": ["--scores", out, "--subjective", out, "--out", out],
        "train": ["--split", "test=ref0", "--out", out],
        "eval": ["--split", "test=ref0", "--checkpoint", out, "--out", out],
    }[command]
    _assert_one_line_error([command, "--manifest", str(path), *argv], capsys,
                           f"{path}:2: manifest row distortion_id", "got 99")
    assert not Path(out).exists()


def _one_point_ply(red: str) -> str:
    return ("ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            f"end_header\n0 0 0 {red} 0 0\n")


@pytest.mark.parametrize("command", ["score", "eval"])
def test_cli_non_integer_ply_colour_exits_1(tmp_path, inputs, capsys, command):
    root, header = inputs
    (tmp_path / "clouds").mkdir()
    (tmp_path / "clouds" / "s0.ply").write_text(_one_point_ply(red="12.7"))
    path = _write_manifest(tmp_path / "m.jsonl", [header, VALID_ROW])
    out = str(tmp_path / "out")
    argv = {"score": ["--out", out],
            "eval": ["--split", "test=ref0", "--checkpoint", str(root / "m.ckpt"), "--out", out],
            }[command]
    _assert_one_line_error([command, "--manifest", str(path), *argv], capsys,
                           "color components must be integers")
    assert not Path(out).exists()


def test_cli_build_fails_the_rows_of_a_reference_with_a_bad_colour(tmp_path, inputs, capsys):
    root, _ = inputs
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "bad.ply").write_text(_one_point_ply(red="-0.5"))
    (refs / "good.ply").write_bytes((root / "refs" / "ref0.ply").read_bytes())
    assert cli_main(["build", "--refs", str(refs), "--out", str(tmp_path / "ds"),
                     "--subset", CHEAP_ID]) == 0
    rows = pl.Manifest.load(tmp_path / "ds" / "manifest.jsonl").rows
    assert {(r.reference_id, r.status, r.error) for r in rows} == {
        ("bad", "failed", "ValueError: color components must be integers"),
        ("good", "ok", None)}


def test_cli_score_error_names_a_reference_changed_after_build(tmp_path, inputs, capsys):
    root, _ = inputs
    refs = tmp_path / "refs"
    refs.mkdir()
    ref = refs / "ref0.ply"
    ref.write_bytes((root / "refs" / "ref0.ply").read_bytes())
    out = tmp_path / "ds"
    assert cli_main(["build", "--refs", str(refs), "--out", str(out),
                     "--subset", CHEAP_ID]) == 0
    ref.write_text(_one_point_ply(red="12.7"))
    scores = tmp_path / "scores.csv"
    _assert_one_line_error(["score", "--manifest", str(out / "manifest.jsonl"),
                            "--out", str(scores)], capsys,
                           f"error: {ref}: color components must be integers")
    assert not scores.exists()


@pytest.mark.parametrize("command", ["score", "train", "eval"])
def test_cli_bad_sample_cloud_error_names_its_file(tmp_path, inputs, capsys, command):
    root, header = inputs
    (tmp_path / "clouds").mkdir()
    cloud = tmp_path / "clouds" / "s0.ply"
    cloud.write_text(_one_point_ply(red="12.7"))
    path = _write_manifest(tmp_path / "m.jsonl", [header, VALID_ROW])
    out = str(tmp_path / "out")
    argv = {"score": ["--out", out],
            "train": ["--split", "test=", "--out", out],
            "eval": ["--split", "test=ref0", "--checkpoint", str(root / "m.ckpt"), "--out", out],
            }[command]
    _assert_one_line_error([command, "--manifest", str(path), *argv], capsys,
                           f"error: {cloud}: color components must be integers")
    assert not Path(out).exists()


def test_cli_build_fails_the_rows_of_a_reference_with_a_malformed_header(tmp_path, inputs):
    root, _ = inputs
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "bad.ply").write_text(_one_point_ply(red="0").replace("property float z",
                                                                  "property float"))
    (refs / "good.ply").write_bytes((root / "refs" / "ref0.ply").read_bytes())
    assert cli_main(["build", "--refs", str(refs), "--out", str(tmp_path / "ds"),
                     "--subset", CHEAP_ID]) == 0
    rows = pl.Manifest.load(tmp_path / "ds" / "manifest.jsonl").rows
    assert {(r.reference_id, r.status, r.error) for r in rows} == {
        ("bad", "failed",
         "PlyError: malformed header line 'property float': a property needs a type and a name"),
        ("good", "ok", None)}


def _ply_claiming(n: int, fmt: str) -> bytes:
    """A one-vertex PLY whose header claims `n` vertices."""
    text = _one_point_ply(red="0").replace("element vertex 1", f"element vertex {n}")
    if fmt == "ascii":
        return text.encode("ascii")
    header = text[:text.index("end_header\n") + len("end_header\n")]
    return (header.replace("format ascii", "format binary_little_endian").encode("ascii")
            + np.zeros(1, dtype="<f4, <f4, <f4, u1, u1, u1").tobytes())


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
@pytest.mark.parametrize("command", ["build", "score", "eval"])
def test_cli_ply_claiming_more_vertices_than_its_bytes_exits_cleanly(tmp_path, inputs, capsys,
                                                                      command, fmt):
    # 10^12 vertices would need terabytes: the file's size refuses the claim
    # before anything is allocated. Build fails the reference's rows and goes
    # on; score and eval exit 1 naming the file
    root, header = inputs
    claim = "truncated body"
    if command == "build":
        refs = tmp_path / "refs"
        refs.mkdir()
        (refs / "bad.ply").write_bytes(_ply_claiming(999_999_999_999, fmt))
        assert cli_main(["build", "--refs", str(refs), "--out", str(tmp_path / "ds"),
                         "--subset", CHEAP_ID]) == 0
        assert "Traceback" not in capsys.readouterr().err
        manifest = pl.Manifest.load(tmp_path / "ds" / "manifest.jsonl")
        assert manifest.references == {"bad": str(refs / "bad.ply")}
        assert {(r.status, r.error.startswith(f"PlyError: {claim}")) for r in manifest.rows} \
            == {("failed", True)}
        return
    (tmp_path / "clouds").mkdir()
    cloud = tmp_path / "clouds" / "s0.ply"
    cloud.write_bytes(_ply_claiming(999_999_999_999, fmt))
    path = _write_manifest(tmp_path / "m.jsonl", [header, VALID_ROW])
    out = str(tmp_path / "out")
    argv = {"score": ["--out", out],
            "eval": ["--split", "test=ref0", "--checkpoint", str(root / "m.ckpt"), "--out", out],
            }[command]
    _assert_one_line_error([command, "--manifest", str(path), *argv], capsys,
                           f"error: {cloud}: {claim}", "999999999999")
    assert not Path(out).exists()


def test_cli_checkpoint_header_longer_than_the_file_exits_1(tmp_path, inputs, capsys):
    root, _ = inputs
    raw = (root / "m.ckpt").read_bytes()
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(raw[:12] + struct.pack("<I", 2**32 - 1) + raw[16:])
    _assert_one_line_error(["eval", "--manifest", str(root / "ds" / "manifest.jsonl"),
                            "--split", "test=ref0", "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "out")], capsys,
                           f"checkpoint header declares {2**32 - 1} bytes, but "
                           f"{len(raw) - 16} follow")


def test_cli_non_json_manifest_header_names_the_file(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    path.write_text("not json\n")
    _assert_one_line_error(["score", "--manifest", str(path), "--out", str(tmp_path / "s.csv")],
                           capsys, f"{path} is not a dataset manifest")


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(label_scale=[1]), "manifest label_scale must be a [min, max] pair"),
    (lambda h: h.update(references=["ref0"]), "manifest references must be a JSON object"),
    (lambda h: h.update(extra=1), "manifest has unknown key 'extra'"),
], ids=["one-item-scale", "list-references", "unknown-key"])
def test_cli_bad_manifest_header_exits_1_naming_line_1(tmp_path, inputs, capsys, edit, message):
    _, header = inputs
    header = copy.deepcopy(header)
    edit(header)
    path = _write_manifest(tmp_path / "m.jsonl", [header, VALID_ROW])
    _assert_one_line_error(["score", "--manifest", str(path), "--out", str(tmp_path / "s.csv")],
                           capsys, f"{path}:1: {message}")


@pytest.mark.parametrize("model", [{"blocks": 10**6}, {"width": 30_000}], ids=["blocks", "width"])
def test_cli_train_oversized_model_exits_1_at_once(tmp_path, inputs, capsys, model):
    root, _ = inputs
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": model}))
    t0 = time.perf_counter()
    _assert_one_line_error(["train", "--manifest", str(root / "ds" / "manifest.jsonl"),
                            "--split", "test=ref0", "--config", str(path),
                            "--out", str(tmp_path / "m.ckpt")],
                           capsys, "parameters, over 100,000,000")
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_model_of_too_many_arrays_exits_1_at_once(tmp_path, inputs, capsys):
    # 88,000,057 parameters pass the ceiling, but 15,000,004 arrays would
    # stall in the layout: the array count is bounded in closed form too
    root, _ = inputs
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"blocks": 1_000_000, "width": 1, "fc_hidden": 1}}))
    t0 = time.perf_counter()
    _assert_one_line_error(["train", "--manifest", str(root / "ds" / "manifest.jsonl"),
                            "--split", "test=ref0", "--config", str(path),
                            "--out", str(tmp_path / "m.ckpt")],
                           capsys, "model has 15,000,004 arrays, over 10,000")
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(width="4"), "model width must be a positive int, got '4'"),
    (lambda c: c.update(voxel_size=-1.0), "model voxel_size must be a positive number"),
    (lambda c: c.update(blocks=10**12), "checkpoint config has 1000000000000 blocks"),
], ids=["string-width", "negative-voxel-size", "blocks-beyond-the-header"])
def test_cli_eval_bad_checkpoint_config_exits_1(tmp_path, inputs, capsys, edit, message):
    root, _ = inputs
    raw = (root / "m.ckpt").read_bytes()
    ckpt_header = _checkpoint_header(raw)
    edit(ckpt_header["config"])
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(_with_header(raw, ckpt_header))
    _assert_one_line_error(["eval", "--manifest", str(root / "ds" / "manifest.jsonl"),
                            "--split", "test=ref0", "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "eval")], capsys, message)


@pytest.mark.parametrize("target, data", [
    ("config", b'{"seed": 1,\n'),
    ("adapters", b'{"25": {"command": "cp"'),
    ("manifest", b"\xff\n"),
    ("scores", b"metric_name,reference_id,degraded_id,value\n\xff\n"),
    ("ratings", b"\xffstimulus_id,subject_id,score\n"),
    ("scores", b"metric_name,reference_id,degraded_id,value\nPSNRyuv,ref0,s0," + b"9" * 200_000),
], ids=["truncated-config", "truncated-adapters", "non-utf8-manifest", "non-utf8-scores",
        "non-utf8-ratings", "field-over-the-csv-limit"])
def test_cli_unreadable_input_file_names_itself(tmp_path, inputs, capsys, target, data):
    root, _ = inputs
    path = tmp_path / "bad"
    path.write_bytes(data)
    out = str(tmp_path / "out")
    build = ["build", "--refs", str(root / "refs"), "--out", out, "--subset", CHEAP_ID]
    csvs = {"scores": _write_csv(tmp_path / "s.csv", VALID_SCORES),
            "ratings": _write_csv(tmp_path / "r.csv", VALID_RATINGS), target: path}
    argv = {
        "config": [*build, "--config", str(path)],
        "adapters": build,
        "manifest": ["score", "--manifest", str(path), "--out", out],
    }.get(target, ["annotate", "--manifest", str(root / "ds" / "labelled.jsonl"),
                   "--scores", str(csvs["scores"]), "--subjective", str(csvs["ratings"]),
                   "--out", out])
    env = {"PCQA_ADAPTERS": str(path)} if target == "adapters" else {}
    with mock.patch.dict(os.environ, env):
        _assert_one_line_error(argv, capsys, f"error: {path}: ")
    assert not Path(out).exists()


@pytest.mark.parametrize("target", ["scores", "ratings"])
def test_cli_annotate_short_csv_row_exits_1_naming_the_line(tmp_path, inputs, capsys, target):
    root, _ = inputs
    valid = {"scores": VALID_SCORES, "ratings": VALID_RATINGS}[target]
    assert _run_corrupted(target, valid, root, tmp_path) == 0
    rows = copy.deepcopy(valid)
    del rows[2][-1]
    assert _run_corrupted(target, rows, root, tmp_path) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    name = {"scores": "s.csv", "ratings": "r.csv"}[target]
    assert err.strip().splitlines()[-1] == (
        f"error: {tmp_path / name}:3: row has fewer fields than the header")


@pytest.mark.parametrize("target, value, message", [
    ("ratings", "", "could not convert string to float: ''"),
    ("ratings", "good", "could not convert string to float: 'good'"),
    ("ratings", "0", "score 0.0 outside [1.0, 5.0]"),
    ("scores", "", "non-numeric value ''"),
    ("scores", "n/a", "non-numeric value 'n/a'"),
    ("scores", "nan", "metric value must be finite, got nan"),
], ids=["blank-rating", "non-numeric-rating", "out-of-scale-rating", "blank-score",
        "non-numeric-score", "non-finite-score"])
def test_cli_annotate_bad_csv_value_exits_1_naming_the_line(tmp_path, inputs, capsys,
                                                            target, value, message):
    root, _ = inputs
    rows = copy.deepcopy({"scores": VALID_SCORES, "ratings": VALID_RATINGS}[target])
    rows[3][-1] = value
    assert _run_corrupted(target, rows, root, tmp_path) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    name = {"scores": "s.csv", "ratings": "r.csv"}[target]
    assert err.strip().splitlines()[-1] == f"error: {tmp_path / name}:4: {message}"


@pytest.mark.parametrize("value", ["1e308", "-1e308", "1e200", "1e160", "1e-170"])
@pytest.mark.parametrize("index", range(1, len(VALID_SCORES)))
def test_cli_annotate_extreme_score_exits_0_or_1_without_a_warning(tmp_path, inputs, capsys,
                                                                   index, value):
    # a finite score whose square overflows float64 once made PLCC overflow
    root, _ = inputs
    rows = copy.deepcopy(VALID_SCORES)
    rows[index][-1] = value
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = _run_corrupted("scores", rows, root, tmp_path)
    assert code in (0, 1), capsys.readouterr().err
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("target", ["scores", "ratings"])
def test_cli_annotate_reads_a_csv_that_starts_with_a_utf8_bom(tmp_path, inputs, capsys, target):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    root, _ = inputs
    csvs = {"scores": _write_csv(tmp_path / "s.csv", VALID_SCORES),
            "ratings": _write_csv(tmp_path / "r.csv", VALID_RATINGS)}
    argv = ["annotate", "--manifest", str(root / "ds" / "labelled.jsonl"),
            "--scores", str(csvs["scores"]), "--subjective", str(csvs["ratings"]), "--out"]
    assert cli_main(argv + [str(tmp_path / "plain.jsonl")]) == 0
    csvs[target].write_bytes(b"\xef\xbb\xbf" + csvs[target].read_bytes())
    assert cli_main(argv + [str(tmp_path / "bom.jsonl")]) == 0, capsys.readouterr().err
    assert (tmp_path / "bom.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# The schema itself
# ---------------------------------------------------------------------------


def test_one_validation_error_class():
    assert pl.ValidationError is schema.ValidationError
    assert RESIDUAL_VARIANTS == ("A", "B", "C", "D")


def test_json_values_become_the_annotated_types():
    cfg = pl.Config.from_dict(VALID_CONFIG)
    assert cfg.distortions == (1, 2) and cfg.label_scale == (1.0, 5.0)
    assert type(cfg.label_scale[0]) is float
    assert list(cfg.adapters) == [25] and cfg.adapters[25].args == ("{in}", "{out}")
    assert cfg.model == ModelConfig(blocks=1, width=4, fc_hidden=4)
    assert cfg.train.rotation_range == (0.0, 360.0) and cfg.train.max_steps == 4
    assert len(dataclasses.fields(TrainConfig)) == 8


def test_python_callers_get_the_same_checks():
    with pytest.raises(pl.ValidationError, match="config distortions must be a REGISTRY id"):
        pl.Config(distortions=(5, 99))
    with pytest.raises(pl.ValidationError, match="manifest row level must be an int in 1-7"):
        pl.ManifestRow("s0", "ref0", 5, 0, 0)
    with pytest.raises(pl.ValidationError, match="train lr must be a positive number"):
        TrainConfig(lr=0.0)


# ---------------------------------------------------------------------------
# Property: one corrupted field never escapes as an exception
# ---------------------------------------------------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 0.5, 1e308, -1e308, 10**30]))


def _slots(doc, path=()):
    """The path of every value inside a JSON document, depth first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


@st.composite
def corrupted(draw, doc):
    """`doc` with one value replaced by junk, deleted, or given an unknown sibling."""
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(list(_slots(doc))))
    parent = doc
    for p in parents:
        parent = parent[p]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = draw(JUNK)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent["bogus"] = draw(JUNK)
    else:
        parent.append(draw(JUNK))
    return doc


def _valid(target: str, root: Path, header: dict):
    """The valid document that `target` corrupts."""
    return {"config": VALID_CONFIG, "adapters": VALID_CONFIG["adapters"],
            "checkpoint": _checkpoint_header((root / "m.ckpt").read_bytes()),
            "manifest": [header, VALID_ROW], "scores": VALID_SCORES,
            "ratings": VALID_RATINGS}[target]


def _run_corrupted(target: str, doc, root: Path, work: Path) -> int:
    """Exit code of the command that reads `doc`: `build` for a config or an
    adapter map, `score` for a manifest, `eval` for a checkpoint header,
    `annotate` for a score or rating CSV (a list of rows)."""
    out = str(work / "out")
    build = ["build", "--refs", str(root / "refs"), "--out", out, "--subset", CHEAP_ID]
    if target == "config":
        (work / "c.json").write_text(json.dumps(doc))
        return cli_main([*build, "--config", str(work / "c.json")])
    if target == "adapters":
        (work / "a.json").write_text(json.dumps(doc))
        with mock.patch.dict(os.environ, {"PCQA_ADAPTERS": str(work / "a.json")}):
            return cli_main(build)
    if target == "manifest":
        path = _write_manifest(root / "ds" / "corrupted.jsonl", doc)  # next to clouds/s0.ply
        return cli_main(["score", "--manifest", str(path), "--out", out])
    if target in ("scores", "ratings"):
        csvs = {"scores": VALID_SCORES, "ratings": VALID_RATINGS, target: doc}
        return cli_main(["annotate", "--manifest", str(root / "ds" / "labelled.jsonl"),
                         "--scores", str(_write_csv(work / "s.csv", csvs["scores"])),
                         "--subjective", str(_write_csv(work / "r.csv", csvs["ratings"])),
                         "--out", out])
    ckpt = work / "m.ckpt"
    ckpt.write_bytes(_with_header((root / "m.ckpt").read_bytes(), doc))
    return cli_main(["eval", "--manifest", str(root / "ds" / "manifest.jsonl"),
                     "--split", "test=ref0", "--checkpoint", str(ckpt), "--out", out])


@pytest.mark.parametrize("target", ["config", "adapters", "checkpoint", "manifest", "scores",
                                    "ratings"])
def test_one_corrupted_field_exits_0_1_or_2(inputs, target):
    root, header = inputs

    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corrupted(_valid(target, root, header)))
    def run(bad):
        with tempfile.TemporaryDirectory() as work:
            assert _run_corrupted(target, bad, root, Path(work)) in (0, 1, 2)

    run()
