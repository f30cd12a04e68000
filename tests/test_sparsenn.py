import hashlib
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pcqa.pcio import PointCloud
from pcqa.sparsenn import (
    KERNEL_OFFSETS, KernelMap, Model, ModelConfig, SparseTensor, TrainConfig,
    backward, build_kernel_map, conv_forward, forward, global_pool,
    init_model, load_checkpoint, param_count, save_checkpoint, smooth_l1,
    voxelize,
)
from pcqa.sparsenn import layers
from pcqa.sparsenn.layers import (
    bn_backward, bn_forward, conv_backward, fc_backward, fc_forward, global_pool_backward,
    layer_forward,
)
from pcqa.sparsenn.model import (
    MAX_PARAMS, RESIDUAL_VARIANTS, CheckpointError,
)

from conftest import grid_cloud, shell_cloud


def tensor_from(coords3, feats):
    coords3 = np.asarray(coords3, dtype=np.int64)
    coords = np.concatenate([coords3, np.zeros((len(coords3), 1), dtype=np.int64)], axis=1)
    return SparseTensor(coords, np.asarray(feats, dtype=np.float64))


def random_tensor(rng, n=30, extent=5, channels=3):
    pts = np.unique(rng.integers(0, extent, (n * 3, 3)), axis=0)
    rng.shuffle(pts)
    pts = pts[:n]
    return tensor_from(pts, rng.normal(size=(len(pts), channels)))


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------


def test_voxelize_floor_arithmetic():
    # 0.4 and 0.6 split at voxel 0.5 (floor 0 and 1); merge at voxel 1
    cloud = PointCloud([[0.4, 0, 0], [0.6, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    t = voxelize(cloud, 0.5)
    assert len(t) == 2
    assert sorted(t.coords[:, 0]) == [0, 1]
    assert len(voxelize(cloud, 1.0)) == 1


def test_voxelize_distinct_cells():
    cloud = PointCloud([[0.4, 0, 0], [1.6, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    t = voxelize(cloud, 1.0)
    assert sorted(t.coords[:, 0]) == [0, 1]


def test_voxelize_merges_coincident_mean_feature():
    cloud = PointCloud([[0.2, 0.2, 0.2], [0.3, 0.3, 0.3]],
                       [[0, 0, 0], [255, 255, 255]])
    t = voxelize(cloud, 1.0)
    assert len(t) == 1
    np.testing.assert_allclose(t.feats, 0.0, atol=1e-12)  # mean of -0.5 and +0.5


def test_voxelize_integer_grid_preserves_count(rng):
    cloud = grid_cloud(rng, n=200)
    t = voxelize(cloud, 1.0)
    assert len(t) == len(cloud)


def test_voxelize_feature_scale():
    cloud = PointCloud([[0.0, 0.0, 0.0]], [[255, 0, 128]])
    t = voxelize(cloud, 1.0)
    np.testing.assert_allclose(t.feats[0], [0.5, -0.5, 128 / 255 - 0.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("xs, size, match", [
    ((0.0, 1e30), 1.0, r"coordinate 1e\+30 at voxel size 1\.0"),
    ((0.0, 1.0), 1e-310, r"coordinate 1\.0 at voxel size 1e-310"),  # the quotient is inf
    # cells +-2**62 are in range, but their int64 span 2**63 would wrap
    ((-2.0**62, 2.0**62), 1.0, "extent too large"),
], ids=["huge-coordinate", "tiny-voxel", "span-wraps"])
def test_voxelize_refuses_cells_it_cannot_index(xs, size, match):
    pos = np.zeros((len(xs), 3))
    pos[:, 0] = xs
    with pytest.raises(ValueError, match=match):
        voxelize(PointCloud(pos, np.zeros(pos.shape)), size)


def test_sparse_tensor_rejects_duplicates():
    with pytest.raises(ValueError, match="unique"):
        SparseTensor(np.zeros((2, 4), dtype=np.int64), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Kernel map
# ---------------------------------------------------------------------------


def test_kernel_map_single_point():
    t = tensor_from([[0, 0, 0]], [[1.0, 2.0, 3.0]])
    kmap = build_kernel_map(t)
    counts = kmap.pair_counts()
    center = 13  # offset (0,0,0) in lexicographic order
    assert counts[center] == 1
    assert sum(counts) == 1


def test_kernel_map_two_points_distance_one():
    t = tensor_from([[0, 0, 0], [1, 0, 0]], np.zeros((2, 3)))
    kmap = build_kernel_map(t)
    counts = {tuple(off): c for off, c in zip(KERNEL_OFFSETS, kmap.pair_counts())}
    assert counts[(0, 0, 0)] == 2
    assert counts[(1, 0, 0)] == 1
    assert counts[(-1, 0, 0)] == 1
    assert sum(counts.values()) == 4


def test_kernel_map_full_grid_matches_dense_counts():
    cells = list(itertools.product(range(3), repeat=3))
    t = tensor_from(cells, np.zeros((27, 3)))
    kmap = build_kernel_map(t)
    for off, count in zip(KERNEL_OFFSETS, kmap.pair_counts()):
        want = 1
        for d in off:
            want *= 3 - abs(int(d))  # zero-padded dense convolution pairs
        assert count == want


def test_kernel_map_pairs_sorted_by_output_row(rng):
    t = random_tensor(rng, n=40)
    kmap = build_kernel_map(t)
    for in_rows, out_rows in kmap.pairs:
        assert np.all(np.diff(out_rows) > 0)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def test_identity_kernel_preserves_features(rng):
    t = random_tensor(rng, n=25, channels=4)
    w = np.zeros((27, 4, 4))
    w[13] = np.eye(4)
    out = conv_forward(w, t.feats, build_kernel_map(t))
    np.testing.assert_allclose(out, t.feats)


def test_isolated_point_center_tap_only(rng):
    t = tensor_from([[0, 0, 0]], [[1.0, -1.0, 0.5]])
    w = rng.normal(size=(27, 3, 6))
    out = conv_forward(w, t.feats, build_kernel_map(t))
    np.testing.assert_allclose(out[0], t.feats[0] @ w[13])


def dense_conv3d(grid, w):
    """Zero-padded dense convolution oracle on a full cubic grid."""
    n = grid.shape[0]
    cout = w.shape[2]
    out = np.zeros((n, n, n, cout))
    for x, y, z in itertools.product(range(n), repeat=3):
        acc = np.zeros(cout)
        for k, (dx, dy, dz) in enumerate(KERNEL_OFFSETS):
            xx, yy, zz = x + dx, y + dy, z + dz
            if 0 <= xx < n and 0 <= yy < n and 0 <= zz < n:
                acc += grid[xx, yy, zz] @ w[k]
        out[x, y, z] = acc
    return out


def test_dense_equivalence_on_full_5cube(rng):
    n = 5
    cells = np.array(list(itertools.product(range(n), repeat=3)))
    feats = rng.normal(size=(len(cells), 3))
    grid = np.zeros((n, n, n, 3))
    grid[cells[:, 0], cells[:, 1], cells[:, 2]] = feats
    w = rng.normal(size=(27, 3, 4))

    t = tensor_from(cells, feats)
    sparse_out = conv_forward(w, t.feats, build_kernel_map(t))
    dense_out = dense_conv3d(grid, w)
    for row, c in enumerate(t.coords):
        np.testing.assert_allclose(
            sparse_out[row], dense_out[c[0], c[1], c[2]], atol=1e-6)


def test_submanifold_property_coords_unchanged(rng):
    t = random_tensor(rng, n=40)
    model = init_model(ModelConfig(blocks=1, width=8, fc_hidden=4), seed=1)
    # every layer writes exactly onto the input coordinate set: the engine
    # never allocates new rows, so forward implies output sites == input sites
    q, cache = forward(model, t, training=True)
    assert cache.n_rows == len(t)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def test_global_pool_mean():
    vec = global_pool(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(vec, [2.0, 3.0])


def test_global_pool_single_row():
    vec = global_pool(np.array([[7.0, -1.0]]))
    np.testing.assert_allclose(vec, [7.0, -1.0])


def test_global_pool_permutation_invariant(rng):
    feats = rng.normal(size=(20, 5))
    perm = rng.permutation(20)
    np.testing.assert_allclose(global_pool(feats), global_pool(feats[perm]), atol=1e-12)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_zero_network_outputs_zero(rng):
    t = random_tensor(rng, n=20)
    model = init_model(ModelConfig(blocks=2, width=6, fc_hidden=4), seed=0)
    for name in model.params:
        model.params[name][...] = 0.0
    q, _ = forward(model, t)
    assert q == 0.0


def test_forward_permutation_invariance(rng):
    cloud = grid_cloud(rng, n=120)
    model = init_model(ModelConfig(blocks=2, width=8, fc_hidden=6), seed=3)
    t = voxelize(cloud, 1.0)
    q1, _ = forward(model, t)

    perm = rng.permutation(len(cloud))
    cloud2 = PointCloud(cloud.positions[perm], cloud.colors[perm])
    q2, _ = forward(model, voxelize(cloud2, 1.0))
    assert abs(q1 - q2) <= 1e-9  # canonical row order makes this bit-exact


def test_forward_width_mismatch_errors(rng):
    t = random_tensor(rng, n=10, channels=4)
    model = init_model(ModelConfig(blocks=1, width=8), seed=0)
    with pytest.raises(ValueError, match="channels"):
        forward(model, t)


def naive_forward(model: Model, tensor: SparseTensor) -> float:
    """Independent straight-line re-implementation (dict lookups, loops)."""
    cfg = model.config
    coords = [tuple(c) for c in tensor.coords]
    table = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    x = tensor.feats.copy()

    def layer(b, l, xin, act):
        w = model.params[f"conv{b}.{l}.w"]
        out = np.zeros((n, w.shape[2]))
        for i, c in enumerate(coords):
            for k, (dx, dy, dz) in enumerate(KERNEL_OFFSETS):
                j = table.get((c[0] + dx, c[1] + dy, c[2] + dz, c[3]))
                if j is not None:
                    out[i] += xin[j] @ w[k]
        rmean = model.state[f"conv{b}.{l}.running_mean"]
        rvar = model.state[f"conv{b}.{l}.running_var"]
        gamma = model.params[f"conv{b}.{l}.gamma"]
        beta = model.params[f"conv{b}.{l}.beta"]
        out = gamma * (out - rmean) / np.sqrt(rvar + cfg.bn_eps) + beta
        if act:
            out = np.maximum(out, 0.0)
        return out

    pooled = []
    for b in range(cfg.blocks):
        h1 = layer(b, 0, x, True)
        h2 = layer(b, 1, h1, True)
        z3 = layer(b, 2, h2, False)
        x = np.maximum(z3 + h1, 0.0)  # variant D join
        pooled.append(x.mean(axis=0))
    s = np.concatenate(pooled)
    h = np.maximum(s @ model.params["fc1.w"] + model.params["fc1.b"], 0.0)
    return (h @ model.params["fc2.w"] + model.params["fc2.b"]).item()


def test_forward_matches_naive_reimplementation(rng):
    t = random_tensor(rng, n=35)
    model = init_model(ModelConfig(blocks=3, width=7, fc_hidden=5), seed=9)
    # perturb running stats so inference BN is non-trivial
    for name in model.state:
        model.state[name] += rng.uniform(0.1, 0.5, model.state[name].shape)
    q, _ = forward(model, t, training=False)
    assert q == pytest.approx(naive_forward(model, t), abs=1e-9)


def test_default_model_parameter_count():
    model = init_model(ModelConfig(), seed=0)
    count = param_count(model)
    assert abs(count - 1_200_000) / 1_200_000 <= 0.20


def test_feature_length_concatenation():
    cfg = ModelConfig()
    assert cfg.feature_length == 256


# ---------------------------------------------------------------------------
# Smooth L1
# ---------------------------------------------------------------------------


def test_smooth_l1_substitutions():
    loss, grad = smooth_l1(0.5, 0.0)
    assert (loss, grad) == (0.125, 0.5)
    loss, grad = smooth_l1(2.0, 0.0)
    assert (loss, grad) == (1.5, 1.0)
    loss, grad = smooth_l1(-1.0, 0.0)
    assert (loss, grad) == (0.5, -1.0)


def test_smooth_l1_boundary_continuity():
    eps = 1e-12
    inner_loss, inner_grad = smooth_l1(1.0 - eps, 0.0)
    outer_loss, outer_grad = smooth_l1(1.0, 0.0)
    assert outer_loss == pytest.approx(inner_loss, abs=1e-11)
    assert outer_grad == pytest.approx(inner_grad, abs=1e-11)
    assert smooth_l1(1.0, 0.0) == (0.5, 1.0)
    assert smooth_l1(-1.0, 0.0) == (0.5, -1.0)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def _fd_check(seed, residual="D", h=1e-5, tol=1e-4):
    rng_l = np.random.default_rng(seed)
    t = random_tensor(rng_l, n=14, extent=4)
    kmap = build_kernel_map(t)
    cfg = ModelConfig(blocks=2, width=3, fc_hidden=3, residual=residual)
    model = init_model(cfg, seed=seed + 1)
    label = 3.1

    def loss_of():
        q, _ = forward(model, t, training=True, kmap=kmap)
        return smooth_l1(q, label)[0]

    q, cache = forward(model, t, training=True)
    _, dq = smooth_l1(q, label)
    grads = backward(model, cache, dq)
    worst = 0.0
    for name in sorted(model.params):
        arr = model.params[name]
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss_of()
            arr[idx] = orig - h
            lm = loss_of()
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = float(np.asarray(g)[idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            assert rel <= tol, (name, idx, fd, an)
    return worst


def test_gradients_match_finite_differences():
    for seed in (3, 17):
        assert _fd_check(seed) < 1e-4


def test_gradients_residual_variants():
    for variant in ("A", "B", "C"):
        assert _fd_check(23, residual=variant) < 1e-4


def _paper_block(model, b, x, kmap):
    """One block wired by hand from the paper's residual table, out of the
    conv and batch-norm primitives: A has no shortcut; B joins the block
    input into layer 2's pre-activation, C into layer 3's, D joins layer 1's
    output into layer 3's. Block 0's input is 3-wide, so B and C fall back
    to D there. Returns (out, back) with back(dout) -> (dx, grads)."""
    cfg = model.config
    variant = "D" if cfg.residual in ("B", "C") and b == 0 else cfg.residual
    ps = [model.layer_view(b, l) for l in range(3)]
    gs = [{k: np.zeros_like(p[k]) for k in ("w", "gamma", "beta")} for p in ps]

    def pre(l, h):  # conv -> batch norm by the batch statistics
        return bn_forward(conv_forward(ps[l]["w"], h, kmap), ps[l], cfg.bn_momentum, cfg.bn_eps)

    def back(l, h, dz, bn_cache):  # pre-activation gradient -> layer input gradient
        dy, dgamma, dbeta = bn_backward(dz, ps[l]["gamma"], bn_cache)
        gs[l]["gamma"] += dgamma
        gs[l]["beta"] += dbeta
        return conv_backward(ps[l]["w"], h, dy, gs[l]["w"], kmap)

    z1, c1 = pre(0, x)
    h1 = np.maximum(z1, 0.0)
    z2, c2 = pre(1, h1)
    if variant == "B":
        z2 = z2 + x
    h2 = np.maximum(z2, 0.0)
    z3, c3 = pre(2, h2)
    if variant in ("C", "D"):
        z3 = z3 + (x if variant == "C" else h1)
    out = np.maximum(z3, 0.0)

    def backprop(dout):
        dz3 = dout * (z3 > 0)
        dh2 = back(2, h2, dz3, c3)
        dz2 = dh2 * (z2 > 0)
        dh1 = back(1, h1, dz2, c2)
        if variant == "D":
            dh1 = dh1 + dz3
        dx = back(0, x, dh1 * (z1 > 0), c1)
        if variant == "B":
            dx = dx + dz2
        if variant == "C":
            dx = dx + dz3
        return dx, {f"conv{b}.{l}.{k}": v for l in (2, 1, 0) for k, v in gs[l].items()}

    return out, backprop


@pytest.mark.parametrize("variant", RESIDUAL_VARIANTS)
@pytest.mark.parametrize("b", [0, 1])
def test_block_wiring_matches_paper_table(variant, b):
    # the oracle chains block 0, block 1, the pooling and the FC head; case b
    # compares block b's output and the conv gradients its backward reaches
    # (blocks b down to 0) bit for bit
    rng_l = np.random.default_rng(41)
    t = random_tensor(rng_l, n=25, extent=4)
    kmap = build_kernel_map(t)
    model = init_model(ModelConfig(blocks=2, width=5, fc_hidden=3, residual=variant), seed=2)
    dq = rng_l.normal()
    q, cache = forward(model, t, training=True, kmap=kmap)
    grads = backward(model, cache, dq)

    out0, back0 = _paper_block(model, 0, t.feats, kmap)
    out1, back1 = _paper_block(model, 1, out0, kmap)
    want_q, fc_cache = fc_forward(model.params, np.concatenate(
        [global_pool(out0), global_pool(out1)]))
    want_grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    ds = fc_backward(model.params, dq, fc_cache, want_grads)
    dx1, grads1 = back1(global_pool_backward(ds[5:], len(t)))
    _, grads0 = back0(global_pool_backward(ds[:5], len(t)) + dx1)

    assert q == want_q
    np.testing.assert_array_equal(cache.layers[3 * b + 2].out, (out0, out1)[b])
    reached = {**grads1, **grads0} if b else grads0
    assert list(reached) == [f"conv{i}.{l}.{k}" for i in range(b, -1, -1) for l in (2, 1, 0)
                             for k in ("w", "gamma", "beta")]
    for name in reached:
        np.testing.assert_array_equal(grads[name], reached[name])


def test_zero_loss_zero_gradients(rng):
    t = random_tensor(rng, n=20)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    q, cache = forward(model, t, training=True)
    grads = backward(model, cache, 0.0)  # dq at x = 0
    assert all(np.all(g == 0) for g in grads.values())


def test_unused_offset_zero_gradient():
    # isolated point: only the center offset has pairs
    t = tensor_from([[0, 0, 0]], [[0.3, -0.2, 0.1]])
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=1)
    q, cache = forward(model, t, training=True)
    grads = backward(model, cache, 1.0)
    w_grad = grads["conv0.0.w"]
    for k in range(27):
        if k != 13:
            assert np.all(w_grad[k] == 0.0)


@pytest.mark.parametrize("field", ["blocks", "width", "fc_hidden"])
@pytest.mark.parametrize("value", ["64", 2.0, True, 0])
def test_model_config_sizes_are_positive_ints(field, value):
    with pytest.raises(ValueError, match=f"model {field} must be a positive int"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("config", [
    ModelConfig(), ModelConfig(blocks=1, width=4, fc_hidden=4),
    ModelConfig(blocks=3, width=7, fc_hidden=9), ModelConfig(blocks=5, width=8),
], ids=["default", "tiny", "odd-sizes", "five-blocks"])
def test_param_count_closed_form_matches_the_arrays(config):
    assert config.param_count == param_count(init_model(config))


def test_model_size_ceiling_is_checked_in_closed_form():
    # the ablation depths stay valid; the ceiling is checked in closed form,
    # so a config of 10**6 blocks is rejected at once
    for blocks in range(1, 6):
        assert ModelConfig(blocks=blocks).param_count < MAX_PARAMS
    for big in ({"blocks": 10**6}, {"width": 20_000}, {"fc_hidden": 10**6}):
        with pytest.raises(ValueError, match=f"parameters, over {MAX_PARAMS:,}"):
            ModelConfig(**big)


def test_training_is_the_only_mode_switch(rng):
    t = random_tensor(rng, n=30)
    kmap = build_kernel_map(t)
    model = init_model(ModelConfig(blocks=2, width=4, fc_hidden=4), seed=5)
    before = {name: stat.copy() for name, stat in model.state.items()}
    # inference keeps nothing and leaves the running statistics alone
    assert forward(model, t, kmap=kmap)[1] is None
    assert layer_forward(model.layer_view(0, 0), t.feats, kmap, False, 0.9, 1e-5)[1] is None
    for name, stat in model.state.items():
        np.testing.assert_array_equal(stat, before[name])
    # training returns the backward cache and moves every running statistic
    q, cache = forward(model, t, training=True, kmap=kmap)
    assert len(cache.layers) == 6
    assert all(not np.array_equal(stat, before[name]) for name, stat in model.state.items())


def _reachable_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _reachable_arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _reachable_arrays(item)


@pytest.mark.parametrize("variant", RESIDUAL_VARIANTS)
def test_training_cache_keeps_each_activation_once(rng, variant):
    # a layer's cached output is the array the next layer reads, across block
    # boundaries too, and backward reads the ReLU masks from those outputs
    t = random_tensor(rng, n=30)
    model = init_model(ModelConfig(blocks=3, width=4, fc_hidden=4, residual=variant), seed=5)
    _, cache = forward(model, t, training=True)
    for c, c_next in zip(cache.layers, cache.layers[1:]):
        assert c.out is c_next.feats_in
    arrays = list(_reachable_arrays(cache))
    assert arrays and not any(a.dtype == bool for a in arrays)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, rng, monkeypatch):
    model = init_model(ModelConfig(blocks=2, width=6, fc_hidden=4), seed=7)
    t = random_tensor(rng, n=20)
    forward(model, t, training=True)  # move the running stats
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def no_draws(*args):
        raise AssertionError("load_checkpoint drew random numbers")
    monkeypatch.setattr(np.random, "Philox", no_draws)
    back = load_checkpoint(path)
    assert back.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(back.params[name], model.params[name])
    for name in model.state:
        np.testing.assert_array_equal(back.state[name], model.state[name])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\0" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_deterministic_bytes(tmp_path):
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=3)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# One scatter loop: the input gradient is the forward loop on the
# transposed kernel map, and the kernel map is one search of the tensor's keys
# ---------------------------------------------------------------------------


def per_offset_kernel_map(tensor):
    # oracle: one lookup per kernel offset of the probe coordinates, with a
    # box test, in the tensor's packed keys
    n = len(tensor)
    out_rows_all = np.arange(n, dtype=np.int64)
    lo, hi = tensor._mins - 1, tensor._mins + tensor._spans - 2
    pairs = []
    probe = np.zeros(4, dtype=np.int64)
    for offset in KERNEL_OFFSETS:
        probe[:3] = offset
        query = tensor.coords + probe
        inside = np.all((query >= lo) & (query <= hi), axis=1)
        in_rows = np.full(n, -1, dtype=np.int64)
        in_rows[inside] = tensor._rows(tensor._pack(query[inside]))
        valid = in_rows >= 0
        pairs.append((in_rows[valid], out_rows_all[valid]))
    return pairs


def scatter_conv_backward(w, feats, dout, pairs):
    # oracle: the hand-written input-gradient scatter
    dfeats = np.zeros_like(feats)
    dw = np.zeros_like(w)
    for k, (in_rows, out_rows) in enumerate(pairs):
        if len(in_rows):
            dw[k] = feats[in_rows].T @ dout[out_rows]
            dfeats[in_rows] += dout[out_rows] @ w[k].T
    return dfeats, dw


@st.composite
def conv_cases(draw):
    """A sparse tensor of 1-300 sites in up to 4 batches of a small box whose
    corners are occupied, a weight and an output gradient."""
    n = draw(st.integers(1, 300))
    extent = draw(st.integers(1, 8))
    batches = draw(st.lists(st.integers(-3, 9), min_size=1, max_size=4, unique=True))
    c_in, c_out = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = r.integers(-1000, 1000, 3)
    xyz = r.integers(0, extent, (n, 3))
    xyz[0], xyz[-1] = 0, extent - 1  # sites at both edges of the extent
    coords = np.concatenate([origin + xyz, r.choice(batches, (n, 1))], axis=1)
    coords = np.unique(coords, axis=0)
    r.shuffle(coords)
    tensor = SparseTensor(coords, r.normal(size=(len(coords), c_in)))
    w = r.normal(size=(27, c_in, c_out))
    dout = r.normal(size=(len(coords), c_out))
    return tensor, w, dout


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_kernel_map_equals_per_offset_lookup(case):
    tensor, _, _ = case
    kmap = build_kernel_map(tensor)
    expected = per_offset_kernel_map(tensor)
    assert len(kmap.pairs) == len(expected) == 27
    for (in_rows, out_rows), (in_exp, out_exp) in zip(kmap.pairs, expected):
        for got, exp in ((in_rows, in_exp), (out_rows, out_exp)):
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)


@st.composite
def near_limit_tensors(draw):
    """Sites in 2x2x2 clusters at both ends of an extent, one cluster per end
    and batch, whose padded box holds 2^60 to 2^62 packed keys (the index
    limit is 2^62); negative origins, 2-4 batches."""
    batches = sorted(draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4, unique=True)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = r.integers(1, 2**18, 2)
    keys = draw(st.integers(2**61, 2**62 - 2**40))
    big = keys // (np.prod(small + 2) * (batches[-1] - batches[0] + 3)) - 2
    extent = np.insert(small, draw(st.integers(0, 2)), big)
    lo = -r.integers(1, 2**61, 3)
    hi = lo + extent - 1
    step = (extent == big).astype(np.int64)  # a neighbour along the long axis
    clusters = []
    for corner, inward in ((lo, 1), (hi, -1)):
        for b in batches:
            xyz = corner + inward * np.vstack([[0, 0, 0], step, r.integers(0, 2, (6, 3))])
            clusters.append(np.column_stack([np.clip(xyz, lo, hi), np.full(len(xyz), b)]))
    coords = np.unique(np.vstack(clusters), axis=0)
    r.shuffle(coords)
    return SparseTensor(coords, np.zeros((len(coords), 1)))


@settings(max_examples=60, deadline=None)
@given(near_limit_tensors())
def test_kernel_map_near_the_index_limit(tensor):
    spans = tensor.coords.max(axis=0) - tensor.coords.min(axis=0) + 3
    assert 2**60 <= np.prod(spans.astype(np.float64)) < 2**62
    kmap = build_kernel_map(tensor)
    expected = per_offset_kernel_map(tensor)
    assert len(kmap.pairs) == len(expected) == 27
    for (in_rows, out_rows), (in_exp, out_exp) in zip(kmap.pairs, expected):
        for got, exp in ((in_rows, in_exp), (out_rows, out_exp)):
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)
    assert sum(kmap.pair_counts()) > len(tensor)  # neighbours beyond the centre


def test_kernel_offsets_mirror_about_the_centre():
    # build_kernel_map searches offsets 0-12 and takes 14-26 as their mirrors
    assert not KERNEL_OFFSETS[13].any()
    for k in range(27):
        np.testing.assert_array_equal(KERNEL_OFFSETS[26 - k], -KERNEL_OFFSETS[k])


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_forward_into_lent_buffers_is_bit_equal(case):
    tensor, w, _ = case
    kmap = build_kernel_map(tensor)
    fresh = conv_forward(w, tensor.feats, kmap)
    out = np.full((len(tensor), w.shape[2]), np.nan)
    got = conv_forward(w, tensor.feats, kmap, out=out)
    assert got is out
    assert np.array_equal(_bits(got), _bits(fresh))


def test_conv_calls_pass_the_kernel_map_last_and_buffers_by_keyword(rng, monkeypatch):
    # the benchmark's flop probe reads the weight as args[0] and the kernel
    # map as args[-1] of every conv_forward and conv_backward call
    keyword = inspect.Parameter.KEYWORD_ONLY
    params = inspect.signature(conv_forward).parameters
    assert list(params)[:3] == ["w", "feats", "kmap"]
    assert [n for n, p in params.items() if p.kind is keyword] == ["out"]
    assert list(inspect.signature(conv_backward).parameters)[-1] == "kmap"
    t = random_tensor(rng, n=40)
    kmap = build_kernel_map(t)
    calls = []
    for name in ("conv_forward", "conv_backward"):
        def spy(*args, _f=getattr(layers, name), **kwargs):
            calls.append((args, kwargs))
            return _f(*args, **kwargs)
        monkeypatch.setattr(layers, name, spy)
    model = init_model(ModelConfig(blocks=2, width=8, fc_hidden=4), seed=0)
    forward(model, t, kmap=kmap)
    backward(model, forward(model, t, training=True, kmap=kmap)[1], 1.0)
    assert len(calls) == 3 * 6
    for args, kwargs in calls:
        assert args[-1] is kmap and args[0].ndim == 3
        assert set(kwargs) <= {"out"}


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_backward_equals_scatter_oracle(case):
    tensor, w, dout = case
    kmap = build_kernel_map(tensor)
    dw = np.zeros_like(w)
    dfeats = conv_backward(w, tensor.feats, dout, dw, kmap)
    dfeats_exp, dw_exp = scatter_conv_backward(w, tensor.feats, dout, kmap.pairs)
    assert dfeats.dtype == dfeats_exp.dtype and dw.dtype == dw_exp.dtype
    np.testing.assert_array_equal(dfeats, dfeats_exp)
    np.testing.assert_array_equal(dw, dw_exp)


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_backward_is_the_adjoint_of_forward(case):
    # <conv(x), y> = <x, conv^T(y)>, relative to the Cauchy-Schwarz scale
    # |conv(x)| |y| so that a near-zero inner product cannot make it flaky
    tensor, w, y = case
    kmap = build_kernel_map(tensor)
    fx = conv_forward(w, tensor.feats, kmap)
    lhs = np.sum(fx * y)
    rhs = np.sum(tensor.feats * conv_backward(w, tensor.feats, y, np.zeros_like(w), kmap))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(fx) * np.linalg.norm(y)


def test_conv_backward_does_not_call_conv_forward(rng, monkeypatch):
    # the benchmark tracer wraps conv_forward by name; backward work must
    # not be counted as forward calls
    t = random_tensor(rng, n=40, channels=5)
    kmap = build_kernel_map(t)
    w = rng.normal(size=(27, 5, 4))
    dout = rng.normal(size=(len(t), 4))
    expected = scatter_conv_backward(w, t.feats, dout, kmap.pairs)

    def forbidden(*args):
        raise AssertionError("conv_backward called conv_forward")
    monkeypatch.setattr(layers, "conv_forward", forbidden)
    dw = np.zeros_like(w)
    dfeats = layers.conv_backward(w, t.feats, dout, dw, kmap)
    np.testing.assert_array_equal(dfeats, expected[0])
    np.testing.assert_array_equal(dw, expected[1])


# ---------------------------------------------------------------------------
# Backward adds into caller-owned accumulators: bit-equal to the fresh
# arrays summed per sample, and no fresh gradient set per sample
# ---------------------------------------------------------------------------


def _scatter_matmul_fresh(w, x, pairs):
    """out[dst] += x[src] @ w[k] for each offset k and its (src, dst) rows."""
    out = np.zeros((x.shape[0], w.shape[2]))
    for k, (src, dst) in enumerate(pairs):
        if len(src) == len(x):
            out += x @ w[k]
        elif len(src):
            out[dst] += x[src] @ w[k]
    return out


def conv_backward_fresh(w, feats, dout, kmap):
    """Oracle: conv_backward as it was when it returned a fresh dW."""
    dw = np.zeros_like(w)
    for k, (in_rows, out_rows) in enumerate(kmap.pairs):
        if len(in_rows) == len(feats):
            dw[k] = feats.T @ dout
        elif len(in_rows):
            dw[k] = feats[in_rows].T @ dout[out_rows]
    dfeats = _scatter_matmul_fresh(w.transpose(0, 2, 1), dout, [(o, i) for i, o in kmap.pairs])
    return dfeats, dw


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def conv_windows(draw):
    """A window of 1-4 samples sharing the first conv case's weight: each has
    its own sites, input and output gradient, with rows set to +0.0 and -0.0."""
    first = draw(conv_cases())
    w = first[1]
    cases = [first] + [draw(conv_cases()) for _ in range(draw(st.integers(0, 3)))]
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for tensor, _, _ in cases:
        feats = r.normal(size=(len(tensor), w.shape[1]))
        dout = r.normal(size=(len(tensor), w.shape[2]))
        for a in (feats, dout):
            kind = r.integers(0, 5, len(a))
            a[kind == 0] = 0.0
            a[kind == 1] = -0.0
        samples.append((build_kernel_map(tensor), feats, dout))
    return w, samples


@settings(max_examples=60, deadline=None)
@given(conv_windows())
def test_conv_backward_accumulates_bit_equal_to_the_per_sample_sum(case):
    w, samples = case
    acc = np.zeros_like(w)
    want = np.zeros_like(w)  # the per-sample fresh dW added into zeros
    old_sum = None  # the old training loop: the first dW itself, then +=
    for kmap, feats, dout in samples:
        dfeats = conv_backward(w, feats, dout, acc, kmap)
        dfeats_exp, dw_exp = conv_backward_fresh(w, feats, dout, kmap)
        assert dfeats.dtype == dfeats_exp.dtype and dfeats.shape == dfeats_exp.shape
        assert np.array_equal(_bits(dfeats), _bits(dfeats_exp))
        want += dw_exp
        old_sum = dw_exp if old_sum is None else old_sum + dw_exp
    assert np.array_equal(_bits(acc), _bits(want))
    # against the old loop only the sign of a zero may differ: 0.0 + (-0.0)
    np.testing.assert_array_equal(acc, old_sum)


def test_backward_into_an_accumulator_allocates_no_gradient_set():
    # a train-sized shell: one fresh gradient set of the default model is
    # param_count * 8 bytes (about 9.8 MB)
    t = voxelize(shell_cloud(np.random.default_rng(0), n=200), 1.0)
    model = init_model(ModelConfig(), seed=0)
    q, cache = forward(model, t, training=True)
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    tracemalloc.start()
    try:
        out = backward(model, cache, 1.0, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is grads
    assert peak < param_count(model) * 8 / 4, peak / (param_count(model) * 8)


# ---------------------------------------------------------------------------
# Lean inference: no caches, the centre tap as a plain matmul, batch norm
# folded into the conv weights; training keeps every output bit
# ---------------------------------------------------------------------------


def _assert_conv_is_the_zero_filled_loop(w, feats, kmap):
    """conv_forward, fresh and into a NaN-filled lent `out`, against the loop
    that zero-fills its output and adds every offset in order."""
    want = _scatter_matmul_fresh(w, feats, kmap.pairs)
    lent = np.full(want.shape, np.nan)
    for got in (conv_forward(w, feats, kmap), conv_forward(w, feats, kmap, out=lent)):
        assert got.dtype == want.dtype and got.shape == want.shape
        # each row adds the same terms in the same order; only the zero-filled
        # loop's first addition, 0.0 + x, turns a -0.0 into +0.0, so a zero's
        # sign is the one difference that can remain
        assert np.array_equal(got, want)
        nonzero = want != 0
        assert np.array_equal(_bits(got[nonzero]), _bits(want[nonzero]))


@st.composite
def signed_zero_conv_cases(draw):
    """A conv case whose feature rows are set to +0.0 and -0.0 in part."""
    tensor, w, _ = draw(conv_cases())
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = tensor.feats.copy()
    kind = r.integers(0, 5, len(feats))
    feats[kind == 0] = 0.0
    feats[kind == 1] = -0.0
    return tensor, w, feats


@settings(max_examples=60, deadline=None)
@given(signed_zero_conv_cases())
def test_conv_forward_equals_the_zero_filled_loop(case):
    # conv_cases' small dense boxes reach rows through several offsets below
    # the centre; the map is built by search and, as any KernelMap(pairs),
    # from the per-offset lookup
    tensor, w, feats = case
    _assert_conv_is_the_zero_filled_loop(w, feats, build_kernel_map(tensor))
    _assert_conv_is_the_zero_filled_loop(w, feats, KernelMap(per_offset_kernel_map(tensor)))


@pytest.mark.parametrize("value", [1.5, 0.0, -0.0])
def test_conv_forward_of_one_site_is_the_zero_filled_loop(value):
    tensor = tensor_from([[4, -2, 7]], np.full((1, 3), value))
    w = np.random.default_rng(5).normal(size=(27, 3, 4))
    _assert_conv_is_the_zero_filled_loop(w, tensor.feats, build_kernel_map(tensor))


def _forward_digests(variant, blocks):
    """Two SHA-256 digests over two seeded tensors: one of the inference
    score, one of the training score and the running statistics that
    training forward left."""
    r = np.random.default_rng(70)
    tensors = (random_tensor(r, n=80, extent=6), voxelize(shell_cloud(r, n=200)))
    inference, training = hashlib.sha256(), hashlib.sha256()
    for t in tensors:
        model = init_model(ModelConfig(blocks=blocks, width=8, fc_hidden=4, residual=variant),
                           seed=7)
        for stat in model.state.values():
            stat += r.uniform(0.1, 0.5, stat.shape)  # away from (0, 1)
        inference.update(repr(forward(model, t)[0]).encode())
        training.update(repr(forward(model, t, training=True)[0]).encode())
        for name in sorted(model.state):
            training.update(model.state[name].tobytes())
    return inference.hexdigest(), training.hexdigest()


# (inference, training): the training digests were computed before inference
# folded batch norm into the conv and must not move; the inference digests
# pin the folded output
_FORWARD_SHA256 = {
    ("A", 1): ("9364cae53af31fa78b477bfda728b34e8265f2ebd50cb2e0af3f070c2780c31d",
               "b39d6102ff32d1dc348aa526543bb9e242abe9be3dc14279e2f48484644b59d7"),
    ("A", 4): ("85f3d2657c9d0f7029f035d8b8ede9b1f04f73411955fcdefeef1f8e96b23133",
               "ed6300b215fd8bbd03ad4fe8f2b1277b9b5c15bf07f0022cceac08ba390b067a"),
    ("B", 1): ("6e5e7fc4d16fc4feb44793e9dbf9d8ea59e8bac5e62275974966f2b79b25dcc5",
               "e8ed093b6e910f880d2e0821fc8d38268df6f8486512aa996364b3480bb4be7f"),
    ("B", 4): ("8f7f8e8b95441a300bbaef9e0bf68f82311a54e2feb8f2893c436ecd3434904d",
               "7ae89345732eaf642ac38fd4965bf554fa00cb3d01603379c9c5ac62e9c9b681"),
    ("C", 1): ("6e5e7fc4d16fc4feb44793e9dbf9d8ea59e8bac5e62275974966f2b79b25dcc5",
               "e8ed093b6e910f880d2e0821fc8d38268df6f8486512aa996364b3480bb4be7f"),
    ("C", 4): ("9042c6edd41e977ceb6d1b5daa82aed874094a1fab47ff7553117023eb494873",
               "0dda840cc846f950528fd748eaefc43b0af9df6df9ef41e5c2f91b0fe1b253f5"),
    ("D", 1): ("6e5e7fc4d16fc4feb44793e9dbf9d8ea59e8bac5e62275974966f2b79b25dcc5",
               "e8ed093b6e910f880d2e0821fc8d38268df6f8486512aa996364b3480bb4be7f"),
    ("D", 4): ("da334fc2d183bcb1e5dcbda667186044989694fac8b1e827486103c11b280be7",
               "db8ccc2679cb875466a635c1fc6d2516e176720c63e6a15c98f5e9181b108197"),
}


@pytest.mark.parametrize("blocks", [1, 4])
# the ids keep the pooling, global average, that the digests were taken with
@pytest.mark.parametrize("variant", RESIDUAL_VARIANTS, ids=lambda v: f"{v}-avg")
def test_forward_without_cache_is_bit_equal(variant, blocks):
    # inference keeps no cache and its folded output is pinned; training and
    # the running-statistic updates stay bit-equal to the unfolded engine
    # that still had cache options
    assert _forward_digests(variant, blocks) == _FORWARD_SHA256[variant, blocks]


def running_stats_bn_oracle(x, gamma, beta, running_mean, running_var, eps):
    # the inference batch norm written with one temporary per operation
    inv_std = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv_std
    return gamma * xhat + beta


@st.composite
def folded_layer_cases(draw):
    cin, cout = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coords = sorted(draw(st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=20)))
    value = st.floats(-1e3, 1e3, allow_subnormal=False)
    x = draw(hnp.arrays(np.float64, (len(coords), cin), elements=value))
    params = {"w": draw(hnp.arrays(np.float64, (27, cin, cout), elements=value))}
    for name in ("gamma", "beta", "running_mean"):
        params[name] = draw(hnp.arrays(np.float64, cout, elements=value))
    params["running_var"] = draw(hnp.arrays(np.float64, cout, elements=st.floats(0.0, 1e6)))
    eps = draw(st.sampled_from([1e-5, 1e-300]))
    shortcut = draw(st.none() | hnp.arrays(np.float64, (len(coords), cout), elements=value))
    return tensor_from(coords, x), params, eps, shortcut


@settings(max_examples=200, deadline=None)
@given(folded_layer_cases())
def test_folded_inference_layer_matches_bn_oracle(case):
    t, params, eps, shortcut = case
    kmap = build_kernel_map(t)
    y, cache = layer_forward(params, t.feats, kmap, False, 0.9, eps, shortcut=shortcut)
    expected = running_stats_bn_oracle(conv_forward(params["w"], t.feats, kmap), params["gamma"],
                                       params["beta"], params["running_mean"],
                                       params["running_var"], eps)
    if shortcut is not None:
        expected = expected + shortcut
    expected = np.maximum(expected, 0.0)
    assert cache is None and y.shape == expected.shape
    # the fold reorders the rounding of w * x * scale - mean * scale + beta
    # (+ shortcut): bound the error relative to the magnitude of those terms,
    # plus an absolute floor for products that underflow
    scale = np.abs(params["gamma"]) / np.sqrt(params["running_var"] + eps)
    magnitude = (conv_forward(np.abs(params["w"]), np.abs(t.feats), kmap) * scale
                 + np.abs(params["running_mean"]) * scale + np.abs(params["beta"]))
    if shortcut is not None:
        magnitude += np.abs(shortcut)
    assert np.all(np.abs(y - expected) <= 1e-12 * magnitude + 1e-300)


@pytest.mark.parametrize("variant, bound", [("A", 3), ("B", 4), ("C", 4), ("D", 4)],
                         ids=RESIDUAL_VARIANTS)
def test_inference_forward_holds_no_layer_inputs(variant, bound):
    # about 10k sparse sites at about 1.04 kernel-map pairs per site, as in
    # eval; keeping every layer's input alive peaks at about 16 activations.
    # A layer holds its input and its conv output, into which the centre tap
    # is written with no buffer of its own; B, C and D also hold their
    # shortcut source at the join layer
    r = np.random.default_rng(0)
    coords = np.unique(r.integers(0, 200, (10_500, 3)), axis=0)[:10_000]
    t = tensor_from(coords, r.normal(size=(len(coords), 3)))
    model = init_model(ModelConfig(residual=variant), seed=0)
    kmap = build_kernel_map(t)
    activation = len(t) * model.config.width * 8
    tracemalloc.start()
    try:
        forward(model, t, kmap=kmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * activation, peak / activation


def test_inference_buffers_do_not_outlive_the_forward_call(rng):
    t = random_tensor(rng, n=2000, extent=40)
    model = init_model(ModelConfig(blocks=2), seed=0)
    kmap = build_kernel_map(t)
    activation = len(t) * model.config.width * 8
    tracemalloc.start()
    try:
        forward(model, t, kmap=kmap)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 3 * activation  # the three buffers of variant D were live
    assert current < activation / 10, current / activation
