import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcqa.pcio import PointCloud
from pcqa.sparsenn import (
    KERNEL_OFFSETS, Model, ModelConfig, SparseTensor, TrainConfig,
    backward, build_kernel_map, conv_forward, forward, global_pool,
    init_model, load_checkpoint, param_count, save_checkpoint, smooth_l1,
    voxelize,
)
from pcqa.sparsenn import layers
from pcqa.sparsenn.layers import (
    conv_backward, layer_backward, layer_forward, relu_backward, relu_forward,
)
from pcqa.sparsenn.model import (
    RESIDUAL_VARIANTS, CheckpointError, _block_backward, _block_forward,
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
    q, cache = forward(model, t, training=False, return_cache=True)
    assert cache.n_rows == len(t)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def test_global_pool_mean():
    vec, _ = global_pool(np.array([[1.0, 2.0], [3.0, 4.0]]), "avg")
    np.testing.assert_allclose(vec, [2.0, 3.0])


def test_global_pool_single_row():
    vec, _ = global_pool(np.array([[7.0, -1.0]]), "avg")
    np.testing.assert_allclose(vec, [7.0, -1.0])


def test_global_pool_permutation_invariant(rng):
    feats = rng.normal(size=(20, 5))
    perm = rng.permutation(20)
    for mode in ("avg", "max"):
        a, _ = global_pool(feats, mode)
        b, _ = global_pool(feats[perm], mode)
        np.testing.assert_allclose(a, b, atol=1e-12)


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


def _fd_check(seed, residual="D", pooling="avg", h=1e-5, tol=1e-4):
    rng_l = np.random.default_rng(seed)
    t = random_tensor(rng_l, n=14, extent=4)
    kmap = build_kernel_map(t)
    cfg = ModelConfig(blocks=2, width=3, fc_hidden=3, residual=residual, pooling=pooling)
    model = init_model(cfg, seed=seed + 1)
    label = 3.1

    def loss_of():
        q, _ = forward(model, t, training=True, update_stats=False, kmap=kmap)
        return smooth_l1(q, label)[0]

    q, cache = forward(model, t, training=True, return_cache=True, update_stats=False)
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


def test_gradients_max_pooling():
    assert _fd_check(29, pooling="max") < 1e-4


def _paper_block(model, b, x, kmap, dout):
    """One block wired by hand from the paper's residual table: A has no
    shortcut; B joins the block input into layer 2's pre-activation, C into
    layer 3's, D joins layer 1's output into layer 3's. Block 0's input is
    3-wide, so B and C fall back to D there. Returns (out, dx, grads)."""
    cfg = model.config
    variant = "D" if cfg.residual in ("B", "C") and b == 0 else cfg.residual
    kw = dict(training=True, momentum=cfg.bn_momentum, eps=cfg.bn_eps, update_stats=False)
    p1, p2, p3 = (model.layer_view(b, l) for l in range(3))
    h1, c1 = layer_forward(p1, x, kmap, activate=True, **kw)
    if variant == "A":
        h2, c2 = layer_forward(p2, h1, kmap, activate=True, **kw)
        out, c3 = layer_forward(p3, h2, kmap, activate=True, **kw)
        dh2, g3 = layer_backward(p3, dout, c3, kmap)
        dh1, g2 = layer_backward(p2, dh2, c2, kmap)
        dx, g1 = layer_backward(p1, dh1, c1, kmap)
    elif variant == "B":
        z2, c2 = layer_forward(p2, h1, kmap, activate=False, **kw)
        h2, mask = relu_forward(z2 + x)
        out, c3 = layer_forward(p3, h2, kmap, activate=True, **kw)
        dh2, g3 = layer_backward(p3, dout, c3, kmap)
        dz2 = relu_backward(dh2, mask)
        dh1, g2 = layer_backward(p2, dz2, c2, kmap)
        dx, g1 = layer_backward(p1, dh1, c1, kmap)
        dx = dx + dz2
    else:
        h2, c2 = layer_forward(p2, h1, kmap, activate=True, **kw)
        z3, c3 = layer_forward(p3, h2, kmap, activate=False, **kw)
        out, mask = relu_forward(z3 + (x if variant == "C" else h1))
        dz3 = relu_backward(dout, mask)
        dh2, g3 = layer_backward(p3, dz3, c3, kmap)
        dh1, g2 = layer_backward(p2, dh2, c2, kmap)
        if variant == "D":
            dh1 = dh1 + dz3
        dx, g1 = layer_backward(p1, dh1, c1, kmap)
        if variant == "C":
            dx = dx + dz3
    grads = {f"conv{b}.{l}.{k}": v for l, g in ((2, g3), (1, g2), (0, g1)) for k, v in g.items()}
    return out, dx, grads


@pytest.mark.parametrize("variant", RESIDUAL_VARIANTS)
@pytest.mark.parametrize("b", [0, 1])
def test_block_wiring_matches_paper_table(variant, b):
    rng_l = np.random.default_rng(41)
    t = random_tensor(rng_l, n=25, extent=4)
    kmap = build_kernel_map(t)
    model = init_model(ModelConfig(blocks=2, width=5, fc_hidden=3, residual=variant), seed=2)
    x = t.feats if b == 0 else rng_l.normal(size=(len(t), 5))
    dout = rng_l.normal(size=(len(t), 5))
    out, cache = _block_forward(model, b, x, kmap, training=True, update_stats=False)
    dx, grads = _block_backward(model, b, dout, cache, kmap)
    want_out, want_dx, want_grads = _paper_block(model, b, x, kmap, dout)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(dx, want_dx)
    assert list(grads) == list(want_grads)
    for name in grads:
        np.testing.assert_array_equal(grads[name], want_grads[name])


def test_zero_loss_zero_gradients(rng):
    t = random_tensor(rng, n=20)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    q, cache = forward(model, t, training=True, return_cache=True, update_stats=False)
    grads = backward(model, cache, 0.0)  # dq at x = 0
    assert all(np.all(g == 0) for g in grads.values())


def test_unused_offset_zero_gradient():
    # isolated point: only the center offset has pairs
    t = tensor_from([[0, 0, 0]], [[0.3, -0.2, 0.1]])
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=1)
    q, cache = forward(model, t, training=True, return_cache=True, update_stats=False)
    grads = backward(model, cache, 1.0)
    w_grad = grads["conv0.0.w"]
    for k in range(27):
        if k != 13:
            assert np.all(w_grad[k] == 0.0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, rng):
    model = init_model(ModelConfig(blocks=2, width=6, fc_hidden=4), seed=7)
    t = random_tensor(rng, n=20)
    forward(model, t, training=True)  # move the running stats
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
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
# transposed kernel map, and the kernel map is one lookup over all probes
# ---------------------------------------------------------------------------


def per_offset_kernel_map(tensor):
    # oracle: one lookup per kernel offset
    n = len(tensor)
    out_rows_all = np.arange(n, dtype=np.int64)
    pairs = []
    probe = np.zeros(4, dtype=np.int64)
    for offset in KERNEL_OFFSETS:
        probe[:3] = offset
        in_rows = tensor.lookup(tensor.coords + probe)
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


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_backward_equals_scatter_oracle(case):
    tensor, w, dout = case
    kmap = build_kernel_map(tensor)
    dfeats, dw = conv_backward(w, tensor.feats, dout, kmap)
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
    rhs = np.sum(tensor.feats * conv_backward(w, tensor.feats, y, kmap)[0])
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
    dfeats, dw = layers.conv_backward(w, t.feats, dout, kmap)
    np.testing.assert_array_equal(dfeats, expected[0])
    np.testing.assert_array_equal(dw, expected[1])
