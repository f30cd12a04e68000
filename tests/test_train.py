import sys

import numpy as np
import pytest

from pcqa.sparsenn import (
    ModelConfig, TrainConfig, TrainSample, augment, init_model, predict,
    sgd_step, train,
)

from conftest import shell_cloud

NO_AUG = dict(scale_range=(1.0, 1.0), rotation_range=(0.0, 0.0))


def small_samples(seed=0, count=4, labels=None):
    r = np.random.default_rng(seed)
    labels = labels or [1.5 + i for i in range(count)]
    return [TrainSample(f"s{i}", shell_cloud(r, n=60, radius=4.0), labels[i])
            for i in range(count)]


# ---------------------------------------------------------------------------
# SGD step
# ---------------------------------------------------------------------------


def test_sgd_zero_gradients_noop():
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    sgd_step(model.params, grads, lr=0.1, k=8)
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_sgd_scalar_update():
    params = {"w": np.array([2.0])}
    sgd_step(params, {"w": np.array([4.0])}, lr=0.5, k=2)
    # theta - lr * (sum g)/k = 2 - 0.5 * 2
    np.testing.assert_allclose(params["w"], [1.0])


def test_lr_decay_closed_form():
    samples = small_samples(count=2)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=1)
    cfg = TrainConfig(lr=1e-3, lr_decay=0.97, accum=2, epochs=10, seed=0, **NO_AUG)
    result = train(model, samples, cfg)
    assert result.final_lr == pytest.approx(1e-3 * 0.97**10, abs=1e-12)
    # the recorded lr at each step is lr0 * decay^epoch
    for point in result.losses:
        assert point.lr == pytest.approx(1e-3 * 0.97**point.epoch, rel=1e-12)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def test_augment_identity_ranges():
    cloud = shell_cloud(np.random.default_rng(2), n=50)
    cfg = TrainConfig(**NO_AUG)
    out = augment(cloud, np.random.default_rng(0), cfg)
    np.testing.assert_allclose(out.positions, cloud.positions, atol=1e-12)


def test_augment_scales_pairwise_distances():
    cloud = shell_cloud(np.random.default_rng(3), n=40)
    cfg = TrainConfig(scale_range=(0.8, 1.2), rotation_range=(0.0, 360.0))
    rng = np.random.default_rng(7)
    out = augment(cloud, rng, cfg)
    # recover the factor from one pair, then check all pairs
    d_in = np.linalg.norm(cloud.positions[None] - cloud.positions[:, None], axis=-1)
    d_out = np.linalg.norm(out.positions[None] - out.positions[:, None], axis=-1)
    mask = d_in > 0
    factors = d_out[mask] / d_in[mask]
    assert factors.std() < 1e-9
    assert 0.8 <= factors.mean() <= 1.2


def test_augment_preserves_centroid():
    cloud = shell_cloud(np.random.default_rng(4), n=70)
    cfg = TrainConfig()
    out = augment(cloud, np.random.default_rng(11), cfg)
    np.testing.assert_allclose(out.positions.mean(axis=0),
                               cloud.positions.mean(axis=0), atol=1e-9)
    np.testing.assert_array_equal(out.colors, cloud.colors)


def test_augment_rotation_is_about_z():
    cloud = shell_cloud(np.random.default_rng(5), n=30)
    cfg = TrainConfig(scale_range=(1.0, 1.0), rotation_range=(0.0, 360.0))
    out = augment(cloud, np.random.default_rng(13), cfg)
    # z offsets from the centroid are untouched by a vertical-axis rotation
    cz = cloud.positions[:, 2].mean()
    np.testing.assert_allclose(out.positions[:, 2] - cz,
                               cloud.positions[:, 2] - cz, atol=1e-9)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_same_seed_identical_loss_curves():
    cfg = TrainConfig(lr=5e-3, accum=2, epochs=4, seed=42, **NO_AUG)
    runs = []
    for _ in range(2):
        model = init_model(ModelConfig(blocks=1, width=6, fc_hidden=4), seed=9)
        result = train(model, small_samples(), cfg)
        runs.append([(p.step, p.epoch, p.lr, p.loss) for p in result.losses])
    assert runs[0] == runs[1]


def test_training_reduces_loss():
    cfg = TrainConfig(lr=0.02, lr_decay=1.0, accum=4, epochs=60, seed=1, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=8, fc_hidden=8), seed=2)
    samples = small_samples(count=4)
    result = train(model, samples, cfg)
    first = np.mean([p.loss for p in result.losses[:4]])
    last = np.mean([p.loss for p in result.losses[-4:]])
    assert last < 0.25 * first


def test_overfit_one_sample_prediction():
    samples = small_samples(count=1, labels=[3.7])
    cfg = TrainConfig(lr=0.03, lr_decay=1.0, accum=1, epochs=300, seed=3, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=8, fc_hidden=8), seed=4)
    train(model, samples, cfg)
    assert predict(model, samples[0].cloud) == pytest.approx(3.7, abs=0.05)


def test_predict_deterministic():
    model = init_model(ModelConfig(blocks=1, width=6, fc_hidden=4), seed=5)
    cloud = shell_cloud(np.random.default_rng(6), n=80)
    assert predict(model, cloud) == predict(model, cloud)


def test_empty_split_errors():
    cfg = TrainConfig()
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=7)
    with pytest.raises(ValueError, match="empty"):
        train(model, [], cfg)


def test_max_steps_cuts_training():
    samples = small_samples(count=4)
    cfg = TrainConfig(epochs=100, max_steps=10, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=8)
    result = train(model, samples, cfg)
    assert len(result.losses) == 10


def _count_steps(monkeypatch):
    """Backward passes and (lr, k) of every SGD step of the training loop."""
    module = sys.modules["pcqa.sparsenn.train"]
    backward, sgd = module.backward, module.sgd_step
    passes, steps = [], []

    def counted_backward(model, cache, dq, grads=None):
        passes.append(dq)
        return backward(model, cache, dq, grads)

    def counted_sgd(params, grad_sum, lr, k):
        steps.append((lr, k))
        return sgd(params, grad_sum, lr, k)
    monkeypatch.setattr(module, "backward", counted_backward)
    monkeypatch.setattr(module, "sgd_step", counted_sgd)
    return passes, steps


def test_last_partial_window_is_applied(monkeypatch):
    passes, steps = _count_steps(monkeypatch)
    cfg = TrainConfig(lr=0.01, lr_decay=0.5, accum=4, epochs=3, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    result = train(model, small_samples(count=5), cfg)
    assert len(passes) == 15
    # windows at samples 4, 8 and 12 (epochs 0, 1, 2), then samples 13-15 of epoch 2
    assert steps == [(0.01, 4), (0.005, 4), (0.0025, 4), (0.0025, 3)]
    assert result.losses[-1].lr == 0.0025


def test_max_steps_mid_window_applies_the_window(monkeypatch):
    passes, steps = _count_steps(monkeypatch)
    cfg = TrainConfig(lr=0.01, lr_decay=0.5, accum=4, epochs=100, max_steps=6, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    train(model, small_samples(count=5), cfg)
    assert len(passes) == 6
    # the last window holds sample 5 of epoch 0 and sample 6, trained in epoch 1
    assert steps == [(0.01, 4), (0.005, 2)]


def test_full_windows_take_no_extra_step(monkeypatch):
    passes, steps = _count_steps(monkeypatch)
    cfg = TrainConfig(accum=2, epochs=2, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    train(model, small_samples(count=4), cfg)
    assert len(passes) == 8
    assert [k for _, k in steps] == [2, 2, 2, 2]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(accum=0)


def test_rotation_robustness_probe(capsys):
    # drift under an augmentation-style rotation is measured and reported,
    # not asserted: robustness is a training-time target, not a guarantee
    samples = small_samples(count=1, labels=[3.0])
    cfg = TrainConfig(lr=0.03, lr_decay=1.0, accum=1, epochs=120, seed=3, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=8, fc_hidden=8), seed=4)
    train(model, samples, cfg)
    cloud = samples[0].cloud
    base = predict(model, cloud)
    rot_cfg = TrainConfig(scale_range=(1.0, 1.0), rotation_range=(90.0, 90.0))
    rotated = augment(cloud, np.random.default_rng(0), rot_cfg)
    drift = abs(predict(model, rotated) - base)
    print(f"rotation robustness probe: drift {drift:.4f} at 90 degrees")


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------


def test_non_finite_loss_names_step_and_sample():
    samples = small_samples(count=4, labels=[1.5, 2.5, float("nan"), 4.5])
    cfg = TrainConfig(accum=2, epochs=1, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    with pytest.raises(ValueError, match=r"diverged at step [1-4]: loss nan on sample s2$"):
        train(model, samples, cfg)


def test_exploding_lr_fails_at_the_first_non_finite_loss():
    cfg = TrainConfig(lr=1e300, accum=2, epochs=3, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged at step 3: loss nan"):
        train(model, small_samples(count=4), cfg)


def test_non_finite_gradient_stops_before_the_sgd_step(monkeypatch):
    module = sys.modules["pcqa.sparsenn.train"]
    backward, calls = module.backward, []

    def planted(model, cache, dq, grads=None):  # the third sample's gradient overflows
        grads = backward(model, cache, dq, grads)
        calls.append(dq)
        if len(calls) == 3:
            grads["fc2.b"][0] = np.inf
        return grads
    monkeypatch.setattr(module, "backward", planted)
    cfg = TrainConfig(accum=2, epochs=1, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    with pytest.raises(ValueError, match=r"diverged at step 4: non-finite gradient of fc2\.b "
                                         r"over samples s\d, s\d$"):
        train(model, small_samples(count=4), cfg)
    assert np.isfinite(model.params["fc2.b"]).all()  # only the first SGD step ran


def test_non_finite_gradient_in_the_last_partial_window_stops_training(monkeypatch):
    module = sys.modules["pcqa.sparsenn.train"]
    backward, calls = module.backward, []

    def planted(model, cache, dq, grads=None):  # the last sample's gradient overflows
        grads = backward(model, cache, dq, grads)
        calls.append(dq)
        if len(calls) == 3:
            grads["fc2.b"][0] = np.inf
        return grads
    monkeypatch.setattr(module, "backward", planted)
    cfg = TrainConfig(accum=2, epochs=1, **NO_AUG)
    model = init_model(ModelConfig(blocks=1, width=4, fc_hidden=4), seed=0)
    with pytest.raises(ValueError, match=r"diverged at step 3: non-finite gradient of fc2\.b "
                                         r"over samples s\d$"):
        train(model, small_samples(count=3), cfg)
    assert np.isfinite(model.params["fc2.b"]).all()
