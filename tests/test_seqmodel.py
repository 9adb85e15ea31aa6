import hashlib
import json
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from softact import (ExperimentConfig, FeatureSet, FormatError, ModelConfig,
                     ModelParams, ProtocolConfig, SoftLabel, TrainingDiverged,
                     adam_step, forward_batch, init_params, load_checkpoint,
                     loss_and_gradients_batch, one_hot, save_checkpoint,
                     topk_accuracy, train_model, weight_shapes)
from softact import seqmodel
from softact.seqmodel import _sigmoid
from softact.smoothing import PROB_EPS, softmax


def tiny_config(**kw) -> ModelConfig:
    kw.setdefault("modalities", (("rgb", 3), ("flow", 2)))
    kw.setdefault("num_classes", 3)
    kw.setdefault("hidden_size", 4)
    return ModelConfig(**kw)


# a stack of two 3-d modalities, then a 5-d one: a stack view that ran on
# past the first two would read the third's weights
MIXED_WIDTHS = ModelConfig(modalities=(("a", 3), ("b", 3), ("c", 5)),
                           num_classes=7, hidden_size=4)


def random_features(config: ModelConfig, batch: int, steps: int,
                    seed: int = 0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(batch, steps, d)) for d in config.feature_dims]


# --------------------------------------------------------------- protocol


def test_protocol_anticipation_times():
    p = ProtocolConfig()
    assert p.total_steps == 14
    assert p.anticipation_times() == (2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5,
                                      0.25)
    assert p.step_for_time(1.0) == 4
    assert p.step_for_time(0.25) == 7
    assert p.step_for_time(2.0) == 0
    # nearest step wins for off-grid times
    assert p.step_for_time(0.9) == 4


def test_protocol_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(encode_steps=0)
    with pytest.raises(ValueError):
        ProtocolConfig(decode_steps=0)
    with pytest.raises(ValueError):
        ProtocolConfig(snippet_stride=0.0)
    three = ProtocolConfig(decode_steps=1, snippet_stride=0.5)
    assert three.anticipation_times() == (0.5,)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(modalities=(), num_classes=3)
    with pytest.raises(ValueError):
        ModelConfig(modalities=(("rgb", 0),), num_classes=3)
    with pytest.raises(ValueError):
        tiny_config(num_classes=0)
    with pytest.raises(ValueError):
        tiny_config(hidden_size=0)
    assert tiny_config().feature_dims == (3, 2)


# ------------------------------------------------------------------- init


def test_init_params_shapes_and_bias():
    cfg = tiny_config()
    params = init_params(cfg)
    assert [w.shape for w in params.weights] == weight_shapes(cfg)
    assert [w.shape for w in params.weights] == [
        (7, 16), (16,), (6, 16), (16,), (8, 3), (3,)]
    H = cfg.hidden_size
    for m in range(2):
        bias = params.weights[2 * m + 1]
        np.testing.assert_array_equal(bias[H:2 * H], 1.0)  # forget gates
        np.testing.assert_array_equal(bias[:H], 0.0)
        np.testing.assert_array_equal(bias[2 * H:], 0.0)
    np.testing.assert_array_equal(params.fusion_bias, 0.0)
    bound = 1.0 / np.sqrt(7)
    assert np.all(np.abs(params.weights[0]) <= bound)


def address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def test_weights_and_gradients_are_views_of_one_flat_vector():
    cfg = MIXED_WIDTHS
    params = init_params(cfg)
    shapes = weight_shapes(cfg)
    offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    assert params.flat.shape == (offsets[-1],)
    for w, shape, offset in zip(params.weights, shapes, offsets):
        assert w.shape == shape and w.flags.c_contiguous
        assert w.base is params.flat
        assert address(w) == address(params.flat) + 8 * offset
    # a stack's matrices and biases are views of its modalities' weights
    for split in (False, True):
        for g in seqmodel._stacks(cfg.feature_dims, split):
            W, b = seqmodel._stack_views(params.flat, cfg, g)
            assert len(W) == len(b) == g.stop - g.start
            for m, (W_m, b_m) in enumerate(zip(W, b), g.start):
                for view, w in ((W_m, params.weights[2 * m]),
                                (b_m, params.weights[2 * m + 1])):
                    assert view.shape == w.shape
                    assert view.strides == w.strides
                    assert address(view) == address(w)
    with pytest.raises(TypeError):
        params.weights[0] = np.zeros(shapes[0])
    for bad in (np.zeros(offsets[-1] - 1), np.zeros(offsets[-1] + 1),
                np.zeros((1, offsets[-1])), params.flat.astype(np.float32),
                list(params.flat)):
        with pytest.raises(ValueError, match="float64 vector"):
            ModelParams(cfg, bad)

    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    _, grads = loss_and_gradients_batch(
        params, random_features(cfg, batch=4, steps=5),
        np.full((4, cfg.num_classes), 1 / cfg.num_classes), protocol)
    grad = grads[0].base
    assert grad.shape == params.flat.shape
    assert len(grads) == len(shapes)
    for g, shape, offset in zip(grads, shapes, offsets):
        assert g.shape == shape and g.flags.c_contiguous
        assert g.base is grad
        assert address(g) == address(grad) + 8 * offset


def test_init_params_deterministic():
    a = init_params(tiny_config(seed=5))
    b = init_params(tiny_config(seed=5))
    c = init_params(tiny_config(seed=6))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


# ---------------------------------------------------------------- forward


def test_forward_zero_weights_uniform():
    cfg = tiny_config()
    params = init_params(cfg)
    for w in params.weights:
        w[...] = 0.0
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=4, steps=5)
    probs = forward_batch(params, feats, protocol)
    assert probs.shape == (4, 3, 3)
    np.testing.assert_allclose(probs, 1 / 3, rtol=0, atol=1e-15)


def test_forward_single_sample_matches_batch():
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=4, steps=5, seed=2)
    probs = forward_batch(params, feats, protocol)
    for i in range(4):
        single_probs = forward_batch(params, [x[i:i + 1] for x in feats],
                                     protocol)
        np.testing.assert_allclose(single_probs[0], probs[i], rtol=0,
                                   atol=1e-12)


def test_forward_holds_one_k_wide_array():
    # the softmax overwrites the logits, so the forward's peak is one
    # (B, S, K) float64 array plus small ones, not logits and probabilities
    K = 600
    cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)), num_classes=K,
                      hidden_size=16)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    feats = random_features(cfg, batch=512, steps=protocol.total_steps)
    tracemalloc.start()
    try:
        probs = forward_batch(params, feats, protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (512, protocol.decode_steps, K)
    assert peak < 1.5 * probs.nbytes


def test_forward_shape_errors():
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    good = random_features(cfg, batch=2, steps=5)
    with pytest.raises(ValueError):
        forward_batch(params, good[:1], protocol)  # missing modality
    with pytest.raises(ValueError):
        forward_batch(params, [good[0], good[0]], protocol)  # wrong dim
    with pytest.raises(ValueError):
        forward_batch(params, random_features(cfg, batch=2, steps=4),
                      protocol)  # wrong step count


def test_forward_modality_symmetry():
    # swapping both the modality declarations and the feature arrays
    # (with matching per-branch weights) leaves the output unchanged
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=3, steps=5, seed=4)
    probs = forward_batch(params, feats, protocol)

    swapped_cfg = ModelConfig(modalities=(("flow", 2), ("rgb", 3)),
                              num_classes=3, hidden_size=4)
    swapped = init_params(swapped_cfg)
    H = 4
    swapped.weights[0][...] = params.weights[2]
    swapped.weights[1][...] = params.weights[3]
    swapped.weights[2][...] = params.weights[0]
    swapped.weights[3][...] = params.weights[1]
    fusion = params.fusion_weight
    swapped.weights[4][...] = np.concatenate([fusion[H:], fusion[:H]], axis=0)
    swapped.weights[5][...] = params.fusion_bias
    probs_swapped = forward_batch(swapped, [feats[1], feats[0]], protocol)
    np.testing.assert_allclose(probs_swapped, probs, rtol=0, atol=1e-12)


def test_forward_nonfinite_features_raise():
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=2, steps=5)
    feats[0][0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        forward_batch(params, feats, protocol)


# ------------------------------------------------------------------- loss


def test_loss_uniform_probs_is_log_k():
    cfg = tiny_config(num_classes=4)
    params = init_params(cfg)
    for w in params.weights:
        w[...] = 0.0
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=5, steps=5)
    targets = np.tile(np.eye(4)[0], (5, 1))
    loss, _ = loss_and_gradients_batch(params, feats, targets, protocol)
    assert loss == pytest.approx(np.log(4), abs=1e-12)


def test_loss_zero_gradient_fixed_point():
    # zero weights + uniform targets: probs equal the targets everywhere,
    # so every gradient is exactly zero
    cfg = tiny_config(num_classes=4)
    params = init_params(cfg)
    for w in params.weights:
        w[...] = 0.0
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=3, steps=5)
    targets = np.full((3, 4), 0.25)
    _, grads = loss_and_gradients_batch(params, feats, targets, protocol)
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)


def test_loss_target_shape_error():
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=2, steps=5)
    with pytest.raises(ValueError, match="targets shape"):
        loss_and_gradients_batch(params, feats, np.full((2, 4), 0.25),
                                 protocol)
    # checked before the forward makes any step arrays
    assert params._step_arrays == {}


def numerical_gradients(params, feats, targets, protocol, h=1e-5):
    grads = []
    for w in params.weights:
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp, _ = loss_and_gradients_batch(params, feats, targets, protocol)
            flat[j] = orig - h
            lm, _ = loss_and_gradients_batch(params, feats, targets, protocol)
            flat[j] = orig
            gflat[j] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def test_gradients_match_finite_differences_single():
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    rng = np.random.default_rng(8)
    feats = [rng.normal(size=(1, 5, d)) for d in cfg.feature_dims]
    target = SoftLabel(np.array([0.6, 0.3, 0.1]))
    loss, grads = loss_and_gradients_batch(params, feats,
                                           target.values[None, :], protocol)
    assert np.isfinite(loss)
    numeric = numerical_gradients(params, feats, target.values[None, :],
                                  protocol)
    assert max_rel_error(grads, numeric) <= 1e-4


def test_gradients_match_finite_differences_batch():
    cfg = tiny_config()
    params = init_params(ModelConfig(modalities=cfg.modalities, num_classes=3,
                                     hidden_size=4, seed=3))
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    rng = np.random.default_rng(9)
    feats = [rng.normal(size=(4, 5, d)) for d in cfg.feature_dims]
    targets = np.abs(rng.normal(size=(4, 3)))
    targets /= targets.sum(axis=1, keepdims=True)
    _, grads = loss_and_gradients_batch(params, feats, targets, protocol)
    numeric = numerical_gradients(params, feats, targets, protocol)
    assert max_rel_error(grads, numeric) <= 1e-4


# ----------------------------------------------- step kernel reference


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_loss_and_gradients(params, features, targets, protocol):
    """The per-step LSTM forward and BPTT that the step kernel replaced,
    kept operation for operation, and the output layer as one 2-D GEMM per
    128-sample chunk, forward and back: (probs, loss, grads)."""
    cfg = params.config
    H, M, K = cfg.hidden_size, len(cfg.modalities), cfg.num_classes
    T, S = protocol.total_steps, protocol.decode_steps
    B = features[0].shape[0]
    chunks = [slice(lo, lo + 128) for lo in range(0, B, 128)]

    def chunked_gemm(x, w):  # (B, S, n) @ (n, m) -> (B, S, m)
        return np.concatenate([
            (x[rows].reshape(-1, x.shape[2]) @ w).reshape(-1, S, w.shape[1])
            for rows in chunks])

    hs_all, caches = [], []
    for m in range(M):
        W, b = params.weights[2 * m], params.weights[2 * m + 1]
        x = np.asarray(features[m], dtype=np.float64)
        h, c = np.zeros((B, H)), np.zeros((B, H))
        hs, cache = np.empty((B, T, H)), []
        for t in range(T):
            xh = np.concatenate([x[:, t, :], h], axis=1)
            z = xh @ W + b
            gi, gf = _masked_sigmoid(z[:, :H]), _masked_sigmoid(z[:, H:2 * H])
            gg, go = np.tanh(z[:, 2 * H:3 * H]), _masked_sigmoid(z[:, 3 * H:])
            c_prev = c
            c = gf * c_prev + gi * gg
            tanh_c = np.tanh(c)
            h = go * tanh_c
            hs[:, t, :] = h
            cache.append((xh, gi, gf, gg, go, c_prev, tanh_c))
        hs_all.append(hs)
        caches.append(cache)
    hcat = np.concatenate([hs[:, T - S:, :] for hs in hs_all], axis=2)
    probs = softmax(chunked_gemm(hcat, params.fusion_weight)
                    + params.fusion_bias)
    if targets is None:
        return probs, None, None
    loss = float(-(targets[:, None, :]
                   * np.log(np.maximum(probs, PROB_EPS))).sum() / (B * S))
    dlogits = (probs - targets[:, None, :]) / (B * S)
    grads = [np.zeros_like(w) for w in params.weights]
    grads[2 * M] = hcat.reshape(B * S, M * H).T @ dlogits.reshape(B * S, K)
    grads[2 * M + 1] = dlogits.sum(axis=(0, 1))
    dhcat = chunked_gemm(dlogits, params.fusion_weight.T)
    for m in range(M):
        dim, W = cfg.modalities[m][1], params.weights[2 * m]
        dh_next, dc_next = np.zeros((B, H)), np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            xh, gi, gf, gg, go, c_prev, tanh_c = caches[m][t]
            dh = dh_next
            if t >= T - S:
                dh = dh + dhcat[:, t - (T - S), m * H:(m + 1) * H]
            dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
            dz = np.concatenate([dc * gg * gi * (1.0 - gi),
                                 dc * c_prev * gf * (1.0 - gf),
                                 dc * gi * (1.0 - gg * gg),
                                 dh * tanh_c * go * (1.0 - go)], axis=1)
            grads[2 * m] += xh.T @ dz
            grads[2 * m + 1] += dz.sum(axis=0)
            dh_next = (dz @ W.T)[:, dim:]
            dc_next = dc * gf
    return probs, loss, grads


def test_sigmoid_matches_masked_formula_bitwise():
    x = np.array([-800.0, -1.0, -0.0, 0.0, 1.0, 800.0, np.inf, -np.inf,
                  np.nan])
    np.testing.assert_array_equal(
        _sigmoid(x, None, np.empty_like(x)).view(np.uint64),
        _masked_sigmoid(x).view(np.uint64))
    finite = np.concatenate([x[:6], np.random.default_rng(0).normal(
        scale=20.0, size=(64, 256)).ravel()])
    den = np.empty_like(finite)
    with np.errstate(over="raise"):
        got = _sigmoid(finite, None, den)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  _masked_sigmoid(finite).view(np.uint64))
    inplace = finite.copy()
    assert _sigmoid(inplace, inplace, den) is inplace
    np.testing.assert_array_equal(inplace, got)


SWEEP_K16 = ProtocolConfig(encode_steps=3, decode_steps=4)


@pytest.mark.parametrize(
    "batch,hidden,dims,classes,weight_scale,dtype,protocol", [
        # a (B, H) block is 128 KiB
        pytest.param(256, 64, (16, 16), 60, 1.0, np.float32, ProtocolConfig(),
                     id="256-64-dims0-60-1.0-float32"),
        # saturated gates
        pytest.param(256, 64, (16, 16), 60, 4.0, np.float64, ProtocolConfig(),
                     id="256-64-dims1-60-4.0-float64"),
        pytest.param(3, 4, (3, 2), 3, 1.0, np.float64, ProtocolConfig(),
                     id="3-4-dims2-3-1.0-float64"),
        pytest.param(64, 16, (8, 8), 16, 1.0, np.float32, SWEEP_K16,
                     id="sweep-k16"),
        # a stack of three, and two stacks of one split by a narrower middle
        pytest.param(64, 16, (8, 8, 8), 16, 1.0, np.float32, SWEEP_K16,
                     id="sweep-k16-one-stack-of-three"),
        pytest.param(64, 16, (8, 5, 8), 16, 1.0, np.float32, SWEEP_K16,
                     id="sweep-k16-equal-widths-apart"),
        # a stack of one, as every forward-only pass runs
        pytest.param(40, 8, (6,), 5, 1.0, np.float64, SWEEP_K16,
                     id="one-modality"),
        pytest.param(33, 8, (5, 16, 3), 7, 2.0, np.float32, ProtocolConfig(),
                     id="three-unequal-modalities"),
        # MIXED_WIDTHS' stack of two, then a wider modality
        pytest.param(32, 4, (3, 3, 5), 7, 1.0, np.float64, SWEEP_K16,
                     id="a-stack-of-two-then-a-wider-one"),
    ])
def test_step_kernel_is_bit_identical_to_reference(batch, hidden, dims,
                                                    classes, weight_scale,
                                                    dtype, protocol):
    modalities = tuple((f"m{i}", d) for i, d in enumerate(dims))
    cfg = ModelConfig(modalities=modalities, num_classes=classes,
                      hidden_size=hidden, seed=4)
    params = init_params(cfg)
    for m in range(len(dims)):
        params.weights[2 * m][...] *= weight_scale
    rng = np.random.default_rng(11)
    feats = [rng.normal(size=(batch, protocol.total_steps, d)).astype(dtype)
             for d in dims]
    targets = rng.random((batch, classes))
    targets /= targets.sum(axis=1, keepdims=True)
    # the second, smaller batch reuses the first one's held arrays
    for n in (batch, batch // 2 + 1):
        x, y = [f[:n] for f in feats], targets[:n]
        ref_probs, ref_loss, ref_grads = reference_loss_and_gradients(
            params, x, y, protocol)
        probs = forward_batch(params, x, protocol)
        loss, grads = loss_and_gradients_batch(params, x, y, protocol)
        assert np.array_equal(probs, ref_probs)
        assert loss == ref_loss
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.tobytes() == ref.tobytes()


def test_gradients_are_fresh_arrays():
    # the step arrays are reused from batch to batch; the returned
    # gradients are not, so a caller may hold them across calls
    cfg = tiny_config()
    params = init_params(cfg)
    protocol = ProtocolConfig()
    rng = np.random.default_rng(3)
    targets = rng.random((5, cfg.num_classes))
    targets /= targets.sum(axis=1, keepdims=True)
    first = loss_and_gradients_batch(
        params, random_features(cfg, 5, protocol.total_steps, seed=1),
        targets, protocol)[1]
    held = [g.copy() for g in first]
    loss_and_gradients_batch(
        params, random_features(cfg, 5, protocol.total_steps, seed=2),
        targets, protocol)
    for g, copy in zip(first, held):
        assert np.array_equal(g, copy)


def test_forward_allocates_its_step_arrays_per_call():
    # cli-k1200's eval shape: a forward-only pass holds no step arrays
    # between calls, and its peak is the output layer's, 48.43 MB, as it
    # was with one step loop per modality
    cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)),
                      num_classes=1200, hidden_size=64)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    feats = random_features(cfg, batch=512, steps=protocol.total_steps)
    tracemalloc.start()
    try:
        forward_batch(params, feats, protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params._step_arrays == {}
    assert peak <= 48.5e6


def test_training_holds_its_step_arrays_at_the_per_modality_size():
    # train-k60's shape. The per-modality kernels this replaced held
    # 30.2 MB between batches and peaked at 36.0 MB in the first batch.
    check_training_memory()


def test_split_training_holds_its_step_arrays_at_the_same_size(
        split_threads):
    # the same bounds with each modality's LSTM and BPTT on its own thread:
    # the workers allocate nothing large
    split_threads(2)
    check_training_memory()


def test_stacked_training_carves_its_step_arrays_from_one_buffer():
    # sweep-k16's shape, where both modalities run as one stack: the first
    # batch's step arrays take 1.11 MB, and the 14-row last batch's would
    # take 0.26 MB of their own; carved from the same buffer, they add only
    # their array objects, about 2 KB
    held, _, held_after_small = training_memory(
        hidden=16, width=8, classes=16, batch=64, last_batch=14,
        protocol=SWEEP_K16)
    assert abs(held_after_small - held) < 4096


def check_training_memory():
    held, peak, held_after_small = training_memory()
    assert peak <= 38.0e6
    assert held <= 31.0e6
    assert abs(held_after_small - held) < 0.1e6


def training_memory(hidden=64, width=16, classes=60, batch=256,
                    last_batch=100, protocol=ProtocolConfig()):
    """Train on a batch of two modalities, then on a smaller one: the bytes
    held after the first, its peak, and the bytes held after the second."""
    cfg = ModelConfig(modalities=(("rgb", width), ("flow", width)),
                      num_classes=classes, hidden_size=hidden)
    params = init_params(cfg)
    feats = random_features(cfg, batch=batch, steps=protocol.total_steps)
    targets = np.full((batch, classes), 1 / classes)
    tracemalloc.start()
    try:
        loss_and_gradients_batch(params, feats, targets, protocol)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # a smaller batch carves its arrays from the same buffer
        loss_and_gradients_batch(params, [x[:last_batch] for x in feats],
                                 targets[:last_batch], protocol)
        held_after_small, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, held_after_small


def test_forward_kernel_is_bit_identical_to_reference_at_k1200():
    cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)),
                      num_classes=1200, hidden_size=64, seed=2)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    rng = np.random.default_rng(12)
    shape = (512, protocol.total_steps, 16)
    feats = [rng.normal(size=shape).astype(np.float32) for _ in range(2)]
    ref_probs, _, _ = reference_loss_and_gradients(params, feats, None,
                                                   protocol)
    probs = forward_batch(params, feats, protocol)
    assert probs.tobytes() == ref_probs.tobytes()


# ------------------------------------------------------ threaded forward


@pytest.fixture
def split_threads(monkeypatch):
    """Force every forward and training batch onto the split path with
    ``n`` threads."""
    def force(n):
        monkeypatch.setattr(seqmodel, "_SPLIT_MIN_WORK", 0)
        monkeypatch.setattr(seqmodel, "_scoring_threads", lambda: n)
    return force


def test_forward_peak_has_no_k_wide_mask(split_threads):
    # cli-k1200's eval shape, split as on two CPUs: the peak is hcat and
    # the (B, S, K) probabilities, 43.7 MB, because softmax checks
    # finiteness on the row max and min, not with a (B, S, K) bool mask
    # (4.9 MB more)
    split_threads(2)
    cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)),
                      num_classes=1200, hidden_size=64)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    feats = random_features(cfg, batch=512, steps=protocol.total_steps)
    tracemalloc.start()
    try:
        forward_batch(params, feats, protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 44.0e6


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 296, 429, 512])
def test_split_forward_is_bit_identical_to_reference(split_threads, threads,
                                                     batch):
    split_threads(threads)
    cfg = ModelConfig(modalities=(("a", 5), ("b", 16), ("c", 3)),
                      num_classes=97, hidden_size=32, seed=5)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    feats = random_features(cfg, batch, protocol.total_steps, seed=batch)
    ref_probs, _, _ = reference_loss_and_gradients(params, feats, None,
                                                   protocol)
    before = threading.active_count()
    probs = forward_batch(params, feats, protocol)
    assert threading.active_count() == before
    assert probs.tobytes() == ref_probs.tobytes()


@pytest.mark.parametrize("row", [0, -1])
def test_split_forward_raises_for_one_bad_row(split_threads, row):
    # a NaN input makes only its own row's logits NaN, so with row=-1 only
    # the last row block, on a worker thread, sees one
    split_threads(3)
    cfg = ModelConfig(modalities=(("a", 4), ("b", 6)), num_classes=11,
                      hidden_size=8)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    feats = random_features(cfg, 30, protocol.total_steps)
    feats[1][row, 3, 2] = np.nan
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        forward_batch(params, feats, protocol)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_split_training_is_bit_identical_to_reference(split_threads,
                                                      threads):
    split_threads(threads)
    cfg = ModelConfig(modalities=(("a", 5), ("b", 16), ("c", 3)),
                      num_classes=13, hidden_size=16, seed=6)
    params = init_params(cfg)
    protocol = ProtocolConfig()
    rng = np.random.default_rng(threads)
    before = threading.active_count()
    # 100 rows after 256 reuse the held buffer
    for batch in (1, 33, 256, 100):
        feats = random_features(cfg, batch, protocol.total_steps, seed=batch)
        targets = rng.random((batch, cfg.num_classes))
        targets /= targets.sum(axis=1, keepdims=True)
        _, ref_loss, ref_grads = reference_loss_and_gradients(
            params, feats, targets, protocol)
        loss, grads = loss_and_gradients_batch(params, feats, targets,
                                               protocol)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == \
            [ref.tobytes() for ref in ref_grads]
    assert threading.active_count() == before


@pytest.mark.parametrize("protocol", [
    pytest.param(ProtocolConfig(), id="8-steps"),
    # validation's one step at 1 s: a chunk is as many GEMM rows as samples
    pytest.param(ProtocolConfig(encode_steps=10, decode_steps=1),
                 id="1-step"),
])
@pytest.mark.parametrize("classes,batch", [
    (60, 429),  # train-k60's validation split
    (60, 210),  # train-k60's last training batch
    (97, 300),
    (2513, 40),  # the paper's EPIC-Kitchens K
])
def test_thread_count_never_changes_a_result(split_threads, classes, batch,
                                             protocol):
    # K leaves a column tail at these shapes, where OpenBLAS can give a row
    # other bits in a GEMM of another row count (at K=60, in GEMMs of up to
    # about 130 rows), so output chunks that followed the thread count
    # would change the bytes
    cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)),
                      num_classes=classes, hidden_size=64, seed=8)
    params = init_params(cfg)
    feats = random_features(cfg, batch, protocol.total_steps, seed=batch)
    targets = np.random.default_rng(classes).random((batch, classes))
    targets /= targets.sum(axis=1, keepdims=True)
    results = []
    for threads in (1, 2, 3):
        split_threads(threads)
        probs = forward_batch(params, feats, protocol)
        loss, grads = loss_and_gradients_batch(params, feats, targets,
                                               protocol)
        results.append((probs.tobytes(), loss, [g.tobytes() for g in grads]))
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_split_training_raises_for_a_bad_last_modality(split_threads):
    # the last modality's LSTM runs on a worker thread; its NaN reaches the
    # logits, which the caller's thread checks
    split_threads(2)
    cfg = ModelConfig(modalities=(("a", 4), ("b", 6)), num_classes=5,
                      hidden_size=8)
    protocol = ProtocolConfig()
    feats = random_features(cfg, 30, protocol.total_steps)
    feats[-1][7, 2, 1] = np.nan
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        loss_and_gradients_batch(init_params(cfg), feats,
                                 np.full((30, 5), 0.2), protocol)
    assert threading.active_count() == before
    train = FeatureSet(dims=cfg.feature_dims, features=tuple(feats),
                       targets=np.arange(30) % 5)
    with pytest.raises(TrainingDiverged, match="epoch 1, batch 0"):
        train_model(cfg, protocol, train, None, train,
                    ExperimentConfig(epochs=1, batch_size=30,
                                     hidden_size=8), alpha=0.0)
    assert threading.active_count() == before


def test_scoring_threads_divide_usable_cpus_by_blas_threads(monkeypatch):
    monkeypatch.setattr(seqmodel.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    assert seqmodel._scoring_threads() == 1  # BLAS takes every CPU
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert seqmodel._scoring_threads() == 4
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert seqmodel._scoring_threads() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert seqmodel._scoring_threads() == 8
    for value in ("16", "0", "4,2", "x"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert seqmodel._scoring_threads() == 1


# ------------------------------------------------------------------- adam


def test_adam_first_step_is_signed_learning_rate():
    cfg = tiny_config(learning_rate=0.01)
    params = init_params(cfg)
    before = [w.copy() for w in params.weights]
    rng = np.random.default_rng(1)
    grads = [rng.normal(size=w.shape) for w in params.weights]
    adam_step(params, grads)
    for w, w0, g in zip(params.weights, before, grads):
        # first bias-corrected step is -lr * g / (|g| + eps) ~= -lr * sign(g)
        np.testing.assert_allclose(w - w0, -0.01 * np.sign(g), rtol=1e-5,
                                   atol=1e-9)


def test_copy_and_checkpoint_start_adam_afresh(tmp_path):
    # neither carries Adam's state, so their next step is a first step
    params = init_params(tiny_config(learning_rate=0.01))
    rng = np.random.default_rng(2)
    for _ in range(3):
        adam_step(params, [rng.normal(size=w.shape) for w in params.weights])
    save_checkpoint(params, tmp_path / "model.bin")
    for fresh in (params.copy(), load_checkpoint(tmp_path / "model.bin")):
        before = [w.copy() for w in fresh.weights]
        grads = [rng.normal(size=w.shape) for w in fresh.weights]
        adam_step(fresh, grads)
        for w, w0, g in zip(fresh.weights, before, grads):
            # -lr * sign(g), up to Adam's epsilon
            np.testing.assert_allclose(w - w0, -0.01 * g / (np.abs(g) + 1e-8),
                                       rtol=1e-9)


def test_adam_zero_gradient_keeps_weights():
    params = init_params(tiny_config())
    before = [w.copy() for w in params.weights]
    adam_step(params, [np.zeros_like(w) for w in params.weights])
    for w, w0 in zip(params.weights, before):
        np.testing.assert_array_equal(w, w0)


def test_adam_two_steps_match_reference():
    # independent replay of the update rule on a 1-element parameter
    cfg = ModelConfig(modalities=(("x", 1),), num_classes=1, hidden_size=1,
                      learning_rate=0.1)
    params = init_params(cfg)
    w_index = 3  # fusion bias: starts at exactly 0
    g1 = np.array([0.3])
    g2 = np.array([-0.2])
    adam_step(params, [np.zeros_like(w) if i != w_index else g1
                       for i, w in enumerate(params.weights)])
    adam_step(params, [np.zeros_like(w) if i != w_index else g2
                       for i, w in enumerate(params.weights)])

    w = 0.0
    m = v = 0.0
    for t, g in ((1, 0.3), (2, -0.2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        w -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert params.weights[w_index][0] == pytest.approx(w, rel=1e-12)


def reference_adam_step(weights, grads, state, lr):
    """The per-array Adam update that the flat one replaced, kept operation
    for operation; ``state`` is [step count, first moments, second
    moments], the moments made by the caller."""
    state[0] += 1
    t, moments1, moments2 = state
    for w, g, m, v in zip(weights, grads, moments1, moments2):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        w -= lr * (m / (1.0 - 0.9 ** t)) \
            / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)


def test_adam_steps_are_bit_identical_to_per_array_formula():
    # sweep-k16's shape and learning rate; each step's LSTM gradients are
    # views of one stacked (M, D+H, 4H) block
    cfg = ModelConfig(modalities=(("rgb", 8), ("flow", 8)), num_classes=16,
                      hidden_size=16, learning_rate=3e-3)
    params = init_params(cfg)
    weights = [w.copy() for w in params.weights]
    state = [0, [np.zeros_like(w) for w in weights],
             [np.zeros_like(w) for w in weights]]
    rng = np.random.default_rng(5)
    for _ in range(5):
        dW = rng.normal(size=(2, 24, 64))
        db = rng.normal(size=(2, 64))
        grads = [dW[0], db[0], dW[1], db[1],
                 rng.normal(size=(32, 16)), rng.normal(size=16)]
        adam_step(params, grads)
        reference_adam_step(weights, grads, state, cfg.learning_rate)
        assert [w.tobytes() for w in params.weights] == \
            [w.tobytes() for w in weights]


@pytest.mark.parametrize("index, shape", [
    (0, (1, 16)),   # would broadcast over a (7, 16) gate matrix
    (1, ()),        # a 0-d gradient for a bias
    (4, (3, 8)),    # the fusion matrix's shape, transposed
])
def test_adam_refuses_a_gradient_of_the_wrong_shape(index, shape):
    # the refused call changes nothing: not the weights, not Adam's state,
    # so the next step matches a twin's that never saw it
    params, twin = init_params(tiny_config()), init_params(tiny_config())
    rng = np.random.default_rng(4)
    steps = [[rng.normal(size=w.shape) for w in params.weights]
             for _ in range(2)]
    adam_step(params, steps[0])
    adam_step(twin, steps[0])
    bad = list(steps[1])
    bad[index] = np.ones(shape)
    with pytest.raises(ValueError, match=f"gradient {index} has shape"):
        adam_step(params, bad)
    assert [w.tobytes() for w in params.weights] == \
        [w.tobytes() for w in twin.weights]
    adam_step(params, steps[1])
    adam_step(twin, steps[1])
    assert [w.tobytes() for w in params.weights] == \
        [w.tobytes() for w in twin.weights]


def test_adam_gradient_list_length_error():
    params = init_params(tiny_config())
    with pytest.raises(ValueError):
        adam_step(params, [np.zeros_like(params.weights[0])])


# ------------------------------------------------------------------ top-k


def test_topk_ids():
    def topk_ids(probs, k):
        """Ids whose label topk_accuracy counts as a top-k hit."""
        probs = np.array([probs])
        return [i for i in range(probs.shape[1])
                if topk_accuracy(probs, [i], k) == 100.0]

    assert topk_ids([0.1, 0.5, 0.2, 0.2], 2) == [1, 2]
    assert topk_ids([0.25, 0.25, 0.25, 0.25], 3) == [0, 1, 2]
    assert topk_ids([0.2, 0.8], 1) == [1]
    with pytest.raises(ValueError):
        topk_ids([0.5, 0.5], 3)


# ------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(seed=11)
    params = init_params(cfg)
    protocol = ProtocolConfig(encode_steps=2, decode_steps=3)
    feats = random_features(cfg, batch=2, steps=5)
    targets = np.full((2, 3), 1 / 3)
    _, grads = loss_and_gradients_batch(params, feats, targets, protocol)
    adam_step(params, [g + 0.01 for g in grads])

    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert len(loaded.weights) == len(params.weights)
    for a, b in zip(loaded.weights, params.weights):
        np.testing.assert_array_equal(a, b)
    # byte-identical re-serialization
    save_checkpoint(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_checkpoint_is_the_header_and_the_weights(tmp_path):
    # H=64 with two 16-d modalities; Adam's state is not saved
    for K, size in ((60, 393_824), (1200, 1_570_306)):
        cfg = ModelConfig(modalities=(("rgb", 16), ("flow", 16)),
                          num_classes=K, hidden_size=64)
        params = init_params(cfg)
        adam_step(params, [np.ones_like(w) for w in params.weights])
        save_checkpoint(params, tmp_path / "model.bin")
        data = (tmp_path / "model.bin").read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 8)
        weights = sum(math.prod(shape) for shape in weight_shapes(cfg))
        assert len(data) == 12 + blob_len + 8 * weights == size


def test_checkpoint_payload_is_the_flat_vector(tmp_path):
    # Checkpoint version 2's bytes, pinned. init_params draws from numpy's
    # seeded generator and calls no BLAS, so the hash is the same on any
    # machine; a change of the weights' layout must bump CHECKPOINT_VERSION.
    params = init_params(MIXED_WIDTHS)
    save_checkpoint(params, tmp_path / "model.bin")
    data = (tmp_path / "model.bin").read_bytes()
    assert struct.unpack_from("<I", data, 4) == (seqmodel.CHECKPOINT_VERSION,)
    assert data.endswith(params.flat.astype("<f8").tobytes())
    assert hashlib.sha256(data).hexdigest() == (
        "8c07ee20ad0a4d0520ba227ad512e47b5b8b6ccb64da33dc6b4cb5d7ebc89aca")


def test_checkpoint_format_errors(tmp_path):
    params = init_params(tiny_config())
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    data = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)
    bad.write_bytes(data[:4] + b"\x01\x00\x00\x00" + data[8:])
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(bad)
    bad.write_bytes(data[:len(data) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(bad)
    bad.write_bytes(data + b"\x00" * 8)
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(bad)
    # config values of the wrong type; they used to load and fail in use
    (blob_len,) = struct.unpack_from("<I", data, 8)
    doc = json.loads(data[12:12 + blob_len])
    for key, value in (("learning_rate", "x"), ("hidden_size", 2.5)):
        blob = json.dumps({**doc, key: value}).encode()
        bad.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                        + data[12 + blob_len:])
        with pytest.raises(FormatError, match="must be"):
            load_checkpoint(bad)



def test_checkpoint_errors_name_the_file(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(init_params(tiny_config()), path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 8)
    bad = tmp_path / "bad.bin"
    for corrupt in (b"XXXX" + data[4:],                        # magic
                    data[:8],                                  # header
                    data[:4] + b"\x01\x00\x00\x00" + data[8:],  # version
                    data[:12 + blob_len - 1],                  # config
                    data[:-8],                                 # payload
                    data + b"\x00" * 8):                       # trailing
        bad.write_bytes(corrupt)
        with pytest.raises(FormatError) as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")


def test_params_compare_by_identity():
    params = init_params(tiny_config())
    assert params == params
    assert (params == params.copy()) is False


def test_params_copy_is_deep():
    params = init_params(tiny_config())
    clone = params.copy()
    clone.weights[0][0, 0] += 1.0
    assert params.weights[0][0, 0] != clone.weights[0][0, 0]
    for w in params.weights:
        assert not any(np.shares_memory(w, c) for c in clone.weights)
