"""Multi-branch LSTM encoder-decoder with analytic gradients.

One single-layer LSTM per input modality consumes the full snippet
sequence; over the final ``decode_steps`` timesteps the per-modality
hidden states are concatenated (late fusion) and passed through a dense
layer + softmax, giving one class distribution per decode step. The
anticipation time of decode step s counts down as the step approaches the
action: ``(decode_steps - s) * snippet_stride`` seconds.

Everything is float64 numpy. Gradients are exact backpropagation through
time with the fused softmax cross-entropy output gradient ``p - y_soft``;
they are verified against central finite differences in the test suite.

The LSTM step kernel is bit-identical by contract to the plain per-step
formulation (concatenate ``[x_t | h]``, one GEMM, a two-branch sigmoid on
each gate slice, then BPTT with freshly built ``dz``): every floating-point
operation and GEMM is the same, in the same order, so a seeded run gives
the same bytes. Only where results are stored changed: one preallocated
step-input buffer, whole-block gate activations and ``out=`` ufuncs. The
K-wide output layer keeps the plain order too (logits plus bias, softmax,
loss terms, ``dlogits``), computed in place: the forward holds one
(B, S, K) array, and training adds a second for the loss terms.
Training results, checkpoints and the benchmark's recorded reference scores
depend on those bits, and ``tests/test_seqmodel.py`` keeps the plain
formulation to check them. A faster but different formulation (hoisting
the input projection, one stacked ``dW`` GEMM, a ``tanh``-based sigmoid,
float32) is a change of results and must come with new reference scores.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .jsonconfig import config_from_json, config_to_json, json_value
from .smoothing import PROB_EPS, softmax

CHECKPOINT_MAGIC = b"LSAM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing of the encode/decode anticipation protocol."""

    snippet_stride: float = 0.25
    encode_steps: int = 6
    decode_steps: int = 8
    snippet_len: int = 5

    def __post_init__(self):
        if self.encode_steps < 1 or self.decode_steps < 1:
            raise ValueError("encode_steps and decode_steps must be >= 1")
        if self.snippet_stride <= 0:
            raise ValueError("snippet_stride must be positive")
        if self.snippet_len < 1:
            raise ValueError("snippet_len must be >= 1")

    @property
    def total_steps(self) -> int:
        return self.encode_steps + self.decode_steps

    def anticipation_times(self) -> tuple[float, ...]:
        """Seconds before the action start, per decode step (0-based)."""
        return tuple((self.decode_steps - s) * self.snippet_stride
                     for s in range(self.decode_steps))

    def step_for_time(self, tau: float) -> int:
        """Decode step whose anticipation time is closest to ``tau`` seconds."""
        times = self.anticipation_times()
        return min(range(len(times)), key=lambda s: (abs(times[s] - tau), s))


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and optimizer settings for the anticipation model."""

    modalities: tuple[tuple[str, int], ...]
    num_classes: int
    hidden_size: int = 64
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "modalities",
                           tuple((str(n), int(d)) for n, d in self.modalities))
        if not self.modalities:
            raise ValueError("need at least one modality")
        if any(d < 1 for _, d in self.modalities):
            raise ValueError("feature dims must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def feature_dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.modalities)


@dataclass
class ModelParams:
    """All trainable arrays plus Adam state.

    ``weights`` is the declaration-order list: per modality the LSTM gate
    matrix (D+H, 4H) and bias (4H,), then the fusion matrix (M*H, K) and
    bias (K,). Gate columns are packed [input | forget | cell | output].
    """

    config: ModelConfig
    weights: list[np.ndarray]
    adam_m: list[np.ndarray] = field(default_factory=list)
    adam_v: list[np.ndarray] = field(default_factory=list)
    adam_step: int = 0
    # Scratch, never saved or copied: the training forward's backward-cache
    # arrays per modality, reused from batch to batch (see _cache_arrays).
    _step_arrays: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if not self.adam_m:
            self.adam_m = [np.zeros_like(w) for w in self.weights]
        if not self.adam_v:
            self.adam_v = [np.zeros_like(w) for w in self.weights]

    def lstm_weight(self, m: int) -> np.ndarray:
        return self.weights[2 * m]

    def lstm_bias(self, m: int) -> np.ndarray:
        return self.weights[2 * m + 1]

    @property
    def fusion_weight(self) -> np.ndarray:
        return self.weights[2 * len(self.config.modalities)]

    @property
    def fusion_bias(self) -> np.ndarray:
        return self.weights[2 * len(self.config.modalities) + 1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            adam_m=[m.copy() for m in self.adam_m],
            adam_v=[v.copy() for v in self.adam_v],
            adam_step=self.adam_step,
        )


def weight_shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    """Array shapes in declaration order."""
    H = config.hidden_size
    shapes: list[tuple[int, ...]] = []
    for _, dim in config.modalities:
        shapes.append((dim + H, 4 * H))
        shapes.append((4 * H,))
    shapes.append((len(config.modalities) * H, config.num_classes))
    shapes.append((config.num_classes,))
    return shapes


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Biases start at zero except the forget gates, which start at 1.
    """
    rng = np.random.default_rng(config.seed)
    H = config.hidden_size
    weights: list[np.ndarray] = []
    for _, dim in config.modalities:
        bound = 1.0 / np.sqrt(dim + H)
        weights.append(rng.uniform(-bound, bound, size=(dim + H, 4 * H)))
        bias = np.zeros(4 * H)
        bias[H:2 * H] = 1.0
        weights.append(bias)
    fan_in = len(config.modalities) * H
    bound = 1.0 / np.sqrt(fan_in)
    weights.append(rng.uniform(-bound, bound, size=(fan_in, config.num_classes)))
    weights.append(np.zeros(config.num_classes))
    return ModelParams(config=config, weights=weights)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, branch-free and overflow-free.

    ``exp(min(x, 0)) / (1 + exp(-|x|))`` is ``1 / (1 + exp(-x))`` for
    x >= 0 (the numerator is exactly ``exp(0) = 1``) and
    ``exp(x) / (1 + exp(x))`` for x < 0 (``-|x|`` is exactly ``x``), so it
    gives the bits of the two-branch formula without a data-dependent mask.
    ``out`` may be ``x``.
    """
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.exp(np.minimum(x, 0.0, out=out), out=out)
    out /= den
    return out


def _check_features(params: ModelParams, features) -> int:
    cfg = params.config
    if len(features) != len(cfg.modalities):
        raise ValueError(
            f"expected {len(cfg.modalities)} modalities, got {len(features)}"
        )
    batch = features[0].shape[0]
    steps = features[0].shape[1]
    for (name, dim), x in zip(cfg.modalities, features):
        if x.ndim != 3 or x.shape[0] != batch or x.shape[1] != steps \
                or x.shape[2] != dim:
            raise ValueError(
                f"modality {name!r}: expected shape ({batch}, {steps}, {dim}), "
                f"got {x.shape}"
            )
    return batch


def _cache_arrays(params: ModelParams, m: int, B: int, T: int):
    """Modality m's backward-cache arrays for a (B, T) batch:
    ``(xh, gates, cs, tanh_cs)`` as :func:`_run_lstm` fills them.

    At B=256, H=64 they take about 13 MB per modality. Arrays that size
    come back from the allocator as fresh pages on every call, because it
    hands freed memory of that size back to the system, and faulting them
    in again cost about 15 ms of a 100 ms training batch. So ``params``
    keeps the arrays of the largest batch seen, and a smaller batch uses
    their leading rows (each step's (B, .) block stays C-contiguous).
    """
    D = params.config.modalities[m][1]
    H = params.config.hidden_size
    held = params._step_arrays.get(m)
    if held is None or held[0].shape[1] < B or held[1].shape[0] != T:
        held = tuple(np.empty((n, B, w)) for n, w in
                     ((T + 1, D + H), (T, 4 * H), (T + 1, H), (T, H)))
        params._step_arrays[m] = held
    return tuple(a[:, :B] for a in held)


def _run_lstm(W: np.ndarray, b: np.ndarray, x: np.ndarray,
              h_out: np.ndarray, cache=None) -> None:
    """Run one LSTM over (B, T, D) input from zero state and write the
    hidden states of the last S steps into ``h_out``, (B, S, H).

    ``cache`` (from :func:`_cache_arrays`) is filled for the backward pass:
    ``xh`` (T+1, B, D+H) with ``[x_t | h_{t-1}]`` in row t, the (T, B, 4H)
    gate activations packed [i | f | g | o], the (T+1, B, H) cell states
    from the zero start and the (T, B, H) ``tanh(c_t)``. Without it the
    same arrays have two rows (or one), which every step reuses, so a
    forward-only pass holds nothing that grows with T.
    """
    B, T, D = x.shape
    H = b.shape[0] // 4
    S = h_out.shape[1]
    if cache is None:
        cache = (np.empty((2, B, D + H)), np.empty((1, B, 4 * H)),
                 np.empty((2, B, H)), np.empty((1, B, H)))
    xh, gates, cs, tanh_cs = cache
    n_rows, n_steps = xh.shape[0], gates.shape[0]
    xh[0, :, D:] = 0.0
    cs[0] = 0.0
    gg = np.empty((B, H))
    gi_gg = np.empty((B, H))
    for t in range(T):
        row = xh[t % n_rows]
        row[:, :D] = x[:, t, :]
        z = gates[t % n_steps]
        np.matmul(row, W, out=z)
        z += b
        np.tanh(z[:, 2 * H:3 * H], out=gg)
        _sigmoid(z, out=z)
        z[:, 2 * H:3 * H] = gg
        c_prev = cs[t % n_rows]
        c = cs[(t + 1) % n_rows]
        tanh_c = tanh_cs[t % n_steps]
        np.multiply(z[:, H:2 * H], c_prev, out=c)
        np.multiply(z[:, :H], gg, out=gi_gg)
        c += gi_gg
        np.tanh(c, out=tanh_c)
        h = xh[(t + 1) % n_rows, :, D:]
        np.multiply(z[:, 3 * H:], tanh_c, out=h)
        if t >= T - S:
            h_out[:, t - (T - S)] = h


def _forward_full(params: ModelParams, features, protocol: ProtocolConfig,
                  keep_cache: bool):
    """The probabilities, hcat and the LSTM caches (None without
    ``keep_cache``) of a batch. The forward holds one K-wide array: the
    softmax overwrites the logits, which nothing reads afterwards."""
    B = _check_features(params, features)
    cfg = params.config
    T = features[0].shape[1]
    if T != protocol.total_steps:
        raise ValueError(
            f"expected {protocol.total_steps} timesteps "
            f"({protocol.encode_steps}+{protocol.decode_steps}), got {T}"
        )
    S = protocol.decode_steps
    H = cfg.hidden_size
    hcat = np.empty((B, S, len(cfg.modalities) * H))
    caches = []
    for m in range(len(cfg.modalities)):
        cache = _cache_arrays(params, m, B, T) if keep_cache else None
        _run_lstm(params.lstm_weight(m), params.lstm_bias(m), features[m],
                  hcat[:, :, m * H:(m + 1) * H], cache)
        caches.append(cache)
    # A 2-D (B*S, M*H) GEMM would be faster, but it is not bit-identical to
    # this batched one (checked at K=60), and the recorded references
    # depend on these bits.
    logits = np.matmul(hcat, params.fusion_weight)
    logits += params.fusion_bias
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    return softmax(logits, out=logits), hcat, caches


def forward_batch(params: ModelParams, features,
                  protocol: ProtocolConfig = ProtocolConfig()) -> np.ndarray:
    """Forward a batch; features is a per-modality list of (B, T, D) arrays.

    Returns the (B, decode_steps, K) class probabilities.
    """
    return _forward_full(params, features, protocol, keep_cache=False)[0]


def loss_and_gradients_batch(params: ModelParams, features,
                             targets: np.ndarray,
                             protocol: ProtocolConfig = ProtocolConfig()):
    """Mean soft cross-entropy over decode steps and batch, with exact
    BPTT gradients in declaration order.

    ``targets`` is (B, K); the same soft target applies at every decode
    step of a sample.
    """
    probs, hcat, caches = _forward_full(params, features, protocol,
                                        keep_cache=True)
    cfg = params.config
    B, S, K = probs.shape
    T = features[0].shape[1]
    H = cfg.hidden_size
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (B, K):
        raise ValueError(f"targets shape {targets.shape}, expected {(B, K)}")

    # One (B, S, K) buffer holds the loss terms; the logit gradient then
    # overwrites the probabilities, which nothing reads after it.
    terms = np.maximum(probs, PROB_EPS)
    np.log(terms, out=terms)
    terms *= targets[:, None, :]
    loss = float(-terms.sum() / (B * S))
    del terms
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    # Fused softmax + cross-entropy gradient, averaged over steps and batch.
    dlogits = probs
    dlogits -= targets[:, None, :]
    dlogits /= B * S

    grads = [np.zeros_like(w) for w in params.weights]
    M = len(cfg.modalities)
    grads[2 * M] = hcat.reshape(B * S, M * H).T @ dlogits.reshape(B * S, K)
    grads[2 * M + 1] = dlogits.sum(axis=(0, 1))

    dhcat = dlogits @ params.fusion_weight.T  # (B, S, M*H)
    dz = np.empty((B, 4 * H))
    dz_i, dz_f = dz[:, :H], dz[:, H:2 * H]
    dz_g, dz_o = dz[:, 2 * H:3 * H], dz[:, 3 * H:]
    dh_sum = np.empty((B, H))
    dc = np.empty((B, H))
    tmp = np.empty((B, H))
    for m in range(M):
        dim = cfg.modalities[m][1]
        W = params.lstm_weight(m)
        dW = grads[2 * m]
        db = grads[2 * m + 1]
        dW_t = np.empty_like(W)
        dxh = np.empty((B, dim + H))
        dh_out = dhcat[:, :, m * H:(m + 1) * H]
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        xh, gates, cs, tanh_cs = caches[m]
        for t in range(T - 1, -1, -1):
            z = gates[t]
            gi, gf = z[:, :H], z[:, H:2 * H]
            gg, go = z[:, 2 * H:3 * H], z[:, 3 * H:]
            c_prev, tanh_c = cs[t], tanh_cs[t]
            dh = dh_next
            if t >= T - S:
                dh = np.add(dh_next, dh_out[:, t - (T - S), :], out=dh_sum)
            # dc = dc_next + dh * go * (1 - tanh_c**2)
            np.multiply(dh, go, out=dc)
            np.multiply(tanh_c, tanh_c, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dc *= tmp
            dc += dc_next
            # input gate: dc * gg * gi * (1 - gi)
            np.multiply(dc, gg, out=dz_i)
            dz_i *= gi
            np.subtract(1.0, gi, out=tmp)
            dz_i *= tmp
            # forget gate: dc * c_prev * gf * (1 - gf)
            np.multiply(dc, c_prev, out=dz_f)
            dz_f *= gf
            np.subtract(1.0, gf, out=tmp)
            dz_f *= tmp
            # cell candidate: dc * gi * (1 - gg**2)
            np.multiply(dc, gi, out=dz_g)
            np.multiply(gg, gg, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dz_g *= tmp
            # output gate: dh * tanh_c * go * (1 - go)
            np.multiply(dh, tanh_c, out=dz_o)
            dz_o *= go
            np.subtract(1.0, go, out=tmp)
            dz_o *= tmp
            np.matmul(xh[t].T, dz, out=dW_t)
            dW += dW_t
            db += dz.sum(axis=0)
            if t:  # step 0 has no earlier step to pass gradients to
                np.matmul(dz, W.T, out=dxh)
                dh_next = dxh[:, dim:]
                np.multiply(dc, gf, out=dc_next)
    return loss, grads


def adam_step(params: ModelParams, grads: list[np.ndarray]) -> ModelParams:
    """One in-place Adam update with bias correction."""
    cfg = params.config
    if len(grads) != len(params.weights):
        raise ValueError("gradient list does not match parameter list")
    params.adam_step += 1
    t = params.adam_step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for w, g, m, v in zip(params.weights, grads, params.adam_m, params.adam_v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        w -= cfg.learning_rate * (m / correction1) \
            / (np.sqrt(v / correction2) + cfg.adam_eps)
    return params


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Binary checkpoint: magic, version, config JSON (the model config's
    fields, then ``adam_step``), arrays as f64 LE."""
    doc = {**config_to_json(params.config), "adam_step": params.adam_step}
    blob = json.dumps(doc).encode()
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(blob)),
             blob]
    for group in (params.weights, params.adam_m, params.adam_v):
        for arr in group:
            parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> ModelParams:
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:4]!r}")
    if len(data) < 12:
        raise FormatError("truncated checkpoint header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack_from("<I", data, 8)
    if len(data) < 12 + blob_len:
        raise FormatError("truncated checkpoint config")
    where = f"{path}: bad checkpoint config"
    try:
        doc = json.loads(data[12:12 + blob_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{where}: {exc}") from None
    config = config_from_json(ModelConfig, doc, where, ignore=("adam_step",))
    adam_step = json_value(int, doc.get("adam_step"), where, "adam_step")
    # weights, adam_m and adam_v, each in declaration order
    shapes = weight_shapes(config) * 3
    sizes = [math.prod(shape) for shape in shapes]
    offset = 12 + blob_len
    size = offset + 8 * sum(sizes)
    if len(data) < size:
        raise FormatError("truncated checkpoint payload")
    if len(data) > size:
        raise FormatError(f"{len(data) - size} trailing bytes in checkpoint")
    flat = np.frombuffer(data, "<f8", offset=offset).astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: a checkpoint value is not finite")
    arrays = [part.reshape(shape) for part, shape in
              zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    n = len(arrays) // 3
    return ModelParams(config=config, weights=arrays[:n],
                       adam_m=arrays[n:2 * n], adam_v=arrays[2 * n:],
                       adam_step=adam_step)
