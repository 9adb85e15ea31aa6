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
the same bytes. Only where results are stored changed: the modalities'
LSTMs advance in one step loop, with gates, cells and BPTT scratch in
gate-major (4, M, B, H) blocks, so each element-wise op is one ``out=``
call and only the GEMMs stay per modality. The K-wide output layer keeps
the plain order too (logits plus bias, softmax, loss terms, ``dlogits``),
in place: the forward holds one (B, S, K) array, training one more.
Training results, checkpoints and the benchmark's recorded reference scores
depend on those bits, and ``tests/test_seqmodel.py`` keeps the plain
formulation to check them. A faster but different formulation (hoisting
the input projection, one stacked ``dW`` GEMM, a ``tanh``-based sigmoid,
float32) is a change of results and must come with new reference scores.

A large forward-only batch (evaluation, validation) uses the usable CPUs
that BLAS leaves free: its modalities' LSTMs, then row blocks of the output
layer, run on threads that live only for the call, into arrays the caller
allocated. Each sample meets the same operations on any thread, so the
split never changes a result. Training stays on the caller's thread.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import FormatError
from .jsonconfig import config_from_json, config_to_json
from .smoothing import PROB_EPS, softmax

CHECKPOINT_MAGIC = b"LSAM"
CHECKPOINT_VERSION = 2
# Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        if not 0 < self.snippet_stride < np.inf:
            raise ValueError("snippet_stride must be positive and finite")
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
    """A model: its config and its trainable weights.

    ``weights`` is the declaration-order list: per modality the LSTM gate
    matrix (D+H, 4H) and bias (4H,), then the fusion matrix (M*H, K) and
    bias (K,). Gate columns are packed [input | forget | cell | output].
    A copy or a checkpoint holds the weights only: Adam's state is scratch,
    so the next ``adam_step`` after either is a first step.
    """

    config: ModelConfig
    weights: list[np.ndarray]
    # Scratch, never saved or copied: one flat buffer for the training step
    # arrays of every modality, and their views per (B, T) batch shape,
    # reused from batch to batch (see _cache_arrays); and Adam's step count
    # and moments, made by the first adam_step.
    _step_arrays: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    _adam: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

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
        return ModelParams(self.config, [w.copy() for w in self.weights])


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


def _sigmoid(x: np.ndarray, out: np.ndarray | None,
             den: np.ndarray) -> np.ndarray:
    """Logistic function, branch-free and overflow-free.

    ``exp(min(x, 0)) / (1 + exp(-|x|))`` is ``1 / (1 + exp(-x))`` for
    x >= 0 (the numerator is exactly ``exp(0) = 1``) and
    ``exp(x) / (1 + exp(x))`` for x < 0 (``-|x|`` is exactly ``x``), so it
    gives the bits of the two-branch formula without a data-dependent mask.
    ``out`` may be ``x``; ``den``, of ``x``'s shape, is scratch for the
    denominator.
    """
    np.abs(x, out=den)
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


def _cache_arrays(params: ModelParams, B: int, T: int):
    """The training step arrays of a (B, T) batch: per modality ``xh``
    (T+1, B, D+H), then the gates (T, 4, M, B, H), cells (T+1, M, B, H)
    and ``tanh(c)`` (T, M, B, H) of :func:`_run_lstm`, its GEMM block
    (M, B, 4H), which BPTT reuses for ``dz``, and a (6, M, B, H) BPTT
    block, whose last three rows are the forward's sigmoid scratch; then
    per modality ``dxh`` (B, D+H) and ``dW_t`` (D+H, 4H).

    They take about 30 MB at B=256, H=64, and faulting fresh pages of that
    size in on every batch cost about 15 ms of a 100 ms batch. So
    ``params`` keeps one flat buffer for the largest batch seen, and each
    batch shape carves C-contiguous arrays from the front of it.
    """
    held = params._step_arrays
    if (B, T) not in held:
        H, M = params.config.hidden_size, len(params.config.modalities)
        widths = [D + H for D in params.config.feature_dims]
        shapes = ([(T + 1, B, w) for w in widths]
                  + [(T, 4, M, B, H), (T + 1, M, B, H), (T, M, B, H),
                     (M, B, 4 * H), (6, M, B, H)]
                  + [(B, w) for w in widths] + [(w, 4 * H) for w in widths])
        sizes = [math.prod(shape) for shape in shapes]
        if "flat" not in held or held["flat"].size < sum(sizes):
            held.clear()
            held["flat"] = np.empty(sum(sizes))
        arrays = [held["flat"][end - size:end].reshape(shape)
                  for end, size, shape in zip(np.cumsum(sizes), sizes, shapes)]
        held[B, T] = (arrays[:M], *arrays[M:M + 5], arrays[M + 5:2 * M + 5],
                      arrays[2 * M + 5:])
    return held[B, T]


def _forward_arrays(B: int, H: int, dims, M: int) -> tuple:
    """Forward-only :func:`_run_lstm` arrays: ``xh`` (2, B, D+H) for each
    width in ``dims``, then the gates, cells, ``tanh(c)``, GEMM and
    (4, M, B, H) scratch blocks of M stacked modalities, with one or two
    rows where training keeps T, so a forward holds nothing that grows
    with T. Modalities run one at a time share one set of M=1 blocks."""
    return ([np.empty((2, B, D + H)) for D in dims],
            *map(np.empty, [(1, 4, M, B, H), (2, M, B, H), (1, M, B, H),
                            (M, B, 4 * H), (4, M, B, H)]))


def _run_lstm(Ws, bs, xs, h_outs, arrays) -> None:
    """Run one LSTM per modality over its (B, T, D) input from zero state,
    all in one step loop, and write the hidden states of the last S steps
    into ``h_outs``, (B, S, H) each. The bias add moves each GEMM output,
    [i | f | g | o], into gate-major gates ordered [i | f | o | g], so one
    sigmoid call covers three gates. ``arrays`` come from
    :func:`_cache_arrays`, which keeps every step's ``[x_t | h_{t-1}]``,
    gates, cell and ``tanh(c_t)`` for the backward pass, or from
    :func:`_forward_arrays`; this allocates nothing that grows with B.
    """
    M, (B, T), H, S = len(Ws), xs[0].shape[:2], bs[0].size // 4, \
        h_outs[0].shape[1]
    xhs, gates, cs, tanh_cs, zs, scratch = arrays[:6]
    gi_gg, den = scratch[0], scratch[-3:]
    n_rows, n_steps = cs.shape[0], gates.shape[0]
    # the [i | f] and [o | g] gate blocks of the GEMM outputs and biases
    z4 = zs.reshape(M, B, 4, H).transpose(2, 0, 1, 3)
    b4 = np.stack(bs).reshape(M, 4, 1, H).transpose(1, 0, 2, 3)
    dims = [x.shape[2] for x in xs]
    for xh, D in zip(xhs, dims):
        xh[0, :, D:] = 0.0
    cs[0] = 0.0
    for t in range(T):
        for m in range(M):
            row = xhs[m][t % n_rows]
            row[:, :dims[m]] = xs[m][:, t, :]
            np.matmul(row, Ws[m], out=zs[m])
        z = gates[t % n_steps]
        np.add(z4[:2], b4[:2], out=z[:2])
        np.add(z4[3:1:-1], b4[3:1:-1], out=z[2:])
        _sigmoid(z[:3], z[:3], den)
        np.tanh(z[3], out=z[3])
        c, tanh_c = cs[(t + 1) % n_rows], tanh_cs[t % n_steps]
        np.multiply(z[1], cs[t % n_rows], out=c)
        np.multiply(z[0], z[3], out=gi_gg)
        c += gi_gg
        np.tanh(c, out=tanh_c)
        for m in range(M):
            h = xhs[m][(t + 1) % n_rows, :, dims[m]:]
            np.multiply(z[2, m], tanh_c[m], out=h)
            if t >= T - S:
                h_outs[m][:, t - (T - S)] = h


# A forward-only batch of fewer (row x hidden unit) pairs than this runs
# on the caller's thread with its modalities in one stacked step loop;
# from it on, each modality runs alone and, with threads to spare, on a
# thread of its own (see _forward_full for the timings).
_SPLIT_MIN_WORK = 4096


def _scoring_threads() -> int:
    """How many threads scoring splits its work across: the usable CPUs
    over the threads each BLAS call takes, read from the first of
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
    that is set. Without one, BLAS takes every CPU and this is 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value:
            blas = int(value) if value.isdigit() else 0
            return max(1, cpus // blas) if blas else 1
    return 1


def _in_threads(jobs) -> None:
    """Call each of ``jobs``: the first on the caller's thread, each other
    on a thread of its own that has ended when this returns. An exception
    of the caller's job wins; else the first job's that raised is raised
    here. A job allocates nothing large: a worker thread's allocations
    would come from a malloc arena of its own and raise the RSS."""
    errors = []

    def guarded(job):
        try:
            job()
        except BaseException as exc:  # raised again on the caller's thread
            errors.append(exc)

    threads = []
    try:
        for job in jobs[1:]:
            thread = threading.Thread(target=guarded, args=(job,))
            thread.start()
            threads.append(thread)
        if jobs:
            jobs[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _forward_full(params: ModelParams, features, protocol: ProtocolConfig,
                  keep_cache: bool):
    """The probabilities, hcat and the training step arrays (None without
    ``keep_cache``) of a batch. The softmax overwrites the logits, and
    raises FloatingPointError if one is not finite.

    Training runs every modality's LSTM in one stacked step loop, and so
    does a forward-only batch below ``_SPLIT_MIN_WORK``. From the gate on,
    each modality runs alone, and the work splits across
    :func:`_scoring_threads`: the modalities' LSTMs, then row blocks of
    the output layer. Every sample's GEMMs and element-wise ops are the
    same wherever they run, so the bits are too. Forward times of two
    modalities, stacked / alone / alone on two threads (2 vCPUs, 1 BLAS
    thread): 0.43 / 0.50 / 1.06 ms at B=64, H=16, K=16; 1.63 / 1.75 /
    2.16 ms at B=32, H=64, K=60; 3.17 / 3.19 / 2.63 ms at B=64, H=64;
    29.5 / 26.4 / 14.7 ms at B=512, H=64, K=60.
    """
    B = _check_features(params, features)
    cfg = params.config
    T = features[0].shape[1]
    if T != protocol.total_steps:
        raise ValueError(
            f"expected {protocol.total_steps} timesteps "
            f"({protocol.encode_steps}+{protocol.decode_steps}), got {T}"
        )
    H, M, K = cfg.hidden_size, len(cfg.modalities), cfg.num_classes
    hcat = np.empty((B, protocol.decode_steps, M * H))
    Ws, bs = params.weights[0:2 * M:2], params.weights[1:2 * M:2]
    h_outs = [hcat[:, :, m * H:(m + 1) * H] for m in range(M)]
    cache, parts = None, 1
    if keep_cache:
        cache = _cache_arrays(params, B, T)
        _run_lstm(Ws, bs, features, h_outs, cache)
    elif B * H < _SPLIT_MIN_WORK:
        _run_lstm(Ws, bs, features, h_outs,
                  _forward_arrays(B, H, cfg.feature_dims, M))
    else:
        parts = _scoring_threads()
        jobs = [range(j, M, parts) for j in range(min(parts, M))]
        arrays = [_forward_arrays(B, H, [cfg.feature_dims[m] for m in job], 1)
                  for job in jobs]

        def lstms(job, own):
            xhs, *blocks = own
            for m, xh in zip(job, xhs):
                g = slice(m, m + 1)
                _run_lstm(Ws[g], bs[g], features[g], h_outs[g],
                          ([xh], *blocks))

        _in_threads([partial(lstms, *job) for job in zip(jobs, arrays)])
        del arrays
    # A 2-D (B*S, M*H) GEMM would be faster, but it is not bit-identical to
    # this batched one, one GEMM per sample (checked at K=60), and the
    # recorded references depend on these bits.
    probs = np.empty((B, protocol.decode_steps, K))

    def output(rows):
        np.matmul(hcat[rows], params.fusion_weight, out=probs[rows])
        probs[rows] += params.fusion_bias
        softmax(probs[rows], out=probs[rows])

    bounds = [B * j // parts for j in range(parts + 1)]
    _in_threads([partial(output, slice(lo, hi))
                 for lo, hi in zip(bounds, bounds[1:]) if hi > lo])
    return probs, hcat, cache


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
    probs, hcat, cache = _forward_full(params, features, protocol,
                                       keep_cache=True)
    cfg = params.config
    B, S, K = probs.shape
    T, H = features[0].shape[1], cfg.hidden_size
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

    M = len(cfg.modalities)
    grads = [np.zeros_like(w) for w in params.weights[:2 * M]]
    grads.append(hcat.reshape(B * S, M * H).T @ dlogits.reshape(B * S, K))
    grads.append(dlogits.sum(axis=(0, 1)))

    dhcat = dlogits @ params.fusion_weight.T  # (B, S, M*H)
    xhs, gates, cs, tanh_cs, zs, bptt, dxhs, dW_ts = cache
    Ws, dims = params.weights[0:2 * M:2], cfg.feature_dims
    # dz is built gate-major in the spent GEMM block, then copied into step
    # t's spent gates as (B, 4H) rows, [i | f | g | o], for the GEMMs
    dz = zs.reshape(4, M, B, H)
    (dh, dc, dc_next), tmp3, tmp = bptt[:3], bptt[3:], bptt[3]
    bptt[:3] = 0.0
    dh_next = list(dh)
    for t in range(T - 1, -1, -1):
        z = gates[t]
        gi, gf, go, gg = z
        for m in range(M):
            if t >= T - S:
                np.add(dh_next[m], dhcat[:, t - (T - S), m * H:(m + 1) * H],
                       out=dh[m])
            else:
                dh[m] = dh_next[m]
        # dc = dc_next + dh * go * (1 - tanh_c**2)
        np.multiply(dh, go, out=dc)
        np.multiply(tanh_cs[t], tanh_cs[t], out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        dc += dc_next
        # i, f and o: dc * gg, dc * c_prev, dh * tanh_c; * gate * (1 - gate)
        np.multiply(dc, gg, out=dz[0])
        np.multiply(dc, cs[t], out=dz[1])
        np.multiply(dh, tanh_cs[t], out=dz[2])
        dz[:3] *= z[:3]
        np.subtract(1.0, z[:3], out=tmp3)
        dz[:3] *= tmp3
        # cell candidate: dc * gi * (1 - gg**2)
        np.multiply(dc, gi, out=dz[3])
        np.multiply(gg, gg, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dz[3] *= tmp
        if t:  # step 0 has no earlier step to pass gradients to
            np.multiply(dc, gf, out=dc_next)
        rows = z.reshape(M, B, 4 * H)
        rows4 = z.reshape(M, B, 4, H).transpose(2, 0, 1, 3)
        np.copyto(rows4[:2], dz[:2])
        np.copyto(rows4[3:1:-1], dz[2:])
        db = np.add.reduce(rows, axis=1)
        for m in range(M):
            np.matmul(xhs[m][t].T, rows[m], out=dW_ts[m])
            grads[2 * m] += dW_ts[m]
            grads[2 * m + 1] += db[m]
            if t:
                np.matmul(rows[m], Ws[m].T, out=dxhs[m])
                dh_next[m] = dxhs[m][:, dims[m]:]
    return loss, grads


def adam_step(params: ModelParams, grads: list[np.ndarray]) -> ModelParams:
    """One in-place Adam update with bias correction."""
    cfg = params.config
    if len(grads) != len(params.weights):
        raise ValueError("gradient list does not match parameter list")
    if not params._adam:
        params._adam = [0, [np.zeros_like(w) for w in params.weights],
                         [np.zeros_like(w) for w in params.weights]]
    params._adam[0] += 1
    t, moments1, moments2 = params._adam
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for w, g, m, v in zip(params.weights, grads, moments1, moments2):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        w -= cfg.learning_rate * (m / correction1) \
            / (np.sqrt(v / correction2) + ADAM_EPS)
    return params


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Binary checkpoint: magic, version, the model config's JSON, then the
    weights as f64 LE in declaration order. Adam's state is not saved."""
    blob = json.dumps(config_to_json(params.config)).encode()
    Path(path).write_bytes(b"".join(
        [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)),
         blob, *(np.asarray(w, "<f8").tobytes() for w in params.weights)]))


def load_checkpoint(path: str | Path) -> ModelParams:
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {data[:4]!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated checkpoint header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack_from("<I", data, 8)
    if len(data) < 12 + blob_len:
        raise FormatError(f"{path}: truncated checkpoint config")
    where = f"{path}: bad checkpoint config"
    try:
        doc = json.loads(data[12:12 + blob_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{where}: {exc}") from None
    config = config_from_json(ModelConfig, doc, where)
    shapes = weight_shapes(config)
    sizes = [math.prod(shape) for shape in shapes]
    offset = 12 + blob_len
    size = offset + 8 * sum(sizes)
    if len(data) < size:
        raise FormatError(f"{path}: truncated checkpoint payload")
    if len(data) > size:
        raise FormatError(f"{path}: {len(data) - size} trailing bytes in "
                          f"checkpoint")
    flat = np.frombuffer(data, "<f8", offset=offset).astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: a checkpoint value is not finite")
    arrays = [part.reshape(shape) for part, shape in
              zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    return ModelParams(config=config, weights=arrays)
