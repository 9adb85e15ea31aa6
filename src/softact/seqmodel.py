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
the same bytes. Only where results are stored changed: the LSTMs of a
stack, a run of consecutive modalities of one width D, advance in one step
loop, with ``[x_t | h]`` in a stacked (M, B, D+H) block and gates, cells
and BPTT scratch in gate-major (4, M, B, H) blocks, so each element-wise op
is one ``out=`` call and each GEMM one call per stack, which numpy runs as
one 2-D GEMM per modality.

The K-wide output layer works on fixed chunks of ``_OUTPUT_ROWS`` = 128
samples. Each chunk is one 2-D GEMM over its (sample, step) rows, then the
bias add and the softmax, in place; in training each chunk then writes its
loss terms, its ``dlogits`` and, with one more 2-D GEMM, its ``dhcat``. The
forward holds one (B, S, K) array, training one more. These results differ
from the per-sample GEMMs this layer used to make only where OpenBLAS gives
a row other bits in a GEMM of another row count: the forward where K leaves
a column tail (at K=60, 97 and 2513, not at 16, 24, 64 or 1200), the
``dhcat`` GEMM at some K (60, 64, 96, 97 and 128, not 16, 24, 1200 or
2513). All 40 of the benchmark's recorded train-k60 reference scores held.
Training results, checkpoints and those references depend on these bits,
and ``tests/test_seqmodel.py`` keeps the plain LSTM formulation, with the
output layer in the same chunks, to check them.
A faster but different formulation (hoisting the input projection, one
``dW`` GEMM over all steps, a ``tanh``-based sigmoid, float32) is a change
of results and must come with new reference scores.

A large batch uses the usable CPUs that BLAS leaves free: each modality's
LSTM runs on a thread that lives only for the call, into arrays the caller
allocated, and in training so does its BPTT, since the branches share no
arithmetic before the fusion layer. The output chunks are then dealt out
to the threads, in training too; the loss and the fusion gradients are
summed whole on the caller's thread, so their sums keep their order. The
chunks depend on the batch size alone, and a chunk meets the same
operations on any thread, so the CPU count never changes a result.
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


@dataclass(eq=False)
class ModelParams:
    """A model: its config and its trainable weights, one float64 vector.

    ``weights`` is a tuple of views of ``flat`` in declaration order: per
    modality the LSTM gate matrix (D+H, 4H) and bias (4H,), then the fusion
    matrix (M*H, K) and bias (K,). Gate columns are packed [input | forget
    | cell | output]. A copy or a checkpoint holds the weights only: Adam's
    state is scratch, so the next ``adam_step`` after either is a first
    step. ``flat`` must be a 1-D float64 vector of the weights' total size.
    Two models compare equal only if they are the same object.
    """

    config: ModelConfig
    flat: np.ndarray
    weights: tuple = field(init=False, repr=False)
    # Scratch, never saved or copied: one flat buffer for the training step
    # arrays of every modality, and their views per batch shape and
    # stacking, reused from batch to batch (see _cache_arrays); and Adam's
    # step count, flat moments and flat scratch, made by the first
    # adam_step.
    _step_arrays: dict = field(default_factory=dict, init=False, repr=False)
    _adam: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        size = _weight_count(self.config)
        if getattr(self.flat, "dtype", None) != np.float64 \
                or np.shape(self.flat) != (size,):
            raise ValueError(f"expected a float64 vector of {size} weights")
        self.weights = tuple(_carve(self.flat, weight_shapes(self.config)))

    @property
    def fusion_weight(self) -> np.ndarray:
        return self.weights[-2]

    @property
    def fusion_bias(self) -> np.ndarray:
        return self.weights[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


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


def _weight_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in weight_shapes(config))


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Biases start at zero except the forget gates, which start at 1.
    """
    rng = np.random.default_rng(config.seed)
    H = config.hidden_size
    params = ModelParams(config, np.zeros(_weight_count(config)))
    for W in params.weights[0::2]:  # the matrices, fan_in rows each
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    for bias in params.weights[1:-1:2]:
        bias[H:2 * H] = 1.0
    return params


def _stack_views(flat: np.ndarray, config: ModelConfig, g: slice):
    """The (M, D+H, 4H) gate matrices and (M, 4H) biases of the stack
    ``g`` (see :func:`_stacks`) as views of ``flat``, laid out as
    ``ModelParams.flat``: a modality's matrix and bias are one adjacent
    (D+H+1, 4H) block, and so are those of consecutive modalities."""
    H, dims = config.hidden_size, config.feature_dims
    start = sum((d + H + 1) * 4 * H for d in dims[:g.start])
    size = (g.stop - g.start) * (dims[g.start] + H + 1) * 4 * H
    block = flat[start:start + size].reshape(g.stop - g.start, -1, 4 * H)
    return block[:, :-1], block[:, -1]


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


def _stacks(dims, split: bool) -> list[slice]:
    """The stacks a batch's modalities run in, as slices of the modality
    list: each modality alone when ``split``, else each run of consecutive
    modalities of one width D."""
    bounds = [0] + [i for i in range(1, len(dims))
                    if split or dims[i] != dims[i - 1]] + [len(dims)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _carve(flat: np.ndarray, shapes) -> list:
    """C-contiguous arrays of ``shapes``, one after another from the front
    of ``flat``."""
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(flat[start:start + size].reshape(shape))
        start += size
    return arrays


def _cache_arrays(params: ModelParams, B: int, T: int, split: bool) -> list:
    """The training step arrays of a (B, T) batch whose modalities run in
    the stacks of :func:`_stacks`: per stack of M modalities of width D,
    ``xh`` (T+1, M, B, D+H), the gates (T, 4, M, B, H), cells
    (T+1, M, B, H) and ``tanh(c)`` (T, M, B, H) of :func:`_run_lstm`, its
    GEMM block (M, B, 4H), which BPTT reuses for ``dz``, a (6, M, B, H)
    BPTT block, whose last three rows are the forward's sigmoid scratch,
    ``dxh`` (M, B, D+H) and ``dW_t`` (M, D+H, 4H). Each is the per-modality
    arrays of its stack side by side, so the total does not depend on the
    stacking.

    They take about 30 MB at B=256, H=64. Where malloc hands back fresh
    pages for them on every batch (``MALLOC_MMAP_THRESHOLD_=131072``),
    faulting those in costs about 3 ms of a 41 ms batch on one thread. So
    ``params`` keeps one flat buffer for the largest batch seen, and each
    batch shape and stacking carves its arrays from the front of it.
    """
    held = params._step_arrays
    if (B, T, split) not in held:
        H, dims = params.config.hidden_size, params.config.feature_dims
        shapes = []
        for g in _stacks(dims, split):
            M, w = g.stop - g.start, dims[g.start] + H
            shapes += [(T + 1, M, B, w), (T, 4, M, B, H), (T + 1, M, B, H),
                       (T, M, B, H), (M, B, 4 * H), (6, M, B, H), (M, B, w),
                       (M, w, 4 * H)]
        size = sum(math.prod(shape) for shape in shapes)
        if "flat" not in held or held["flat"].size < size:
            held.clear()
            held["flat"] = np.empty(size)
        arrays = _carve(held["flat"], shapes)
        held[B, T, split] = [tuple(arrays[i:i + 8])
                             for i in range(0, len(arrays), 8)]
    return held[B, T, split]


def _forward_arrays(B: int, H: int, widths) -> list:
    """Forward-only :func:`_run_lstm` arrays for stacks run one after
    another, given as their modalities' widths D: per stack an ``xh``
    (2, M, B, D+H), and gates, cells, ``tanh(c)``, GEMM and (4, M, B, H)
    scratch blocks that every stack shares, carved from the front of one
    allocation each, with one or two rows where training keeps T, so a
    forward holds nothing that grows with T.

    One allocation per block, not one buffer for all five: with a single
    3.9 MB buffer per thread at B=512, H=64, cli-k1200's peak RSS read
    about 19 MB higher in 14 of 20 runs of ``bench/collect.py``, and in
    none of 16 with separate blocks."""
    def shapes(M):
        return [(1, 4, M, B, H), (2, M, B, H), (1, M, B, H), (M, B, 4 * H),
                (4, M, B, H)]

    blocks = [np.empty(math.prod(shape))
              for shape in shapes(max(map(len, widths)))]
    return [(np.empty((2, len(dims), B, dims[0] + H)),
             *(block[:math.prod(shape)].reshape(shape)
               for block, shape in zip(blocks, shapes(len(dims)))))
            for dims in widths]


def _run_lstm(W, b, xs, h_out, arrays) -> None:
    """Run the LSTMs of one stack, M modalities of one width D, over their
    (B, T, D) inputs from zero state in one step loop, and write the hidden
    states of the last S steps into ``h_out``, (S, M, B, H). ``W`` is the
    stack's (M, D+H, 4H) gate matrices and ``b`` its (M, 4H) biases, from
    :func:`_stack_views`. Each step copies each modality's input into its
    ``xh`` row, makes one GEMM call for the stack and writes its hidden
    states into the next ``xh`` row with one multiply. The bias is added in
    the GEMM's contiguous (M, B, 4H) block; two copies then move it,
    [i | f | g | o], into gate-major gates ordered [i | f | o | g], so one
    sigmoid call covers three gates. ``arrays`` come from
    :func:`_cache_arrays`, which keeps every step's ``[x_t | h_{t-1}]``,
    gates, cell and ``tanh(c_t)`` for the backward pass, or from
    :func:`_forward_arrays`; this allocates nothing that grows with B.
    """
    xh, gates, cs, tanh_cs, zs, scratch = arrays[:6]
    (M, B, H4), (T, D), S = zs.shape, xs[0].shape[1:], h_out.shape[0]
    H = H4 // 4
    gi_gg, den = scratch[0], scratch[-3:]
    n_rows, n_steps = cs.shape[0], gates.shape[0]
    # the GEMM outputs' gate blocks, and the biases as (M, 1, 4H) rows
    z4 = zs.reshape(M, B, 4, H).transpose(2, 0, 1, 3)
    b = b[:, None, :]
    xh[0, :, :, D:] = 0.0
    cs[0] = 0.0
    for t in range(T):
        row = xh[t % n_rows]
        for m, x in enumerate(xs):
            row[m, :, :D] = x[:, t]
        np.matmul(row, W, out=zs)
        zs += b
        z = gates[t % n_steps]
        np.copyto(z[:2], z4[:2])
        np.copyto(z[2:], z4[3:1:-1])
        _sigmoid(z[:3], z[:3], den)
        np.tanh(z[3], out=z[3])
        c, tanh_c = cs[(t + 1) % n_rows], tanh_cs[t % n_steps]
        np.multiply(z[1], cs[t % n_rows], out=c)
        np.multiply(z[0], z[3], out=gi_gg)
        c += gi_gg
        np.tanh(c, out=tanh_c)
        h = xh[(t + 1) % n_rows, :, :, D:]
        np.multiply(z[2], tanh_c, out=h)
        if t >= T - S:
            h_out[t - (T - S)] = h


# A batch of fewer (row x hidden unit) pairs than this runs on the
# caller's thread, each run of equal-width modalities in one stacked step
# loop; from it on, each modality runs alone and, with threads to spare, on
# a thread of its own (see _forward_full for the timings).
_SPLIT_MIN_WORK = 8192


def _scoring_threads() -> int:
    """How many threads scoring and training split their work across: the
    usable CPUs over the threads each BLAS call takes, read from the first
    of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
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


# The output layer works on chunks of this many samples. OpenBLAS can give a
# row other bits in a GEMM of another row count when K leaves a column tail
# (at K=60, GEMMs of up to 130 rows gave other bits than larger ones; at
# K=2513 most row counts did; at K=16, 24, 64 and 1200 none did), so the
# chunks depend on the batch size alone, never on the thread count.
_OUTPUT_ROWS = 128


def _output_chunks(B: int, parts: int) -> list:
    """A batch's output-layer chunks, slices of ``_OUTPUT_ROWS`` samples (the
    last may be shorter), dealt out to ``parts`` threads: thread j takes the
    chunks j, j + parts, ..."""
    chunks = [slice(lo, min(lo + _OUTPUT_ROWS, B))
              for lo in range(0, B, _OUTPUT_ROWS)]
    return [chunks[j::parts] for j in range(min(parts, len(chunks)))]


def _forward_full(params: ModelParams, features, protocol: ProtocolConfig,
                  keep_cache: bool):
    """The probabilities, hcat, with ``keep_cache`` the LSTM jobs of a batch
    (else None), and the output layer's chunks per thread (see
    :func:`_output_chunks`). A job is one thread's (modality slice, step
    arrays) pairs, which BPTT runs again on the same threads, as the loss
    runs again on the same chunks. The softmax overwrites the logits, and
    raises FloatingPointError if one is not finite.

    Below ``_SPLIT_MIN_WORK`` the LSTMs of each run of equal-width
    modalities advance in one stacked step loop on the caller's thread
    (see :func:`_stacks`), and the output layer runs there too. From the
    gate on, each modality runs alone, and the modalities and then the
    output chunks spread across :func:`_scoring_threads`. A chunk's GEMM
    and element-wise ops are the same wherever it runs, so the bits are
    too. Forward times of two modalities, stacked / alone / alone on two
    threads (2 vCPUs, 1 BLAS thread): 0.43 / 0.50 / 1.06 ms at B=64, H=16,
    K=16; 1.63 / 1.75 / 2.16 ms at B=32, H=64, K=60; 3.17 / 3.19 / 2.63 ms
    at B=64, H=64; 29.5 / 26.4 / 14.7 ms at B=512, H=64, K=60.

    Training batches of two 16-d modalities at K=60, stacked / alone on
    two threads: medians of five runs that alternate the two, and the range
    of the five ratios (2 vCPUs, 1 BLAS thread, a box whose second vCPU is
    shared, so single runs scatter widely):

        B x H     B    H   stacked     split   stacked / split
         4096    64   64   13.2 ms   12.2 ms   0.98 - 1.26
         4096   256   16   11.5 ms   11.8 ms   0.79 - 1.04
         8192   128   64   20.8 ms   18.0 ms   1.05 - 1.42
         8192   512   16   21.6 ms   17.6 ms   1.12 - 1.32
        16384   256   64   42.5 ms   30.3 ms   1.38 - 1.71

    So the gate sits at 8192, where every run gained. In the same runs a
    forward at 4096 came out 0.88 - 1.27 times as fast split, so it loses
    little by staying stacked there.
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
    dims, S = cfg.feature_dims, protocol.decode_steps
    hcat = np.empty((B, S, M * H))
    # per modality, its (S, B, H) hidden states in hcat
    h_outs = hcat.reshape(B, S, M, H).transpose(1, 2, 0, 3)
    split = B * H >= _SPLIT_MIN_WORK
    parts = _scoring_threads() if split else 1
    stacks = _stacks(dims, split)

    def arrays(j):  # thread j runs the stacks j, j + parts, ...
        if keep_cache:
            return _cache_arrays(params, B, T, split)[j::parts]
        return _forward_arrays(B, H, [dims[g] for g in stacks[j::parts]])

    jobs = [list(zip(stacks[j::parts], arrays(j)))
            for j in range(min(parts, len(stacks)))]

    def lstms(job):
        for g, step_arrays in job:
            _run_lstm(*_stack_views(params.flat, cfg, g), features[g],
                      h_outs[:, g], step_arrays)

    _in_threads([partial(lstms, job) for job in jobs])
    if not keep_cache:  # free the step arrays before the (B, S, K) one is made
        jobs = None
    probs = np.empty((B, S, K))

    # One 2-D GEMM per chunk over its (sample, step) rows: at B=256, S=8,
    # M*H=128 (2 vCPUs, 1 BLAS thread) 12.0 ms at K=1200 and 23.4 ms at
    # K=2513, against 23.6 and 56.7 ms as one GEMM per sample; the dhcat
    # GEMMs take 13.9 and 29.4 ms, against 32.5 and 71.8 ms.
    def output(chunks):
        for rows in chunks:
            logits = probs[rows].reshape(-1, K)
            np.matmul(hcat[rows].reshape(-1, M * H), params.fusion_weight,
                      out=logits)
            logits += params.fusion_bias
            softmax(logits, out=logits)

    groups = _output_chunks(B, parts)
    _in_threads([partial(output, chunks) for chunks in groups])
    return probs, hcat, jobs, groups


def forward_batch(params: ModelParams, features,
                  protocol: ProtocolConfig = ProtocolConfig()) -> np.ndarray:
    """Forward a batch; features is a per-modality list of (B, T, D) arrays.

    Returns the (B, decode_steps, K) class probabilities.
    """
    return _forward_full(params, features, protocol, keep_cache=False)[0]


def _bptt(W, dh_out, arrays, dW, db) -> None:
    """Backpropagate through the LSTMs of the stack that :func:`_run_lstm`
    ran into ``arrays`` (from :func:`_cache_arrays`): ``dh_out`` is the
    gradient of the last S hidden states, (S, M, B, H), and the stack's
    weight and bias gradients are added into ``dW`` (M, D+H, 4H) and ``db``
    (M, 4H). Each step makes one call for the stack per operation, GEMMs
    included. This allocates nothing that grows with B."""
    xh, gates, cs, tanh_cs, zs, bptt, dxh, dW_t = arrays
    T, (S, M, B, H) = gates.shape[0], dh_out.shape
    D = xh.shape[3] - H
    # dz is built gate-major in the spent GEMM block, then copied into step
    # t's spent gates as (B, 4H) rows, [i | f | g | o], for the GEMMs
    dz = zs.reshape(4, M, B, H)
    (dh, dc, dc_next), tmp3, tmp = bptt[:3], bptt[3:], bptt[3]
    bptt[:3] = 0.0
    dh_next, W_T = dh, W.transpose(0, 2, 1)
    for t in range(T - 1, -1, -1):
        z = gates[t]
        gi, gf, go, gg = z
        if t >= T - S:
            np.add(dh_next, dh_out[t - (T - S)], out=dh)
            dh_t = dh
        else:
            dh_t = dh_next
        # dc = dc_next + dh * go * (1 - tanh_c**2)
        np.multiply(dh_t, go, out=dc)
        np.multiply(tanh_cs[t], tanh_cs[t], out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        dc += dc_next
        # i, f and o: dc * gg, dc * c_prev, dh * tanh_c; * gate * (1 - gate)
        np.multiply(dc, gg, out=dz[0])
        np.multiply(dc, cs[t], out=dz[1])
        np.multiply(dh_t, tanh_cs[t], out=dz[2])
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
        db += np.add.reduce(rows, axis=1)
        np.matmul(xh[t].transpose(0, 2, 1), rows, out=dW_t)
        dW += dW_t
        if t:
            np.matmul(rows, W_T, out=dxh)
            dh_next = dxh[:, :, D:]


def loss_and_gradients_batch(params: ModelParams, features,
                             targets: np.ndarray,
                             protocol: ProtocolConfig = ProtocolConfig()):
    """Mean soft cross-entropy over decode steps and batch, with exact
    BPTT gradients in declaration order.

    ``targets`` is (B, K); the same soft target applies at every decode
    step of a sample. The modalities' BPTT runs on the threads their
    forward ran on, and each output chunk's loss terms, ``dlogits`` and
    ``dhcat`` rows on the thread its forward ran on; the loss and the
    fusion gradients are summed whole on the caller's thread, in one fixed
    order. The gradients are views of one fresh vector laid out as the
    weights are in ``flat``.
    """
    cfg = params.config
    B, K = _check_features(params, features), cfg.num_classes
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (B, K):
        raise ValueError(f"targets shape {targets.shape}, expected {(B, K)}")
    probs, hcat, jobs, groups = _forward_full(params, features, protocol,
                                              keep_cache=True)
    S, H, M = probs.shape[1], cfg.hidden_size, len(cfg.modalities)

    # One more (B, S, K) array holds the loss terms; the fused softmax +
    # cross-entropy gradient, averaged over steps and batch, then overwrites
    # the probabilities, which nothing reads after it.
    terms = np.empty_like(probs)
    dlogits = probs
    dhcat = np.empty_like(hcat)

    def output_grad(chunks):
        for rows in chunks:
            np.maximum(probs[rows], PROB_EPS, out=terms[rows])
            np.log(terms[rows], out=terms[rows])
            terms[rows] *= targets[rows, None, :]
            dlogits[rows] -= targets[rows, None, :]
            dlogits[rows] /= B * S
            np.matmul(dlogits[rows].reshape(-1, K), params.fusion_weight.T,
                      out=dhcat[rows].reshape(-1, M * H))

    _in_threads([partial(output_grad, chunks) for chunks in groups])
    loss = float(-terms.sum() / (B * S))
    del terms
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    grad = np.zeros(params.flat.size)
    grads = _carve(grad, weight_shapes(cfg))
    np.matmul(hcat.reshape(B * S, M * H).T, dlogits.reshape(B * S, K),
              out=grads[-2])
    np.sum(dlogits, axis=(0, 1), out=grads[-1])

    dh_outs = dhcat.reshape(B, S, M, H).transpose(1, 2, 0, 3)
    work = [[(_stack_views(params.flat, cfg, g)[0], dh_outs[:, g], arrays,
              *_stack_views(grad, cfg, g)) for g, arrays in job]
            for job in jobs]

    def backward(job):
        for args in job:
            _bptt(*args)

    _in_threads([partial(backward, job) for job in work])
    return loss, grads


def adam_step(params: ModelParams, grads: list[np.ndarray]) -> ModelParams:
    """One in-place Adam update with bias correction.

    The step count, both moments and two scratch vectors live in
    ``params._adam``, made by the first call, laid out as ``params.flat``:
    the gradients are copied into one, and each operation, the update of
    ``flat`` included, is one call over the whole vector. Every element
    meets the operations of the per-array formula in the same order, so
    the bits are the same. The scratch is held, not made per call: at
    K=1200 (H=64, 2x16-d) it is 3.1 MB, and a call took 2.6-2.9 ms with it
    made per call against 1.7-1.9 ms held (2 vCPUs, 1 BLAS thread). Raises
    ValueError, with nothing updated, if a gradient's shape is not its
    weight's.
    """
    cfg, weights = params.config, params.weights
    if len(grads) != len(weights):
        raise ValueError("gradient list does not match parameter list")
    for i, (w, g) in enumerate(zip(weights, grads)):
        if np.shape(g) != w.shape:
            raise ValueError(f"gradient {i} has shape {np.shape(g)}, "
                             f"expected {w.shape}")
    if not params._adam:
        size = params.flat.size
        params._adam = [0, np.zeros(size), np.zeros(size), np.empty(size),
                        np.empty(size)]
    params._adam[0] += 1
    t, m, v, step, tmp = params._adam
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    np.concatenate([np.ravel(g) for g in grads], out=step)
    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
    m *= b1
    np.multiply(step, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(step, step, out=tmp)
    tmp *= 1.0 - b2
    v += tmp
    # step = lr * (m / correction1) / (sqrt(v / correction2) + eps)
    np.divide(m, correction1, out=step)
    step *= cfg.learning_rate
    np.divide(v, correction2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step /= tmp
    params.flat -= step
    return params


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Binary checkpoint: magic, version, the model config's JSON, then
    ``params.flat``, the weights in declaration order, as f64 LE. Adam's
    state is not saved."""
    blob = json.dumps(config_to_json(params.config)).encode()
    Path(path).write_bytes(b"".join(
        [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)),
         blob, params.flat.astype("<f8").tobytes()]))


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
    offset = 12 + blob_len
    size = offset + 8 * _weight_count(config)
    if len(data) < size:
        raise FormatError(f"{path}: truncated checkpoint payload")
    if len(data) > size:
        raise FormatError(f"{path}: {len(data) - size} trailing bytes in "
                          f"checkpoint")
    flat = np.frombuffer(data, "<f8", offset=offset).astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: a checkpoint value is not finite")
    return ModelParams(config, flat)
