"""Synthetic verb-noun action grammars and desk-scale datasets.

The generator builds a world in which smoothing priors have something real
to exploit: feature means of actions sharing a verb or noun sit closer
together than unrelated actions (so cohort members are genuinely
confusable), and annotation sequences follow a ground-truth Markov chain
(so predecessor statistics are learnable). Everything is a pure function
of its config and seed.

Token names are letters only ("va", "nb", ...) so that embedding lookups,
which split tokens on non-alphabetic characters, see them unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .jsonconfig import config_from_json
from .priors import EmbeddingTable
from .seqmodel import ProtocolConfig
from .vocab import ActionVocab

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
_FEATURE_CHUNK = 512  # samples gen_features makes at once


def _letters(i: int) -> str:
    """0 -> 'a', 25 -> 'z', 26 -> 'aa', ... (letters only)."""
    out = ""
    i += 1
    while i > 0:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


@dataclass(frozen=True)
class GrammarConfig:
    """Knobs for the synthetic action world.

    ``sigma_within`` scales per-action jitter, ``sigma_between`` scales the
    shared verb/noun anchors of the class means; keeping within < between
    makes cohort-sharing actions the confusable ones.
    """

    num_verbs: int
    num_nouns: int
    action_density: float = 1.0
    sigma_within: float = 0.25
    sigma_between: float = 1.0
    markov_concentration: float = 1.0
    modalities: tuple[tuple[str, int], ...] = (("rgb", 16), ("flow", 16))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "modalities",
                           tuple((str(n), int(d)) for n, d in self.modalities))
        if not self.modalities:
            raise ValueError("need at least one modality")
        if any(d < 1 for _, d in self.modalities):
            raise ValueError("feature dims must be >= 1")
        if self.num_verbs < 1 or self.num_nouns < 1:
            raise ValueError("need at least one verb and one noun")
        if not (0.0 < self.action_density <= 1.0):
            raise ValueError(f"action_density must be in (0, 1], got {self.action_density}")
        if not 0.0 <= self.sigma_within < self.sigma_between < np.inf:
            raise ValueError("need 0 <= sigma_within < sigma_between < inf")
        if not 0 < self.markov_concentration < np.inf:
            raise ValueError("markov_concentration must be positive and finite")

    @property
    def num_actions(self) -> int:
        """Actions the grammar draws: the density's share of the grid."""
        return int(np.ceil(self.action_density * self.num_verbs * self.num_nouns))


@dataclass(frozen=True)
class SyntheticGrammar:
    """Ground truth of a synthetic world: vocabulary, Markov chain over
    actions, and per-modality feature means for every action."""

    config: GrammarConfig
    vocab: ActionVocab
    transition: np.ndarray               # (K, K) row-stochastic
    class_means: tuple[np.ndarray, ...]  # per modality (K, D)

    @property
    def K(self) -> int:
        return self.vocab.K


def _check_grammar(doc, where: str, modalities,
                   vocab: ActionVocab) -> GrammarConfig:
    """The parameters stored in a bundle's grammar.json, checked without
    building the grammar's arrays: FormatError, naming ``where``, if they
    are malformed, have a key that is not a GrammarConfig field, list other
    ``modalities`` or do not draw ``vocab`` (another seed or grid, or a
    numpy whose random stream changed)."""
    config = config_from_json(GrammarConfig, doc, where)
    if config.modalities != tuple(modalities):
        raise FormatError(f"{where}: modalities {list(config.modalities)} "
                          f"differ from the bundle's {list(modalities)}")
    try:
        if config.num_actions != vocab.K:
            raise ValueError(f"grammar parameters give another action count "
                             f"than its {vocab.K}-action vocabulary")
        if _draw_vocab(config, np.random.default_rng(config.seed)) != vocab:
            raise ValueError("grammar parameters do not regenerate its "
                             "vocabulary")
    except (OverflowError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None
    return config


def _draw_vocab(config: GrammarConfig,
                rng: np.random.Generator) -> ActionVocab:
    """A grammar's first draw: which grid cells are actions, named and
    numbered in draw order."""
    N = config.num_nouns
    count = config.num_actions
    if count < 2:
        raise ValueError(f"realized action count {count} < 2; raise density or grid")
    cells = rng.choice(config.num_verbs * N, size=count, replace=False)
    # grid row/column -> verb/noun id, numbered in order of first appearance
    verb_ids: dict[int, int] = {}
    noun_ids: dict[int, int] = {}
    actions = []
    for cell in cells:
        v, n = divmod(int(cell), N)
        actions.append((verb_ids.setdefault(v, len(verb_ids)),
                        noun_ids.setdefault(n, len(noun_ids))))
    return ActionVocab(tuple("v" + _letters(v) for v in verb_ids),
                       tuple("n" + _letters(n) for n in noun_ids),
                       tuple(actions))


def gen_grammar(config: GrammarConfig) -> SyntheticGrammar:
    """Sample a grammar: which grid cells are actions, their transition
    chain, and their feature means."""
    rng = np.random.default_rng(config.seed)
    vocab = _draw_vocab(config, rng)
    K = vocab.K

    transition = rng.dirichlet(np.full(K, config.markov_concentration), size=K)
    transition /= transition.sum(axis=1, keepdims=True)

    # Class mean = shared verb anchor + shared noun anchor + own jitter, so
    # actions sharing a token differ only in one anchor plus jitter and end
    # up closer together than unrelated actions.
    means = []
    for _, dim in config.modalities:
        verb_anchor = rng.normal(size=(len(vocab.verbs), dim)) / np.sqrt(dim)
        noun_anchor = rng.normal(size=(len(vocab.nouns), dim)) / np.sqrt(dim)
        jitter = rng.normal(size=(K, dim)) / np.sqrt(dim)
        means.append(config.sigma_between * (verb_anchor[vocab.verb_of]
                                             + noun_anchor[vocab.noun_of])
                     + config.sigma_within * jitter)
    return SyntheticGrammar(config=config, vocab=vocab, transition=transition,
                            class_means=tuple(means))


def gen_annotation_sequences(grammar: SyntheticGrammar, num_videos: int,
                             length: int, seed: int) -> np.ndarray:
    """Markov walks over the grammar's chain: a (num_videos, length) int64
    array whose row v is video v's action ids, one per second.

    The walks are bit-identical by contract to the plain per-step sampler
    (video by video, ``rng.integers(K)`` for the first action, then
    ``rng.choice(K, p=transition[state])`` per step): ``Generator.choice``
    draws one ``random()`` per call and searches it, side right, in the
    row's cumulative sum divided by its last entry. Here those CDF rows are
    built once, and each video's uniforms come in one ``rng.random`` call,
    which yields the same stream. Bundles and the recorded test bytes
    depend on these ids; ``tests/test_synthdata.py`` keeps the plain
    sampler to check them.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    K = grammar.K
    cdf = np.cumsum(grammar.transition, axis=1)
    cdf /= cdf[:, -1:]
    walks = np.empty((num_videos, length), dtype=np.int64)
    for walk in walks:
        state = walk[0] = rng.integers(K)
        for step, u in enumerate(rng.random(length - 1), start=1):
            state = walk[step] = cdf[state].searchsorted(u, side="right")
    return walks


@dataclass(eq=False)
class FeatureSet:
    """Per-modality feature sequences plus targets for a set of samples.

    ``features[m]`` has shape (num_samples, timesteps, dims[m]), float32.
    """

    dims: tuple[int, ...]
    features: tuple[np.ndarray, ...]
    targets: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if len(self.features) != len(self.dims):
            raise ValueError("one feature block per modality required")
        feats = []
        n = self.targets.shape[0]
        for d, x in zip(self.dims, self.features):
            x = np.asarray(x, dtype=np.float32)
            if x.ndim != 3 or x.shape[0] != n or x.shape[2] != d:
                raise ValueError(f"feature block has shape {x.shape}, "
                                 f"expected ({n}, T, {d})")
            feats.append(x)
        if len({x.shape[1] for x in feats}) > 1:
            raise ValueError("all modalities must share the same timestep count")
        self.features = tuple(feats)

    @property
    def num_samples(self) -> int:
        return int(self.targets.shape[0])

    @property
    def timesteps(self) -> int:
        return int(self.features[0].shape[1]) if self.features else 0

    def subset(self, indices) -> "FeatureSet":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureSet(
            dims=self.dims,
            features=tuple(x[idx] for x in self.features),
            targets=self.targets[idx],
        )

    def batches(self, batch_size: int, order: np.ndarray | None = None):
        """Yield (rows, per-modality arrays) per ``batch_size`` samples:
        ``rows`` is a slice in stored order, or a block of ``order``. Scoring
        callers forward each block inside one expression, so its K-wide
        predictions are freed before the next block's are made."""
        n = self.num_samples if order is None else len(order)
        for start in range(0, n, batch_size):
            rows = (slice(start, start + batch_size) if order is None
                    else order[start:start + batch_size])
            yield rows, [x[rows] for x in self.features]


def gen_features(grammar: SyntheticGrammar, walks: np.ndarray,
                 protocol: ProtocolConfig, noise_sigma: float,
                 seed: int) -> FeatureSet:
    """One sample per pair of consecutive walk steps, video by video: the
    target is the later action, so each video's first action is none's.

    The observed snippet sequence drifts linearly from the previous
    action's mean to the target action's mean (reaching it exactly at the
    last timestep), with Gaussian noise of scale ``noise_sigma``, drawn
    modality by modality in sample order. Each float32 (n, T, D) block is
    filled ``_FEATURE_CHUNK`` samples at a time, so only one chunk's
    float64 path and noise are held; a ``rng.normal`` call per chunk draws
    what one whole-block call would, in the same order.
    """
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got "
                         f"{noise_sigma}")
    rng = np.random.default_rng(seed)
    lam = np.linspace(0.0, 1.0, protocol.total_steps)[:, None]
    previous, targets = walks[:, :-1].ravel(), walks[:, 1:].ravel()
    blocks = []
    for means in grammar.class_means:
        block = np.empty((targets.size, lam.size, means.shape[1]), np.float32)
        for start in range(0, targets.size, _FEATURE_CHUNK):
            rows = slice(start, start + _FEATURE_CHUNK)
            path = (1.0 - lam) * means[previous[rows]][:, None]
            path += lam * means[targets[rows]][:, None]
            if noise_sigma > 0:
                path += rng.normal(scale=noise_sigma, size=path.shape)
            block[rows] = path
        blocks.append(block)
    return FeatureSet(dims=tuple(d for _, d in grammar.config.modalities),
                      features=tuple(blocks), targets=targets)


def gen_synthetic_embeddings(grammar: SyntheticGrammar, d: int,
                             cohort_similarity: float, seed: int) -> EmbeddingTable:
    """Token embeddings with controlled pairwise cosine.

    Within the verb set and within the noun set, pairwise cosine is
    ``cohort_similarity`` (exact when d is large enough for an orthonormal
    construction, approximate otherwise); verb and noun directions are
    unrelated. With similarity 0 and ample d, distinct tokens are
    (near-)orthogonal.
    """
    if not (0.0 <= cohort_similarity <= 1.0):
        raise ValueError("cohort_similarity must be in [0, 1]")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = grammar.vocab
    needed = len(vocab.verbs) + len(vocab.nouns) + 2
    if d >= needed:
        basis, _ = np.linalg.qr(rng.normal(size=(d, needed)))
        columns = iter(basis.T)
    else:
        raw = rng.normal(size=(needed, d))
        columns = iter(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    vectors: dict[str, np.ndarray] = {}
    s = cohort_similarity
    for tokens in (vocab.verbs, vocab.nouns):
        shared = next(columns)
        for token in tokens:
            own = next(columns)
            vec = np.sqrt(s) * shared + np.sqrt(1.0 - s) * own
            vectors[token] = vec / np.linalg.norm(vec)
    return EmbeddingTable(d, vectors)


def _record_dtype(dims, timesteps: int) -> np.dtype:
    """One sample on disk, packed: a u32 target, then each modality's
    (T, D) float32 block."""
    return np.dtype([("target", "<u4")] + [(f"m{m}", "<f4", (timesteps, d))
                                            for m, d in enumerate(dims)])


def write_features(feature_set: FeatureSet, sink: str | Path) -> None:
    """Write the binary feature format to the file at ``sink``.

    Layout: magic ``FEAT``, version u32, num_samples u32, num_modalities
    u32, per-modality dims u32, timesteps u32, then per sample a target
    u32 followed by each modality's (T, D) float32 block, little-endian,
    timestep-major.
    """
    targets = feature_set.targets
    if targets.size and not (0 <= targets.min() and targets.max() <= 0xFFFFFFFF):
        raise ValueError("a target does not fit in u32")
    dims = feature_set.dims
    records = np.empty(feature_set.num_samples,
                       _record_dtype(dims, feature_set.timesteps))
    records["target"] = targets
    for m, block in enumerate(feature_set.features):
        records[f"m{m}"] = block
    header = struct.pack(f"<4sIII{len(dims)}II", FEATURE_MAGIC, FEATURE_VERSION,
                         feature_set.num_samples, len(dims), *dims,
                         feature_set.timesteps)
    with open(sink, "wb") as out:
        out.write(header)
        out.write(records.data)


def read_features(source: str | Path) -> FeatureSet:
    """Inverse of :func:`write_features`: the file at ``source``. The
    payload size the header implies is checked against the data before
    anything is allocated; every FormatError names the file."""
    data = Path(source).read_bytes()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{source}: bad feature-file magic {data[:4]!r}")
    if len(data) < 16:
        raise FormatError(f"{source}: truncated feature-file header")
    version, n, num_modalities = struct.unpack_from("<III", data, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{source}: unsupported feature-file version "
                          f"{version}")
    offset = 16 + 4 * (num_modalities + 1)
    if len(data) < offset:
        raise FormatError(f"{source}: truncated feature-file header")
    *dims, timesteps = struct.unpack_from(f"<{num_modalities + 1}I", data, 16)
    size = offset + n * (4 + 4 * timesteps * sum(dims))
    if len(data) < size:
        raise FormatError(f"{source}: truncated feature file: {len(data)} "
                          f"bytes, the header implies {size}")
    if len(data) > size:
        raise FormatError(f"{source}: {len(data) - size} trailing bytes in "
                          f"feature file")
    try:
        dtype = _record_dtype(dims, timesteps)
    except ValueError as exc:
        raise FormatError(f"{source}: unsupported feature-file shape: "
                          f"{exc}") from None
    records = np.frombuffer(data, dtype, count=n, offset=offset)
    return FeatureSet(dims=tuple(dims),
                      features=tuple(records[f"m{m}"].copy()
                                     for m in range(num_modalities)),
                      targets=records["target"])
