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
from .priors import EmbeddingTable, transition_pairs
from .seqmodel import ProtocolConfig
from .vocab import ActionInstance, ActionVocab, AnnotationSet

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1


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
        if not (0.0 <= self.sigma_within < self.sigma_between):
            raise ValueError("need 0 <= sigma_within < sigma_between")
        if self.markov_concentration <= 0:
            raise ValueError("markov_concentration must be positive")

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
    are malformed, list other ``modalities``, store another vocabulary than
    ``vocab`` or do not draw ``vocab`` (another seed or grid, or a numpy
    whose random stream changed)."""
    config = config_from_json(GrammarConfig, doc, where,
                              ignore=("vocab", "transition", "class_means"))
    if config.modalities != tuple(modalities):
        raise FormatError(f"{where}: modalities {list(config.modalities)} "
                          f"differ from the bundle's {list(modalities)}")
    try:
        if config_from_json(ActionVocab, doc.get("vocab"), "'vocab'") != vocab:
            raise ValueError("its vocab differs from vocab.json")
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
        mk = np.empty((K, dim))
        for k, (v, n) in enumerate(vocab.actions):
            mk[k] = config.sigma_between * (verb_anchor[v] + noun_anchor[n]) \
                + config.sigma_within * jitter[k]
        means.append(mk)
    return SyntheticGrammar(config=config, vocab=vocab, transition=transition,
                            class_means=tuple(means))


def gen_annotation_sequences(grammar: SyntheticGrammar, num_videos: int,
                             length: int, seed: int) -> AnnotationSet:
    """Markov walks over the grammar's chain; one annotation per second."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    K = grammar.K
    vocab = grammar.vocab
    instances = []
    for vid in range(num_videos):
        video_id = f"synth{vid:04d}"
        state = int(rng.integers(K))
        for step in range(length):
            v, n = vocab.actions[state]
            instances.append(ActionInstance(video_id, float(step),
                                            vocab.verbs[v], vocab.nouns[n]))
            if step + 1 < length:
                state = int(rng.choice(K, p=grammar.transition[state]))
    return AnnotationSet(tuple(instances))


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


def gen_features(grammar: SyntheticGrammar, annotations: AnnotationSet,
                 protocol: ProtocolConfig, noise_sigma: float,
                 seed: int) -> FeatureSet:
    """One sample per annotated action except each video's first.

    The observed snippet sequence drifts linearly from the previous
    action's mean to the target action's mean (reaching it exactly at the
    last timestep), with Gaussian noise of scale ``noise_sigma``.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    vocab = grammar.vocab
    T = protocol.total_steps
    lam = np.linspace(0.0, 1.0, T)[:, None]

    pairs = transition_pairs(annotations, vocab)
    targets = np.array([tgt for _, tgt in pairs], dtype=np.int64)
    blocks = []
    for means in grammar.class_means:
        dim = means.shape[1]
        block = np.empty((len(pairs), T, dim), dtype=np.float32)
        for i, (prev, tgt) in enumerate(pairs):
            path = (1.0 - lam) * means[prev] + lam * means[tgt]
            noise = rng.normal(scale=noise_sigma, size=(T, dim)) \
                if noise_sigma > 0 else 0.0
            block[i] = (path + noise).astype(np.float32)
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


def write_features(feature_set: FeatureSet, sink) -> None:
    """Serialize to the binary feature format.

    Layout: magic ``FEAT``, version u32, num_samples u32, num_modalities
    u32, per-modality dims u32, timesteps u32, then per sample a target
    u32 followed by each modality's (T, D) float32 block, little-endian,
    timestep-major.
    """
    targets = feature_set.targets
    if targets.size and not (0 <= targets.min() and targets.max() <= 0xFFFFFFFF):
        raise ValueError("a target does not fit in u32")
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as f:
            return write_features(feature_set, f)
    dims = feature_set.dims
    records = np.empty(feature_set.num_samples,
                       _record_dtype(dims, feature_set.timesteps))
    records["target"] = targets
    for m, block in enumerate(feature_set.features):
        records[f"m{m}"] = block
    header = struct.pack(f"<4sIII{len(dims)}II", FEATURE_MAGIC, FEATURE_VERSION,
                         feature_set.num_samples, len(dims), *dims,
                         feature_set.timesteps)
    sink.write(header)
    sink.write(records.data)


def read_features(source) -> FeatureSet:
    """Inverse of :func:`write_features`. The payload size the header
    implies is checked against the data before anything is allocated."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"bad feature-file magic {data[:4]!r}")
    if len(data) < 16:
        raise FormatError("truncated feature-file header")
    version, n, num_modalities = struct.unpack_from("<III", data, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"unsupported feature-file version {version}")
    offset = 16 + 4 * (num_modalities + 1)
    if len(data) < offset:
        raise FormatError("truncated feature-file header")
    *dims, timesteps = struct.unpack_from(f"<{num_modalities + 1}I", data, 16)
    size = offset + n * (4 + 4 * timesteps * sum(dims))
    if len(data) < size:
        raise FormatError(f"truncated feature file: {len(data)} bytes, the "
                          f"header implies {size}")
    if len(data) > size:
        raise FormatError(f"{len(data) - size} trailing bytes in feature file")
    try:
        dtype = _record_dtype(dims, timesteps)
    except ValueError as exc:
        raise FormatError(f"unsupported feature-file shape: {exc}") from None
    records = np.frombuffer(data, dtype, count=n, offset=offset)
    return FeatureSet(dims=tuple(dims),
                      features=tuple(records[f"m{m}"].copy()
                                     for m in range(num_modalities)),
                      targets=records["target"])
