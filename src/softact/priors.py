"""Row-stochastic prior matrices used to smooth one-hot action labels.

Four builders are provided, all returning a K x K :class:`PriorMatrix`
whose row k is the prior distribution paired with ground-truth class k:

* uniform      -- every entry 1/K;
* verb_noun    -- equal mass on the actions sharing the row's verb or noun;
* glove        -- normalized absolute dot products of word-embedding
                  action representations;
* temporal     -- normalized predecessor counts from consecutive actions
                  observed within videos.

Mixtures are weighted row-wise averages of compatible priors.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, read_text
from .vocab import ActionVocab

ROW_SUM_TOL = 1e-12

# Library kind -> (CLI spelling, default alpha); the alphas worked best per
# prior in the reference runs. build_prior turns a kind into its matrix.
KINDS = {
    "onehot": ("onehot", 0.0),
    "uniform": ("uniform", 0.1),
    "verb_noun": ("vn", 0.45),
    "glove": ("glove", 0.6),
    "temporal": ("temporal", 0.6),
    "glove+verb_noun": ("mix", 0.5),
}

_WORD_SPLIT = re.compile(r"[^a-zA-Z]+")


@dataclass(frozen=True)
class PriorMatrix:
    """K x K row-stochastic matrix; row k is the prior for class k."""

    rows: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"prior must be square, got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise ValueError("prior needs at least one class")
        if not np.all(np.isfinite(rows)):
            raise ValueError("prior entries must be finite")
        if np.any(rows < 0):
            raise ValueError("prior entries must be non-negative")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(f"prior row {k} sums to {sums[k]!r}, not 1")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def K(self) -> int:
        return self.rows.shape[0]

    def row(self, k: int) -> np.ndarray:
        return self.rows[k]


def build_uniform_prior(K: int) -> PriorMatrix:
    """Constant prior: every row is the uniform distribution over K classes."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return PriorMatrix(np.full((K, K), 1.0 / K), kind="uniform")


def build_verb_noun_prior(vocab: ActionVocab) -> PriorMatrix:
    """Equal mass 1/C_k on every action sharing row k's verb or noun.

    C_k = |verb cohort| + |noun cohort| - 1; the row's own action is the
    single member of both cohorts, so the support size is exactly C_k and
    each row sums to 1 by construction.
    """
    verb_of, noun_of = vocab.verb_of, vocab.noun_of
    support = (verb_of[:, None] == verb_of) | (noun_of[:, None] == noun_of)
    return PriorMatrix(support / support.sum(axis=1, keepdims=True),
                       kind="verb_noun")


@dataclass(frozen=True)
class EmbeddingTable:
    """Word -> vector map with a fixed dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        for word, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise ValueError(
                    f"vector for {word!r} has shape {vec.shape}, "
                    f"expected ({self.dimension},)"
                )


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a plain-text embedding file: one ``word v1 ... vd`` line per
    word, d from the first non-blank line. Later duplicates overwrite
    earlier entries. An empty file, a line without d values or a
    non-numeric value raises ParseError naming the file and line."""
    dimension = 0
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if not dimension:
            dimension = len(parts) - 1
            if not dimension:
                raise ParseError(f"{path}: line {lineno}: no embedding "
                                 f"values after the word")
        if len(parts) != dimension + 1:
            raise ParseError(
                f"{path}: line {lineno}: expected {dimension} values after "
                f"the word, got {len(parts) - 1}"
            )
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric embedding "
                             f"value") from None
        vectors[parts[0]] = vec
    if not dimension:
        raise ParseError(f"{path}: empty embedding file")
    return EmbeddingTable(dimension, vectors)


def _embed_token(token: str, table: EmbeddingTable) -> np.ndarray:
    """Mean of the embeddings of the token's alphabetic words.

    Multi-word tokens (``pumpkin:seeds``) are split on non-alphabetic
    characters; words missing from the table are skipped; a token with no
    known words maps to the zero vector.
    """
    words = [w for w in _WORD_SPLIT.split(token) if w]
    found = [table.vectors[w] for w in words if w in table.vectors]
    if not found:
        return np.zeros(table.dimension)
    return np.mean(found, axis=0)


def action_embedding_matrix(vocab: ActionVocab, table: EmbeddingTable) -> np.ndarray:
    """(K, 2d) matrix; row k is action k's verb embedding concatenated
    with its noun embedding."""
    verb_vecs = np.array([_embed_token(t, table) for t in vocab.verbs])
    noun_vecs = np.array([_embed_token(t, table) for t in vocab.nouns])
    return np.concatenate([verb_vecs[vocab.verb_of], noun_vecs[vocab.noun_of]],
                          axis=1)


def build_glove_prior(vocab: ActionVocab, table: EmbeddingTable) -> PriorMatrix:
    """Row k entry i = |phi_k . phi_i| / sum_j |phi_k . phi_j|.

    Raw (unnormalized) dot products of the concatenated embeddings; a row
    whose denominator is zero (the action embedded as the zero vector)
    falls back to uniform.
    """
    phi = action_embedding_matrix(vocab, table)
    sims = np.abs(phi @ phi.T)
    return _normalize_rows(sims, vocab.K, kind="glove")


def build_temporal_prior(pairs, vocab: ActionVocab) -> PriorMatrix:
    """Row k entry i = #(i -> k) / #(any -> k) over the (n, 2) (previous,
    next) action-id pairs, such as :func:`parse_annotations` reads.

    Row k is the predecessor distribution of action k; actions never seen
    as a successor get a uniform row.
    """
    K = vocab.K
    ids = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if ids.size and (ids.min() < 0 or ids.max() >= K):
        raise ValueError(f"transition pair action id outside [0, {K})")
    preceder = np.zeros((K, K))
    np.add.at(preceder, (ids[:, 1], ids[:, 0]), 1.0)
    return _normalize_rows(preceder, K, kind="temporal")


def _normalize_rows(weights: np.ndarray, K: int, kind: str) -> PriorMatrix:
    rows = np.array(weights, dtype=np.float64)
    denom = rows.sum(axis=1)
    zero = denom == 0.0
    rows[zero] = 1.0 / K
    denom[zero] = 1.0
    rows /= denom[:, None]
    return PriorMatrix(rows, kind=kind)


def mix_priors(priors: list[PriorMatrix], weights: list[float]) -> PriorMatrix:
    """Weighted row-wise average; weights are normalized to sum to 1."""
    if not priors:
        raise ValueError("need at least one prior to mix")
    if len(priors) != len(weights):
        raise ValueError(f"{len(priors)} priors but {len(weights)} weights")
    K = priors[0].K
    for p in priors[1:]:
        if p.K != K:
            raise ValueError(f"mismatched class counts: {K} vs {p.K}")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    w = w / total
    rows = np.zeros((K, K))
    for weight, p in zip(w, priors):
        rows += weight * p.rows
    kind = "+".join(p.kind for p in priors)
    return PriorMatrix(rows, kind=kind)


def build_prior(kind: str, vocab: ActionVocab,
                embeddings: EmbeddingTable | None = None,
                pairs=None) -> PriorMatrix | None:
    """The prior a library kind names (see :data:`KINDS`); onehot has none.

    ``glove`` and ``glove+verb_noun`` need the word ``embeddings``;
    ``temporal`` needs the (previous, next) action-id ``pairs``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown prior kind {kind!r}; "
                         f"expected one of {tuple(KINDS)}")
    if kind in ("glove", "glove+verb_noun") and embeddings is None:
        raise ValueError(f"the {kind} prior needs word embeddings")
    if kind == "temporal" and pairs is None:
        raise ValueError("the temporal prior needs transition pairs")
    if kind == "onehot":
        return None
    if kind == "uniform":
        return build_uniform_prior(vocab.K)
    if kind == "verb_noun":
        return build_verb_noun_prior(vocab)
    if kind == "glove":
        return build_glove_prior(vocab, embeddings)
    if kind == "temporal":
        return build_temporal_prior(pairs, vocab)
    return mix_priors([build_glove_prior(vocab, embeddings),
                       build_verb_noun_prior(vocab)], [0.5, 0.5])


def save_prior(prior: PriorMatrix, path: str | Path,
               vocab_hash: str | None = None) -> None:
    """Write the matrix as CSV (17 significant digits) plus a JSON sidecar
    recording the prior kind and the vocab hash it was built against.

    The text is that of a per-entry ``f"{x:.17g}"``. Verb-noun, temporal
    and mixed priors repeat a few values per row, so each row formats its
    distinct values once, told apart by bit pattern (``0.0``/``-0.0`` and
    subnormals keep their own text), and gathers their texts into column
    order; a row of K distinct values is formatted whole. Each format is
    one ``%`` call on a template, not a Python-level step per entry, and
    each row is written as it is formatted."""
    path = Path(path)
    row_format = ",".join(["%.17g"] * prior.K) + "\n"
    with path.open("w") as out:
        for row in prior.rows:
            bits = row.view(np.uint64)
            ordered = np.sort(bits)
            first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
            distinct = ordered[first]
            if distinct.size == prior.K:
                out.write(row_format % tuple(row))
                continue
            values = distinct.view(np.float64)
            texts = (",".join(["%.17g"] * values.size) % tuple(values)).split(",")
            column_texts = np.array(texts, dtype=object)[
                np.searchsorted(distinct, bits)]
            out.write(",".join(column_texts.tolist()) + "\n")
    sidecar = {"kind": prior.kind, "K": prior.K, "vocab_hash": vocab_hash}
    path.with_suffix(".json").write_text(json.dumps(sidecar))


def load_prior(path: str | Path) -> PriorMatrix:
    """Read a prior CSV written by :func:`save_prior` (sidecar optional)
    into one (K, K) array, K from the first non-blank line. A malformed
    line, or a matrix that is not square or not a prior (a non-finite or
    negative entry, a row not summing to 1), is a ParseError naming it."""
    path = Path(path)
    K = n = 0
    with path.open("rb") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            fields = line.split(b",")
            if not K:
                K = len(fields)
                # K rows of K entries and K-1 commas need K * (2K - 1)
                # bytes; a smaller file gets one row, to check its lines.
                fits = path.stat().st_size >= K * (2 * K - 1)
                rows = np.empty((K if fits else 1, K))
            if len(fields) != K:
                raise ParseError(f"{path}: line {lineno}: expected {K} "
                                 f"columns, got {len(fields)}")
            try:
                rows[min(n, len(rows) - 1)] = fields
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric prior "
                                 f"entry") from None
            n += 1
    if not K or n != K or len(rows) != K:
        raise ParseError(f"{path}: prior CSV is not square: {n} rows of {K} "
                         f"columns")
    kind = "custom"
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            doc = json.loads(read_text(sidecar))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{sidecar}: invalid JSON ({exc})") from None
        kind = doc.get("kind", kind) if isinstance(doc, dict) else None
        if not isinstance(kind, str):
            raise ParseError(f"{sidecar}: not a prior sidecar (an object "
                             f"whose 'kind' is a string)")
    try:
        return PriorMatrix(rows, kind=kind)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
