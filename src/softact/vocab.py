"""Annotation parsing and verb-noun action vocabularies.

An action is a (verb, noun) pair. The vocabulary holds dense integer ids
for verbs, nouns and actions, and exposes the action table as two arrays,
``verb_of`` and ``noun_of`` (action id -> verb id, noun id), from which the
structured priors and the verb and noun scores are built.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParseError, csv_records
from .jsonconfig import config_from_json

ANNOTATION_HEADER = ("video_id", "start_s", "verb", "noun")


def normalize_token(token: str) -> str:
    """Lowercase and trim a verb/noun token. Internal punctuation is kept."""
    return token.strip().lower()


def parse_annotations(text: str, vocab: ActionVocab) -> np.ndarray:
    """The (n, 2) int64 (previous, next) action ids of annotation CSV text:
    consecutive rows within each video, never across videos.

    Expected header: ``video_id,start_s,verb,noun``. Each row's action is
    looked up in ``vocab`` (tokens normalized) as it is read. Videos come
    in order of first appearance, each sorted stably by start time; with
    no pairs the shape is (0, 2). A malformed row (not 4 columns, an empty
    video id or token, a start time that is not finite and >= 0, an
    unknown action), a CSV error and a body without rows are each a
    ParseError naming the line.
    """
    records = csv_records(text)
    _, header = next(records, (1, None))
    if header is None:
        raise ParseError("line 1: missing header")
    if tuple(h.strip() for h in header) != ANNOTATION_HEADER:
        raise ParseError(
            f"line 1: expected header {','.join(ANNOTATION_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    first_seen: dict[str, int] = {}
    videos, starts, actions = [], [], []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"line {lineno}: expected 4 columns, got {len(row)}")
        video_id, start_s, verb, noun = (field.strip() for field in row)
        try:
            start = float(start_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric start_s {start_s!r}") from None
        if not (video_id and verb and noun):
            raise ParseError(f"line {lineno}: video_id, verb and noun must be "
                             f"non-empty")
        if not 0 <= start < np.inf:
            raise ParseError(f"line {lineno}: start_time must be finite and "
                             f">= 0, got {start}")
        try:
            actions.append(vocab.action_id(verb, noun))
        except KeyError:
            raise ParseError(
                f"line {lineno}: unknown action ({normalize_token(verb)!r}, "
                f"{normalize_token(noun)!r}) in video {video_id!r}"
            ) from None
        videos.append(first_seen.setdefault(video_id, len(first_seen)))
        starts.append(start)
    if not actions:
        raise ParseError("no annotation rows (header only)")
    order = np.lexsort((starts, videos))
    ids = np.array(actions, dtype=np.int64)[order]
    same = np.diff(np.array(videos)[order]) == 0
    return np.stack([ids[:-1][same], ids[1:][same]], axis=1)


def format_annotations(walks: np.ndarray, vocab: ActionVocab) -> str:
    """The annotation CSV of (num_videos, length) action-id walks, which
    :func:`parse_annotations` reads: video v is ``synth%04d``, and its
    step t starts at t seconds."""
    tokens = [(vocab.verbs[v], vocab.nouns[n]) for v, n in vocab.actions]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ANNOTATION_HEADER)
    for v, walk in enumerate(walks.tolist()):
        writer.writerows((f"synth{v:04d}", f"{t:g}", *tokens[k])
                         for t, k in enumerate(walk))
    return out.getvalue()


@dataclass(frozen=True)
class ActionVocab:
    """Dense id spaces for verbs, nouns and (verb, noun) actions.

    ``actions[k]`` is the (verb_id, noun_id) pair of action k. Its columns
    are also kept as read-only int64 arrays of shape (K,), ``verb_of`` and
    ``noun_of``, so a per-action map is one gather; being derived, they
    take no part in ``==`` or ``hash``. Tokens must be normalized (see
    :func:`normalize_token`), since :meth:`action_id` normalizes its query.
    """

    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    actions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.verbs or not self.nouns or not self.actions:
            raise ValueError("vocabulary must contain at least one verb, noun, and action")
        if len(set(self.verbs)) != len(self.verbs):
            raise ValueError("duplicate verb tokens")
        if len(set(self.nouns)) != len(self.nouns):
            raise ValueError("duplicate noun tokens")
        for token in self.verbs + self.nouns:
            if not token or normalize_token(token) != token:
                raise ValueError(f"token {token!r} is empty or not normalized "
                                 f"(lowercase, trimmed)")
        ids: dict[tuple[str, str], int] = {}
        for k, (v, n) in enumerate(self.actions):
            if not (0 <= v < len(self.verbs) and 0 <= n < len(self.nouns)):
                raise ValueError(f"action {k} has out-of-range verb/noun id ({v}, {n})")
            key = (self.verbs[v], self.nouns[n])
            if ids.setdefault(key, k) != k:
                raise ValueError(f"duplicate action ({key[0]}, {key[1]})")
        columns = np.array(self.actions, dtype=np.int64).T.copy()
        columns.setflags(write=False)
        object.__setattr__(self, "verb_of", columns[0])
        object.__setattr__(self, "noun_of", columns[1])
        object.__setattr__(self, "_ids", ids)

    @property
    def K(self) -> int:
        return len(self.actions)

    def action_id(self, verb: str, noun: str) -> int:
        """Id of the action with the given (normalized) tokens; KeyError if absent."""
        return self._ids[normalize_token(verb), normalize_token(noun)]

    def to_json(self) -> str:
        doc = {
            "verbs": list(self.verbs),
            "nouns": list(self.nouns),
            "actions": [list(a) for a in self.actions],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str, where: str = "vocabulary") -> "ActionVocab":
        """Inverse of :meth:`to_json`, by the typed rules of
        :func:`config_from_json` (verbs and nouns are lists of strings, each
        action a list of two JSON integers); anything else is a FormatError
        beginning with ``where``, the file the text came from."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}: invalid JSON ({exc})") from None
        return config_from_json(cls, doc, where)

    def content_hash(self) -> str:
        """sha256 of the canonical JSON form, used in prior sidecars."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()
