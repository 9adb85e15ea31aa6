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

from .errors import FormatError, ParseError
from .jsonconfig import config_from_json

ANNOTATION_HEADER = ("video_id", "start_s", "verb", "noun")


def normalize_token(token: str) -> str:
    """Lowercase and trim a verb/noun token. Internal punctuation is kept."""
    return token.strip().lower()


@dataclass(frozen=True)
class ActionInstance:
    """One annotated action occurrence in a video."""

    video_id: str
    start_time: float
    verb: str
    noun: str

    def __post_init__(self):
        if not self.video_id.strip():
            raise ValueError("video_id must be non-empty")
        if not self.verb.strip() or not self.noun.strip():
            raise ValueError("verb and noun must be non-empty")
        if not 0 <= self.start_time < np.inf:
            raise ValueError(f"start_time must be finite and >= 0, got "
                             f"{self.start_time}")


@dataclass(frozen=True)
class AnnotationSet:
    """Instances grouped by video (first-appearance order) and sorted by
    start time within each video."""

    instances: tuple[ActionInstance, ...]

    @classmethod
    def from_instances(cls, instances) -> "AnnotationSet":
        """Group and sort arbitrary instances into a valid AnnotationSet."""
        by_video: dict[str, list[ActionInstance]] = {}
        for inst in instances:
            by_video.setdefault(inst.video_id, []).append(inst)
        ordered: list[ActionInstance] = []
        for video in by_video.values():
            ordered.extend(sorted(video, key=lambda i: i.start_time))
        return cls(tuple(ordered))

    def __post_init__(self):
        seen: set[str] = set()
        current = None
        prev_time = 0.0
        for inst in self.instances:
            if inst.video_id != current:
                if inst.video_id in seen:
                    raise ValueError(f"video {inst.video_id!r} is not contiguous")
                seen.add(inst.video_id)
                current = inst.video_id
            elif inst.start_time < prev_time:
                raise ValueError(
                    f"video {inst.video_id!r} instances are not sorted by start_time"
                )
            prev_time = inst.start_time

    def __len__(self) -> int:
        return len(self.instances)

    def videos(self) -> list[list[ActionInstance]]:
        """Instances split per video, in first-appearance video order."""
        groups: dict[str, list[ActionInstance]] = {}
        for inst in self.instances:
            groups.setdefault(inst.video_id, []).append(inst)
        return list(groups.values())


def parse_annotations(text: str) -> AnnotationSet:
    """Parse annotation CSV content.

    Expected header: ``video_id,start_s,verb,noun``. Tokens are normalized
    (lowercased, trimmed). Raises ParseError naming the offending line on
    malformed rows, and on an empty body.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: missing header") from None
    if tuple(h.strip() for h in header) != ANNOTATION_HEADER:
        raise ParseError(
            f"line 1: expected header {','.join(ANNOTATION_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    instances = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"line {lineno}: expected 4 columns, got {len(row)}")
        video_id, start_s, verb, noun = row
        try:
            start = float(start_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric start_s {start_s!r}") from None
        try:
            instances.append(
                ActionInstance(video_id.strip(), start, normalize_token(verb),
                               normalize_token(noun))
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not instances:
        raise ParseError("no annotation rows (header only)")
    return AnnotationSet.from_instances(instances)


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
