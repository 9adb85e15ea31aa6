"""Annotation parsing and verb-noun action vocabularies.

An action is a (verb, noun) pair. The vocabulary assigns dense integer ids
to verbs, nouns and actions in first-appearance order, and exposes the
cohort sets (all actions sharing a verb, all actions sharing a noun) that
the structured priors are built from.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

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
        if self.start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {self.start_time}")


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


def format_annotations(annotations: AnnotationSet) -> str:
    """CSV text parseable by :func:`parse_annotations`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ANNOTATION_HEADER)
    for inst in annotations.instances:
        writer.writerow([inst.video_id, f"{inst.start_time:g}",
                         inst.verb, inst.noun])
    return out.getvalue()


@dataclass(frozen=True)
class ActionVocab:
    """Dense id spaces for verbs, nouns and (verb, noun) actions.

    ``actions[k]`` is the (verb_id, noun_id) pair of action k; ids follow
    first-appearance order, so construction is deterministic.
    """

    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    actions: tuple[tuple[int, int], ...]
    action_index: dict[tuple[int, int], int] = field(init=False, repr=False,
                                                     compare=False)
    _verb_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _noun_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _verb_cohorts: tuple[frozenset[int], ...] = field(init=False, repr=False,
                                                      compare=False)
    _noun_cohorts: tuple[frozenset[int], ...] = field(init=False, repr=False,
                                                      compare=False)

    def __post_init__(self):
        if not self.verbs or not self.nouns or not self.actions:
            raise ValueError("vocabulary must contain at least one verb, noun, and action")
        if len(set(self.verbs)) != len(self.verbs):
            raise ValueError("duplicate verb tokens")
        if len(set(self.nouns)) != len(self.nouns):
            raise ValueError("duplicate noun tokens")
        if any(not t.strip() for t in self.verbs + self.nouns):
            raise ValueError("empty verb/noun token")
        index: dict[tuple[int, int], int] = {}
        verb_sets = [set() for _ in self.verbs]
        noun_sets = [set() for _ in self.nouns]
        for k, (v, n) in enumerate(self.actions):
            if not (0 <= v < len(self.verbs)) or not (0 <= n < len(self.nouns)):
                raise ValueError(f"action {k} has out-of-range verb/noun id ({v}, {n})")
            if (v, n) in index:
                raise ValueError(f"duplicate action ({self.verbs[v]}, {self.nouns[n]})")
            index[(v, n)] = k
            verb_sets[v].add(k)
            noun_sets[n].add(k)
        object.__setattr__(self, "action_index", index)
        object.__setattr__(self, "_verb_ids",
                           {v: i for i, v in enumerate(self.verbs)})
        object.__setattr__(self, "_noun_ids",
                           {n: i for i, n in enumerate(self.nouns)})
        object.__setattr__(self, "_verb_cohorts",
                           tuple(frozenset(s) for s in verb_sets))
        object.__setattr__(self, "_noun_cohorts",
                           tuple(frozenset(s) for s in noun_sets))

    @property
    def K(self) -> int:
        return len(self.actions)

    def action_id(self, verb: str, noun: str) -> int:
        """Id of the action with the given (normalized) tokens; KeyError if absent."""
        key = (self._verb_ids[normalize_token(verb)],
               self._noun_ids[normalize_token(noun)])
        return self.action_index[key]

    def verb_cohort(self, verb_id: int) -> frozenset[int]:
        """All action ids whose verb is ``verb_id``."""
        if not (0 <= verb_id < len(self.verbs)):
            raise IndexError(f"verb_id {verb_id} out of range (|verbs|={len(self.verbs)})")
        return self._verb_cohorts[verb_id]

    def noun_cohort(self, noun_id: int) -> frozenset[int]:
        """All action ids whose noun is ``noun_id``."""
        if not (0 <= noun_id < len(self.nouns)):
            raise IndexError(f"noun_id {noun_id} out of range (|nouns|={len(self.nouns)})")
        return self._noun_cohorts[noun_id]

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


def build_vocab(annotations: AnnotationSet) -> ActionVocab:
    """Build the vocabulary from annotations, first-appearance ordering."""
    if len(annotations) == 0:
        raise ValueError("cannot build a vocabulary from an empty annotation set")
    verbs: list[str] = []
    nouns: list[str] = []
    verb_ids: dict[str, int] = {}
    noun_ids: dict[str, int] = {}
    actions: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for inst in annotations.instances:
        if inst.verb not in verb_ids:
            verb_ids[inst.verb] = len(verbs)
            verbs.append(inst.verb)
        if inst.noun not in noun_ids:
            noun_ids[inst.noun] = len(nouns)
            nouns.append(inst.noun)
        pair = (verb_ids[inst.verb], noun_ids[inst.noun])
        if pair not in seen:
            seen.add(pair)
            actions.append(pair)
    return ActionVocab(tuple(verbs), tuple(nouns), tuple(actions))
