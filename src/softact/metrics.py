"""Evaluation: top-k accuracy per anticipation time, macro class
precision/recall on many-shot classes, and multi-trial aggregation.

Every report cell folds exact integer counts (top-1/top-5 hits, and the
tp/fp/fn of each many-shot class), which a :class:`Scorer` adds up chunk by
chunk as predictions leave the model, so no whole-split probability array
is needed. Top-k membership uses the same deterministic ordering as prediction
(descending probability, ties to the lower class id). Verb and noun
metrics are computed on the action distribution marginalized over cohorts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParseError, csv_records
from .seqmodel import ProtocolConfig, _in_threads, _scoring_threads
from .vocab import ActionVocab

PRIMARY_METRIC = "action_top5"
# Rows a Scorer counts at once, and the chunk size of evaluation; a chunk's
# (SCORE_BLOCK, S, K) float64 forward is scoring's largest array.
SCORE_BLOCK = 256
# A block of fewer (row x class) scores than this is counted on the
# caller's thread (see Scorer._add_block).
_SPLIT_MIN_SCORES = 32768

_TASKS = ("action", "verb", "noun")


def _label_ranks(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per sample, how many classes come before the label in
    descending-probability order with ties to the lower id; the label is
    a top-k hit when its rank is below k."""
    label_p = probs[np.arange(probs.shape[0]), labels][:, None]
    ranks = np.count_nonzero(probs > label_p, axis=1)
    # the tie-break runs only on rows where another class equals the label
    tied = np.flatnonzero(np.count_nonzero(probs == label_p, axis=1) > 1)
    if tied.size:
        lower = np.arange(probs.shape[1]) < labels[tied, None]
        ranks[tied] += np.count_nonzero(
            (probs[tied] == label_p[tied]) & lower, axis=1)
    return ranks


def _class_counts(preds: np.ndarray, labels: np.ndarray,
                  classes: np.ndarray) -> np.ndarray:
    """(C, 3) true positives, false positives and false negatives of each
    id in the sorted array ``classes``."""
    last = classes.shape[0] - 1

    def per_class(ids):
        pos = np.minimum(np.searchsorted(classes, ids), last)
        return np.bincount(pos[classes[pos] == ids], minlength=last + 1)

    tp = per_class(preds[preds == labels])
    return np.stack([tp, per_class(preds) - tp, per_class(labels) - tp],
                    axis=1)


def percent(hits: int, n: int) -> float:
    """``hits`` of ``n`` samples as a percentage."""
    if n == 0:
        raise ValueError("cannot score an empty prediction list")
    return hits / n * 100.0


def _macro(counts: np.ndarray) -> tuple[float, float]:
    """Macro precision and recall, in percent, from (C, 3) tp/fp/fn.

    Classes never predicted contribute precision 0; classes absent from
    the labels are left out of the recall average (nan if that excludes
    every class).
    """
    precisions, recalls = [], []
    for tp, fp, fn in counts.tolist():
        precisions.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    precision = 100.0 * sum(precisions) / len(precisions)
    recall = 100.0 * sum(recalls) / len(recalls) if recalls else math.nan
    return precision, recall


def topk_accuracy(predictions, labels, k: int) -> float:
    """Percentage of samples whose label is among the top-k predictions."""
    probs = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2:
        raise ValueError(f"predictions must be (N, K), got shape {probs.shape}")
    if probs.shape[0] != labels.shape[0]:
        raise ValueError("predictions and labels have different lengths")
    if probs.shape[0] == 0:
        raise ValueError("cannot score an empty prediction list")
    if k > probs.shape[1]:
        raise ValueError(f"k={k} exceeds number of classes {probs.shape[1]}")
    return percent(topk_hit_count(probs, labels, k), probs.shape[0])


def topk_hit_count(probs: np.ndarray, labels: np.ndarray, k: int) -> int:
    """How many samples of (N, K) ``probs`` have their label in the top k."""
    return int(np.count_nonzero(_label_ranks(probs, labels) < k))


def cohort_indicator(vocab: ActionVocab) -> tuple[np.ndarray, np.ndarray]:
    """(K, |verbs|) and (K, |nouns|) 0/1 matrices mapping actions to
    their verb and noun."""
    return (np.eye(len(vocab.verbs))[vocab.verb_of],
            np.eye(len(vocab.nouns))[vocab.noun_of])


@dataclass(frozen=True)
class ManyShotSets:
    """Classes with at least ``threshold`` training occurrences, per task."""

    actions: frozenset[int]
    verbs: frozenset[int]
    nouns: frozenset[int]
    threshold: int


def many_shot_from_labels(labels, vocab: ActionVocab,
                          threshold: int) -> ManyShotSets:
    """Many-shot sets from bare action labels (e.g. a feature split)."""
    if threshold < 1:
        raise ValueError(f"many-shot threshold must be >= 1, got {threshold}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= vocab.K):
        raise ValueError("label out of range for the vocabulary")
    action_counts = np.bincount(labels, minlength=vocab.K)
    verb_counts = np.bincount(vocab.verb_of[labels], minlength=len(vocab.verbs))
    noun_counts = np.bincount(vocab.noun_of[labels], minlength=len(vocab.nouns))
    return ManyShotSets(
        actions=frozenset(np.flatnonzero(action_counts >= threshold).tolist()),
        verbs=frozenset(np.flatnonzero(verb_counts >= threshold).tolist()),
        nouns=frozenset(np.flatnonzero(noun_counts >= threshold).tolist()),
        threshold=threshold,
    )


def aggregate_trials(values) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1); std is 0 for one trial."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class MetricCell:
    mean: float
    std: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-anticipation-time metric cells aggregated over trials."""

    anticipation_times: tuple[float, ...]
    cells: dict[str, tuple[MetricCell, ...]]
    trials: int

    def metric_names(self) -> list[str]:
        return list(self.cells.keys())

    def cell(self, metric: str, step: int) -> MetricCell:
        return self.cells[metric][step]


@dataclass(eq=False)
class HitCounts:
    """One trial's scores as exact integers, from which every report cell
    follows.

    ``hits`` is (3, 2, decode_steps): top-1 and top-5 hits of the action,
    verb and noun tasks at each step. ``confusion`` maps each task that has
    many-shot classes to (decode_steps, C, 3): tp, fp and fn of its C
    classes in sorted order. Counts of disjoint sample chunks add up, so a
    trial can be counted chunk by chunk.
    """

    many_shot: ManyShotSets | None
    samples: int
    hits: np.ndarray
    confusion: dict[str, np.ndarray]

    def metric_values(self) -> dict[str, list[float]]:
        """Each metric's percentage at every decode step, in report column
        order."""
        values: dict[str, list[float]] = {}
        for task, (top1, top5) in zip(_TASKS, self.hits.tolist()):
            values[f"{task}_top1"] = [percent(h, self.samples) for h in top1]
            values[f"{task}_top5"] = [percent(h, self.samples) for h in top5]
            if task in self.confusion:
                cells = [_macro(c) for c in self.confusion[task]]
                values[f"{task}_precision"] = [p for p, _ in cells]
                values[f"{task}_recall"] = [r for _, r in cells]
        return values


class Scorer:
    """Counts one trial's predictions into :class:`HitCounts` as they come.

    Call :meth:`add` with each (n, decode_steps, K) chunk of probabilities
    and its n action labels, then read :attr:`counts`. Verb and noun
    scores use the action distribution marginalized over cohorts, and the
    many-shot sets, if given, add tp/fp/fn of each task's top-1.

    A chunk is counted in blocks of ``SCORE_BLOCK`` rows (cohort marginals
    and (rows, K) rank masks), so no temporary grows with n. The marginals
    are one GEMM per block, whose last bits depend on its row count (BLAS
    takes other kernels for a few rows), so a whole split and the same
    split in ``SCORE_BLOCK``-row chunks give the same counts.
    """

    def __init__(self, decode_steps: int, vocab: ActionVocab,
                 many_shot: ManyShotSets | None = None):
        mv, mn = cohort_indicator(vocab)
        self.K = vocab.K
        # per task: (cohort matrix, label map), None for the action task
        self._cohorts = (
            (None, None),
            (mv, vocab.verb_of),
            (mn, vocab.noun_of),
        )
        self._classes = {}
        if many_shot is not None:
            for task in _TASKS:
                ids = getattr(many_shot, task + "s")
                if ids:
                    self._classes[task] = np.array(sorted(ids),
                                                   dtype=np.int64)
        self.counts = HitCounts(
            many_shot=many_shot, samples=0,
            hits=np.zeros((len(_TASKS), 2, decode_steps), dtype=np.int64),
            confusion={task: np.zeros((decode_steps, len(ids), 3),
                                      dtype=np.int64)
                       for task, ids in self._classes.items()})

    def add(self, probs, labels) -> None:
        """Count a (n, decode_steps, K) chunk of probabilities and its n
        labels."""
        probs = np.asarray(probs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        S = self.counts.hits.shape[2]
        if probs.ndim != 3 or probs.shape[1:] != (S, self.K):
            raise ValueError(f"probs shape {probs.shape}, expected "
                             f"(N, {S}, {self.K})")
        if labels.shape != probs.shape[:1]:
            raise ValueError("predictions and labels have different lengths")
        if labels.size and (labels.min() < 0 or labels.max() >= self.K):
            raise ValueError(f"a label is outside [0, {self.K})")
        for start in range(0, labels.shape[0], SCORE_BLOCK):
            self._add_block(probs[start:start + SCORE_BLOCK],
                            labels[start:start + SCORE_BLOCK])
        self.counts.samples += labels.shape[0]

    def _add_block(self, probs: np.ndarray, labels: np.ndarray) -> None:
        """Count a block's (task, step) cells, split across
        :func:`_scoring_threads` from ``_SPLIT_MIN_SCORES`` scores on. Each
        cell's counts are written by one thread alone."""
        hits, confusion = self.counts.hits, self.counts.confusion
        S = probs.shape[1]
        ys = [labels if task_of is None else task_of[labels]
              for _, task_of in self._cohorts]
        parts = (_scoring_threads() if labels.size * self.K
                 >= _SPLIT_MIN_SCORES else 1)

        def count(first):
            for cell in range(first, cells, parts):
                t, s = divmod(cell, S)
                cohort, y = self._cohorts[t][0], ys[t]
                classes = self._classes.get(_TASKS[t])
                p = probs[:, s, :]
                if cohort is not None:
                    p = p @ cohort
                ranks = _label_ranks(p, y)
                hits[t, 0, s] += np.count_nonzero(ranks < 1)
                hits[t, 1, s] += np.count_nonzero(ranks < min(5, p.shape[1]))
                if classes is not None:
                    confusion[_TASKS[t]][s] += _class_counts(
                        p.argmax(axis=1), y, classes)

        cells = len(_TASKS) * S
        _in_threads([partial(count, j) for j in range(min(parts, cells))])


def build_report(trial_evals, protocol: ProtocolConfig, vocab: ActionVocab,
                 many_shot: ManyShotSets | None = None) -> MetricsReport:
    """Aggregate per-trial scores into a mean +/- std report.

    Each item of ``trial_evals`` is one trial: its :class:`HitCounts` from
    a :class:`Scorer` given the same ``many_shot``, or a (probs, labels)
    pair with probs shaped (N, decode_steps, K), counted here.
    Precision/recall cells are included only when ``many_shot`` is given,
    restricted to its sets.
    """
    if not trial_evals:
        raise ValueError("need at least one trial")
    S = protocol.decode_steps
    per_trial = []
    for trial, item in enumerate(trial_evals):
        if isinstance(item, HitCounts):
            counts = item
            if counts.hits.shape[2] != S or counts.many_shot != many_shot:
                raise ValueError(f"trial {trial}: counted for another "
                                 f"protocol or many-shot set")
        else:
            scorer = Scorer(S, vocab, many_shot)
            try:
                scorer.add(*item)
            except ValueError as exc:
                raise ValueError(f"trial {trial}: {exc}") from None
            counts = scorer.counts
        per_trial.append(counts.metric_values())
    cells = {
        name: tuple(MetricCell(*aggregate_trials([v[name][s]
                                                  for v in per_trial]))
                    for s in range(S))
        for name in per_trial[0]
    }
    return MetricsReport(anticipation_times=protocol.anticipation_times(),
                         cells=cells, trials=len(trial_evals))


def format_time(t: float) -> str:
    return f"{t:g}"


def _csv_text(rows) -> str:
    """CSV text of ``rows``, one line each; a field with a comma, quote or
    line break is quoted, so :func:`parse_report_csv` reads any name back."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def report_to_csv(reports: dict[str, MetricsReport]) -> str:
    """One row per method; a mean and std column per metric per time."""
    if not reports:
        raise ValueError("no reports to serialize")
    first = next(iter(reports.values()))
    times = first.anticipation_times
    metrics = first.metric_names()
    header = ["method"]
    for metric in metrics:
        for t in times:
            header.append(f"{metric}@{format_time(t)}")
            header.append(f"{metric}@{format_time(t)}_std")
    rows = [header]
    for name, report in reports.items():
        if report.anticipation_times != times:
            raise ValueError(f"report {name!r} has mismatched time columns")
        row = [name]
        for metric in metrics:
            for s in range(len(times)):
                cell = report.cell(metric, s)
                row.append(f"{cell.mean:.6f}")
                row.append(f"{cell.std:.6f}")
        rows.append(row)
    return _csv_text(rows)


def parse_report_csv(text: str) -> dict[str, MetricsReport]:
    """Inverse of :func:`report_to_csv` (trial counts are not stored, so
    the parsed reports carry trials=0). A method named on two rows is a
    ParseError naming both lines."""
    rows = [(lineno, row) for lineno, row in csv_records(text) if row]
    if not rows or rows[0][1][:1] != ["method"]:
        raise ParseError("report CSV must start with a 'method' column")
    header = rows[0][1][1:]
    columns: dict[str, list[tuple[float, int]]] = {}  # metric: (time, index)
    for i in range(0, len(header), 2):  # mean columns, each before its std
        col = header[i]
        if col.endswith("_std"):
            raise ParseError(f"column {col!r} has no mean column before it")
        metric, at, t = col.rpartition("@")
        if not at:
            raise ParseError(f"column {col!r} is not metric@time")
        if header[i + 1:i + 2] != [col + "_std"]:
            raise ParseError(f"column {col!r} has no matching std column")
        try:
            columns.setdefault(metric, []).append((float(t), i))
        except ValueError:
            raise ParseError(f"column {col!r} has a non-numeric time") from None
    if not columns:
        raise ParseError("report CSV has no metric columns")
    times = tuple(t for t, _ in next(iter(columns.values())))
    for metric, cols in columns.items():
        if tuple(t for t, _ in cols) != times:
            raise ParseError(f"metric {metric!r} has mismatched time columns")
    reports: dict[str, MetricsReport] = {}
    line_of: dict[str, int] = {}
    for lineno, row in rows[1:]:
        if len(row) != len(header) + 1:
            raise ParseError(f"line {lineno}: expected {len(header) + 1} "
                             f"fields, got {len(row)}")
        name = row[0]
        if name in line_of:
            raise ParseError(f"line {lineno}: method {name!r} is already on "
                             f"line {line_of[name]}")
        line_of[name] = lineno
        try:
            cells = {metric: tuple(MetricCell(mean=float(row[1 + i]),
                                              std=float(row[2 + i]))
                                   for _, i in cols)
                     for metric, cols in columns.items()}
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric metric value") from None
        reports[name] = MetricsReport(anticipation_times=times, cells=cells,
                                      trials=0)
    if not reports:
        raise ParseError("report CSV has no data rows")
    return reports


def report_to_table(reports: dict[str, MetricsReport],
                    metric: str = PRIMARY_METRIC) -> str:
    """Aligned text table: methods x anticipation times for one metric."""
    if not reports:
        raise ValueError("no reports to format")
    first = next(iter(reports.values()))
    if any(metric not in report.cells for report in reports.values()):
        raise ValueError(f"no metric {metric!r} in the report; it has "
                         f"{', '.join(first.metric_names())}")
    times = [format_time(t) for t in first.anticipation_times]
    name_width = max(len("method"), max(len(n) for n in reports))
    col_width = 14
    title = f"{metric} % @ anticipation times [s]"
    header = "method".ljust(name_width) + "".join(t.rjust(col_width) for t in times)
    sep = "-" * len(header)
    lines = [title, sep, header, sep]
    for name, report in reports.items():
        row = name.ljust(name_width)
        for s in range(len(times)):
            cell = report.cell(metric, s)
            row += f"{cell.mean:6.2f} ± {cell.std:4.2f}".rjust(col_width)
        lines.append(row)
    lines.append(sep)
    return "\n".join(lines) + "\n"


def report_to_plotdata(reports: dict[str, MetricsReport]) -> str:
    """Long-format CSV (method, metric, anticipation time, mean, std)."""
    rows = [["method", "metric", "anticipation_time", "mean", "std"]]
    for name, report in reports.items():
        for metric in report.metric_names():
            for s, t in enumerate(report.anticipation_times):
                cell = report.cell(metric, s)
                rows.append([name, metric, format_time(t), f"{cell.mean:.6f}",
                             f"{cell.std:.6f}"])
    return _csv_text(rows)
