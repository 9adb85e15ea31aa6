"""Evaluation: top-k accuracy per anticipation time, macro class
precision/recall on many-shot classes, and multi-trial aggregation.

Top-k membership uses the same deterministic ordering as prediction
(descending probability, ties to the lower class id). Verb and noun
metrics are computed on the action distribution marginalized over cohorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .seqmodel import ProtocolConfig
from .vocab import ActionVocab

PRIMARY_METRIC = "action_top5"

_TASKS = ("action", "verb", "noun")


def _topk_hits(probs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Boolean per-sample membership of the label in the top-k set,
    under descending-probability order with ties to the lower id."""
    label_p = probs[np.arange(probs.shape[0]), labels]
    higher = (probs > label_p[:, None]).sum(axis=1)
    ids = np.arange(probs.shape[1])
    equal_lower = ((probs == label_p[:, None]) & (ids[None, :] < labels[:, None])) \
        .sum(axis=1)
    return higher + equal_lower < k


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
    return float(_topk_hits(probs, labels, k).mean() * 100.0)


def cohort_indicator(vocab: ActionVocab) -> tuple[np.ndarray, np.ndarray]:
    """(K, |verbs|) and (K, |nouns|) 0/1 matrices mapping actions to
    their verb and noun."""
    K = vocab.K
    mv = np.zeros((K, len(vocab.verbs)))
    mn = np.zeros((K, len(vocab.nouns)))
    for k, (v, n) in enumerate(vocab.actions):
        mv[k, v] = 1.0
        mn[k, n] = 1.0
    return mv, mn


@dataclass(frozen=True)
class ManyShotSets:
    """Classes with at least ``threshold`` training occurrences, per task."""

    actions: frozenset[int]
    verbs: frozenset[int]
    nouns: frozenset[int]
    threshold: int


def many_shot_from_labels(labels, vocab: ActionVocab,
                          threshold: int = 100) -> ManyShotSets:
    """Many-shot sets from bare action labels (e.g. a feature split)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= vocab.K):
        raise ValueError("label out of range for the vocabulary")
    action_counts = np.bincount(labels, minlength=vocab.K)
    verb_counts = np.zeros(len(vocab.verbs), dtype=np.int64)
    noun_counts = np.zeros(len(vocab.nouns), dtype=np.int64)
    for k, (v, n) in enumerate(vocab.actions):
        verb_counts[v] += action_counts[k]
        noun_counts[n] += action_counts[k]
    return ManyShotSets(
        actions=frozenset(np.flatnonzero(action_counts >= threshold).tolist()),
        verbs=frozenset(np.flatnonzero(verb_counts >= threshold).tolist()),
        nouns=frozenset(np.flatnonzero(noun_counts >= threshold).tolist()),
        threshold=threshold,
    )


def macro_precision_recall(predicted_top1, labels,
                           restrict_to) -> tuple[float, float]:
    """Unweighted per-class precision/recall averages, in percent.

    Classes never predicted contribute precision 0; classes absent from
    the labels are left out of the recall average (nan if that excludes
    every class).
    """
    if not restrict_to:
        raise ValueError("restrict_to must name at least one class")
    preds = np.asarray(predicted_top1, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels have different lengths")
    precisions, recalls = [], []
    for c in sorted(restrict_to):
        tp = int(((preds == c) & (labels == c)).sum())
        fp = int(((preds == c) & (labels != c)).sum())
        fn = int(((preds != c) & (labels == c)).sum())
        precisions.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    precision = 100.0 * sum(precisions) / len(precisions)
    recall = 100.0 * sum(recalls) / len(recalls) if recalls else math.nan
    return precision, recall


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


def build_report(trial_evals, protocol: ProtocolConfig, vocab: ActionVocab,
                 many_shot: ManyShotSets | None = None) -> MetricsReport:
    """Aggregate per-trial predictions into a mean +/- std report.

    ``trial_evals`` is a list of (probs, labels) with probs shaped
    (N, decode_steps, K). Precision/recall cells are included only when
    ``many_shot`` is given, restricted to its sets.
    """
    if not trial_evals:
        raise ValueError("need at least one trial")
    times = protocol.anticipation_times()
    S = protocol.decode_steps
    mv, mn = cohort_indicator(vocab)
    verb_labels_of = np.array([v for v, _ in vocab.actions], dtype=np.int64)
    noun_labels_of = np.array([n for _, n in vocab.actions], dtype=np.int64)

    per_trial: dict[str, list[list[float]]] = {}

    def record(name: str, step: int, trial: int, value: float):
        steps = per_trial.setdefault(name, [])
        while len(steps) <= step:
            steps.append([])
        if len(steps[step]) != trial:
            raise AssertionError("trial values recorded out of order")
        steps[step].append(value)

    for trial, (probs, labels) in enumerate(trial_evals):
        probs = np.asarray(probs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if probs.ndim != 3 or probs.shape[1] != S or probs.shape[2] != vocab.K:
            raise ValueError(
                f"trial {trial}: probs shape {probs.shape}, expected "
                f"(N, {S}, {vocab.K})"
            )
        for s in range(S):
            p_act = probs[:, s, :]
            task_data = {
                "action": (p_act, labels),
                "verb": (p_act @ mv, verb_labels_of[labels]),
                "noun": (p_act @ mn, noun_labels_of[labels]),
            }
            for task, (p, y) in task_data.items():
                record(f"{task}_top1", s, trial, topk_accuracy(p, y, 1))
                k5 = min(5, p.shape[1])
                record(f"{task}_top5", s, trial, topk_accuracy(p, y, k5))
                if many_shot is not None:
                    restrict = getattr(many_shot, task + "s")
                    if restrict:
                        prec, rec = macro_precision_recall(
                            p.argmax(axis=1), y, restrict)
                        record(f"{task}_precision", s, trial, prec)
                        record(f"{task}_recall", s, trial, rec)

    cells = {
        name: tuple(MetricCell(*aggregate_trials(vals)) for vals in steps)
        for name, steps in per_trial.items()
    }
    return MetricsReport(anticipation_times=times, cells=cells,
                         trials=len(trial_evals))


def format_time(t: float) -> str:
    return f"{t:g}"


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
    lines = [",".join(header)]
    for name, report in reports.items():
        if report.anticipation_times != times:
            raise ValueError(f"report {name!r} has mismatched time columns")
        row = [name]
        for metric in metrics:
            for s in range(len(times)):
                cell = report.cell(metric, s)
                row.append(f"{cell.mean:.6f}")
                row.append(f"{cell.std:.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> dict[str, MetricsReport]:
    """Inverse of :func:`report_to_csv` (trial counts are not stored, so
    the parsed reports carry trials=0)."""
    import csv as _csv
    import io

    rows = list(_csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows or rows[0][:1] != ["method"]:
        raise ParseError("report CSV must start with a 'method' column")
    header = rows[0][1:]
    metrics: list[str] = []
    times_by_metric: dict[str, list[float]] = {}
    mean_cols: list[tuple[str, int]] = []
    for i, col in enumerate(header):
        if col.endswith("_std"):
            continue
        if "@" not in col:
            raise ParseError(f"column {col!r} is not metric@time")
        metric, t = col.rsplit("@", 1)
        if i + 1 >= len(header) or header[i + 1] != col + "_std":
            raise ParseError(f"column {col!r} has no matching std column")
        try:
            tv = float(t)
        except ValueError:
            raise ParseError(f"column {col!r} has a non-numeric time") from None
        if metric not in metrics:
            metrics.append(metric)
        times_by_metric.setdefault(metric, []).append(tv)
        mean_cols.append((metric, i))
    times = times_by_metric[metrics[0]]
    for metric in metrics[1:]:
        if times_by_metric[metric] != times:
            raise ParseError(f"metric {metric!r} has mismatched time columns")
    reports: dict[str, MetricsReport] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header) + 1:
            raise ParseError(f"line {lineno}: expected {len(header) + 1} "
                             f"fields, got {len(row)}")
        name = row[0]
        cells: dict[str, tuple[MetricCell, ...]] = {}
        try:
            for metric in metrics:
                cols = [i for m, i in mean_cols if m == metric]
                cells[metric] = tuple(
                    MetricCell(mean=float(row[1 + i]), std=float(row[2 + i]))
                    for i in cols)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric metric value") from None
        reports[name] = MetricsReport(anticipation_times=tuple(times),
                                      cells=cells, trials=0)
    if not reports:
        raise ParseError("report CSV has no data rows")
    return reports


def report_to_table(reports: dict[str, MetricsReport],
                    metric: str = PRIMARY_METRIC) -> str:
    """Aligned text table: methods x anticipation times for one metric."""
    if not reports:
        raise ValueError("no reports to format")
    first = next(iter(reports.values()))
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
    lines = ["method,metric,anticipation_time,mean,std"]
    for name, report in reports.items():
        for metric in report.metric_names():
            for s, t in enumerate(report.anticipation_times):
                cell = report.cell(metric, s)
                lines.append(f"{name},{metric},{format_time(t)},"
                             f"{cell.mean:.6f},{cell.std:.6f}")
    return "\n".join(lines) + "\n"
