"""Training runs, alpha grid search, and multi-method comparisons.

Everything here is deterministic given the dataset and config: trial t of
any method trains with model seed ``config.seed + t``, epoch shuffling is
seeded from the model seed, and artifact files are written in a fixed
order, so a rerun reproduces every CSV byte for byte.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, TrainingDiverged, read_text
from .jsonconfig import config_from_json, config_to_json, json_value
from .metrics import (SCORE_BLOCK, HitCounts, ManyShotSets, MetricsReport,
                      Scorer, build_report, many_shot_from_labels, percent,
                      report_to_csv, topk_hit_count)
from .priors import (KINDS, EmbeddingTable, PriorMatrix, build_prior,
                     load_embeddings)
from .seqmodel import (ModelConfig, ModelParams, ProtocolConfig, adam_step,
                       forward_batch, init_params, loss_and_gradients_batch,
                       save_checkpoint)
from .smoothing import smooth_label_matrix
from .synthdata import (FeatureSet, GrammarConfig, _check_grammar,
                        gen_annotation_sequences, gen_features, gen_grammar,
                        gen_synthetic_embeddings, read_features,
                        write_features)
from .vocab import ActionVocab, format_annotations

DATASET_FORMAT = "softact-dataset"
DATASET_VERSION = 2
_MANIFEST_KEYS = ("format", "version", "protocol", "modalities",
                  "vocab_sha256", "train_previous")

DEFAULT_ALPHAS = {kind: alpha for kind, (_, alpha) in KINDS.items()}


@dataclass(frozen=True)
class AlphaGrid:
    """Inclusive, evenly spaced alpha values to search over."""

    start: float = 0.0
    stop: float = 1.0
    step: float = 0.05

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got "
                             f"{self.step}")
        if not (0.0 <= self.start <= self.stop <= 1.0):
            raise ValueError("need 0 <= start <= stop <= 1")
        span = (self.stop - self.start) / self.step
        if abs(span - round(span)) > 1e-9:
            raise ValueError(
                f"step {self.step} does not evenly divide "
                f"[{self.start}, {self.stop}]"
            )

    def values(self) -> tuple[float, ...]:
        n = round((self.stop - self.start) / self.step)
        return tuple(round(self.start + i * self.step, 10) for i in range(n + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Optimization and trial settings shared by all runs.

    Model selection ("early stopping") is by best validation top-5 at the
    decode step closest to ``early_stop_time`` seconds. The method (kind
    and alpha) and the alpha grid are not settings: each run is given its
    own.
    """

    epochs: int = 100
    batch_size: int = 256
    trials: int = 10
    hidden_size: int = 64
    learning_rate: float = 0.001
    seed: int = 0
    early_stop_time: float = 1.0
    many_shot_threshold: int = 100

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.trials < 1:
            raise ValueError("epochs, batch_size and trials must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        for name in ("learning_rate", "early_stop_time"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.many_shot_threshold < 1:
            raise ValueError("many_shot_threshold must be >= 1")


def _read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a config file; omitted keys keep their defaults."""
    return config_from_json(ExperimentConfig, _read_json(path), str(path),
                            defaults=ExperimentConfig())


def save_experiment_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_json(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Dataset bundles


@dataclass
class Dataset:
    """A ready-to-train bundle: splits, vocabulary, and prior inputs.

    ``train_previous`` holds the action id before each train sample, so
    with ``train.targets`` it gives the (previous, target) pairs the
    transition prior counts without touching validation or test data.
    Only :func:`generate_dataset` sets ``walks``, the videos' action ids
    (for :func:`save_dataset`'s annotations.csv): no run reads them.
    """

    vocab: ActionVocab
    protocol: ProtocolConfig
    modalities: tuple[tuple[str, int], ...]
    train: FeatureSet
    val: FeatureSet
    test: FeatureSet
    train_previous: np.ndarray  # (n_train,) int64
    embeddings: EmbeddingTable | None = None
    grammar: GrammarConfig | None = None  # gen_grammar rebuilds the arrays
    walks: np.ndarray | None = None  # (num_videos, video_length) int64

    @property
    def K(self) -> int:
        return self.vocab.K


def split_dataset(num_samples: int,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded disjoint 70/15/15 train/val/test index arrays."""
    perm = np.random.default_rng(seed).permutation(num_samples)
    n_train = round(0.7 * num_samples)
    n_val = round(0.15 * num_samples)
    if n_train < 1 or n_val < 1 or n_train + n_val >= num_samples:
        raise ValueError(f"{num_samples} samples are too few to split")
    return (np.sort(perm[:n_train]),
            np.sort(perm[n_train:n_train + n_val]),
            np.sort(perm[n_train + n_val:]))


def generate_dataset(grammar_config: GrammarConfig,
                     protocol: ProtocolConfig = ProtocolConfig(), *,
                     num_videos: int = 200, video_length: int = 25,
                     noise_sigma: float = 0.25, embed_dim: int | None = None,
                     cohort_similarity: float = 0.6, seed: int = 0) -> Dataset:
    """Sample a grammar, roll out videos, featurize, embed, and split."""
    grammar = gen_grammar(grammar_config)
    walks = gen_annotation_sequences(grammar, num_videos, video_length,
                                     seed=seed + 1)
    full = gen_features(grammar, walks, protocol, noise_sigma, seed=seed + 2)
    train_idx, val_idx, test_idx = split_dataset(full.num_samples,
                                                 seed=seed + 3)
    if embed_dim is None:
        embed_dim = max(8, len(grammar.vocab.verbs) + len(grammar.vocab.nouns) + 2)
    embeddings = gen_synthetic_embeddings(grammar, embed_dim,
                                          cohort_similarity, seed=seed + 4)
    return Dataset(
        vocab=grammar.vocab,
        protocol=protocol,
        modalities=grammar.config.modalities,
        train=full.subset(train_idx),
        val=full.subset(val_idx),
        test=full.subset(test_idx),
        train_previous=walks[:, :-1].ravel()[train_idx],
        embeddings=embeddings,
        grammar=grammar_config,
        walks=walks,
    )


def save_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    """Write the bundle: manifest.json, vocab.json, the three .feat splits,
    plus embeddings.txt, grammar.json (the generator parameters) and
    annotations.csv when present. Each fact is stored once: the manifest
    keeps only the previous action id of each train sample, whose target
    train.feat holds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.json").write_text(dataset.vocab.to_json() + "\n")
    for split in ("train", "val", "test"):
        write_features(getattr(dataset, split), out / f"{split}.feat")
    if dataset.walks is not None:
        (out / "annotations.csv").write_text(
            format_annotations(dataset.walks, dataset.vocab))
    if dataset.embeddings is not None:
        (out / "embeddings.txt").write_text("".join(
            token + " " + " ".join(f"{x:.17g}" for x in vec) + "\n"
            for token, vec in sorted(dataset.embeddings.vectors.items())))
    if dataset.grammar is not None:
        (out / "grammar.json").write_text(
            json.dumps(config_to_json(dataset.grammar)) + "\n")
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "protocol": config_to_json(dataset.protocol),
        "modalities": [[n, d] for n, d in dataset.modalities],
        "vocab_sha256": dataset.vocab.content_hash(),
        "train_previous": dataset.train_previous.tolist(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_dataset(in_dir: str | Path) -> Dataset:
    """Inverse of :func:`save_dataset`, but ``annotations.csv`` is only
    checked to be UTF-8. Checks the manifest, the vocabulary hash, the
    grammar, every split (none empty) and the previous action ids (one in
    [0, K) per train sample), so a bad bundle raises FormatError
    (ParseError for malformed text) here, not part-way through a run."""
    root = Path(in_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"{root}: not a dataset directory (no manifest.json)")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != DATASET_FORMAT:
        raise FormatError(f"{manifest_path}: unrecognized format "
                          f"{manifest.get('format')!r}")
    if manifest.get("version") != DATASET_VERSION:
        raise FormatError(f"{manifest_path}: unsupported version "
                          f"{manifest.get('version')!r}")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise FormatError(f"{manifest_path}: missing keys {missing}")
    unknown = sorted(set(manifest) - set(_MANIFEST_KEYS))
    if unknown:
        raise FormatError(f"{manifest_path}: unknown keys {unknown}")
    vocab_path = root / "vocab.json"
    vocab = ActionVocab.from_json(read_text(vocab_path), str(vocab_path))
    if vocab.content_hash() != manifest["vocab_sha256"]:
        raise FormatError(f"{root}: vocab.json does not match the manifest hash")
    where = f"{manifest_path}: malformed manifest"
    protocol = config_from_json(ProtocolConfig, manifest["protocol"],
                                f"{where} protocol")
    modalities = json_value(tuple[tuple[str, int], ...],
                            manifest["modalities"], where, "modalities")
    previous = json_value(tuple[int, ...], manifest["train_previous"], where,
                          "train_previous")
    if not all(0 <= k < vocab.K for k in previous):
        raise FormatError(f"{where}: 'train_previous' has an action id "
                          f"outside [0, {vocab.K})")
    dims = tuple(d for _, d in modalities)
    splits = {}
    for name in ("train", "val", "test"):
        path = root / f"{name}.feat"
        split = splits[name] = read_features(path)
        if not split.num_samples:
            raise FormatError(f"{path}: no samples")
        if split.dims != dims:
            raise FormatError(f"{path}: feature dims {split.dims} do not "
                              f"match the manifest's modalities {dims}")
        if split.timesteps != protocol.total_steps:
            raise FormatError(f"{path}: {split.timesteps} timesteps, the "
                              f"protocol has {protocol.total_steps}")
        if np.any((split.targets < 0) | (split.targets >= vocab.K)):
            raise FormatError(f"{path}: a target action id is outside "
                              f"[0, {vocab.K})")
        if not all(np.isfinite(x).all() for x in split.features):
            raise FormatError(f"{path}: a feature value is not finite")
    if len(previous) != splits["train"].num_samples:
        raise FormatError(f"{where}: 'train_previous' holds {len(previous)} "
                          f"ids, train.feat {splits['train'].num_samples} "
                          f"samples")
    embeddings_path = root / "embeddings.txt"
    embeddings = (load_embeddings(embeddings_path)
                  if embeddings_path.exists() else None)
    grammar = None
    grammar_path = root / "grammar.json"
    if grammar_path.exists():
        grammar = _check_grammar(_read_json(grammar_path), str(grammar_path),
                                 modalities, vocab)
    annotations_path = root / "annotations.csv"
    if annotations_path.exists():
        read_text(annotations_path)
    return Dataset(vocab=vocab, protocol=protocol, modalities=modalities,
                   train_previous=np.array(previous, dtype=np.int64),
                   embeddings=embeddings, grammar=grammar, **splits)


# ---------------------------------------------------------------------------
# Priors per method


def build_prior_for_kind(kind: str, dataset: Dataset) -> PriorMatrix | None:
    """The prior a method kind names, from the dataset; onehot has none."""
    return build_prior(kind, dataset.vocab, dataset.embeddings,
                       np.stack([dataset.train_previous,
                                 dataset.train.targets], axis=1))


@dataclass(frozen=True)
class MethodSpec:
    """A named training recipe: a library kind and its smoothing alpha."""

    name: str
    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.kind == "onehot" and self.alpha != 0.0:
            raise ValueError("onehot runs must use alpha 0")


def default_methods() -> list[MethodSpec]:
    return [MethodSpec(name=k, kind=k, alpha=a) for k, a in DEFAULT_ALPHAS.items()]


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    """Best-epoch snapshot of one training run."""

    params: ModelParams
    best_epoch: int
    best_score: float
    history: list[tuple[int, float, float]]  # (epoch, train loss, val score)


def _epoch_line(epoch: int, train_loss: float, score: float) -> str:
    """One epoch's line of a training log, from a ``history`` entry."""
    return f"epoch {epoch} loss {train_loss:.6f} val_top5 {score:.6f}"


def _best_line(best_epoch: int, best_score: float) -> str:
    """The last line of a training log: the selected epoch."""
    return f"best epoch {best_epoch} val_top5 {best_score:.6f}"


def evaluate_model(params: ModelParams, feature_set: FeatureSet,
                   protocol: ProtocolConfig) -> np.ndarray:
    """Per-step class probabilities, (num_samples, decode_steps, K),
    scored ``SCORE_BLOCK`` samples at a time into one preallocated array."""
    probs = np.empty((feature_set.num_samples, protocol.decode_steps,
                      params.config.num_classes))
    for rows, feats in feature_set.batches(SCORE_BLOCK):
        probs[rows] = forward_batch(params, feats, protocol)
    return probs


def score_model(params: ModelParams, feature_set: FeatureSet,
                protocol: ProtocolConfig, vocab: ActionVocab,
                many_shot: ManyShotSets | None = None) -> HitCounts:
    """The split's hit counts, counted as each chunk of predictions leaves
    the model, so no (num_samples, decode_steps, K) array is held."""
    scorer = Scorer(protocol.decode_steps, vocab, many_shot)
    for rows, feats in feature_set.batches(SCORE_BLOCK):
        scorer.add(forward_batch(params, feats, protocol),
                   feature_set.targets[rows])
    return scorer.counts


def _val_score(params: ModelParams, val: FeatureSet, protocol: ProtocolConfig,
               early_stop_time: float) -> float:
    """Validation top-5 action accuracy at the early-stop step, counted
    chunk by chunk."""
    step = protocol.step_for_time(early_stop_time)
    k = min(5, params.config.num_classes)
    hits = sum(
        topk_hit_count(forward_batch(params, feats, protocol)[:, step],
                       val.targets[rows], k)
        for rows, feats in val.batches(SCORE_BLOCK))
    return percent(hits, val.num_samples)


def train_model(model_config: ModelConfig, protocol: ProtocolConfig,
                train: FeatureSet, prior: PriorMatrix | None, val: FeatureSet,
                config: ExperimentConfig, log=None, *,
                alpha: float) -> TrainResult:
    """Adam training with per-epoch validation selection.

    Each batch's targets are its labels smoothed with ``prior`` and
    ``alpha`` as the batch is drawn, so no (num_samples, K) target matrix
    is held; a prior of another K raises ValueError at the first batch.
    The returned parameters are the snapshot from the epoch with the best
    validation top-5 at the early-stop anticipation time (ties keep the
    earlier epoch). Non-finite values raise TrainingDiverged.
    """
    params = init_params(model_config)
    shuffle_rng = np.random.default_rng([model_config.seed, 1])
    best = params.copy()
    best_epoch = 0
    best_score = -np.inf
    history: list[tuple[int, float, float]] = []
    n = train.num_samples
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for b, (rows, feats) in enumerate(
                train.batches(config.batch_size, order)):
            targets = smooth_label_matrix(
                train.targets[rows], prior, alpha,
                num_classes=model_config.num_classes)
            try:
                loss, grads = loss_and_gradients_batch(
                    params, feats, targets, protocol)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"epoch {epoch}, batch {b}: {exc}") from exc
            adam_step(params, grads)
            total_loss += loss * len(rows)
        train_loss = total_loss / n
        try:
            score = _val_score(params, val, protocol, config.early_stop_time)
        except FloatingPointError as exc:
            raise TrainingDiverged(
                f"epoch {epoch}, validation: {exc}") from exc
        history.append((epoch, train_loss, score))
        if score > best_score:
            best = params.copy()
            best_epoch = epoch
            best_score = score
        if log is not None:
            log(_epoch_line(*history[-1]))
    if log is not None:
        log(_best_line(best_epoch, best_score))
    return TrainResult(params=best, best_epoch=best_epoch,
                       best_score=best_score, history=history)


def _model_config(dataset: Dataset, config: ExperimentConfig,
                  seed: int) -> ModelConfig:
    return ModelConfig(
        modalities=dataset.modalities,
        num_classes=dataset.K,
        hidden_size=config.hidden_size,
        learning_rate=config.learning_rate,
        seed=seed,
    )


def train_trial(dataset: Dataset, prior: PriorMatrix | None, alpha: float,
                trial: int, config: ExperimentConfig,
                log=None) -> TrainResult:
    """Train one seed (``config.seed + trial``) on soft targets of the
    given prior and alpha."""
    return train_model(_model_config(dataset, config, config.seed + trial),
                       dataset.protocol, dataset.train, prior, dataset.val,
                       config, log=log, alpha=alpha)


def run_trial(dataset: Dataset, prior: PriorMatrix | None, alpha: float,
              trial: int, config: ExperimentConfig,
              log=None) -> tuple[TrainResult, np.ndarray]:
    """Train one seed and predict the test split.

    Returns the train result and the (N, decode_steps, K) test probabilities.
    """
    result = train_trial(dataset, prior, alpha, trial, config, log=log)
    probs = evaluate_model(result.params, dataset.test, dataset.protocol)
    return result, probs


# ---------------------------------------------------------------------------
# Alpha grid search


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    scores: tuple[float, ...]

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores))


@dataclass(frozen=True)
class GridSearchResult:
    kind: str
    points: tuple[GridPoint, ...]

    @property
    def best_alpha(self) -> float:
        """Highest mean validation score; ties go to the smaller alpha."""
        best = self.points[0]
        for point in self.points[1:]:
            if point.mean_score > best.mean_score:
                best = point
        return best.alpha


def grid_to_csv(result: GridSearchResult) -> str:
    lines = ["alpha,mean_val_top5,trials"]
    for point in result.points:
        lines.append(f"{point.alpha:g},{point.mean_score:.6f},"
                     f"{len(point.scores)}")
    return "\n".join(lines) + "\n"


def grid_search_alpha(dataset: Dataset, kind: str, config: ExperimentConfig,
                      grid: AlphaGrid = AlphaGrid(),
                      log=None) -> GridSearchResult:
    """Train ``config.trials`` seeds at every grid alpha and rank by mean
    validation top-5 at the early-stop time."""
    if kind == "onehot":
        raise ValueError("grid search needs a prior; onehot has none")
    prior = build_prior_for_kind(kind, dataset)
    points = []
    for alpha in grid.values():
        scores = []
        for trial in range(config.trials):
            result = train_trial(dataset, prior, alpha, trial, config)
            scores.append(result.best_score)
        point = GridPoint(alpha=alpha, scores=tuple(scores))
        points.append(point)
        if log is not None:
            log(f"alpha {alpha:g} mean_val_top5 {point.mean_score:.6f}")
    return GridSearchResult(kind=kind, points=tuple(points))


# ---------------------------------------------------------------------------
# Multi-method comparison


def _save_run(run_dir: Path, name: str, result: TrainResult,
              counts: HitCounts, dataset: Dataset,
              many_shot: ManyShotSets) -> MetricsReport:
    """Write a run directory and return its test report: the checkpoint,
    the training log rendered from ``result``, and a one-row metrics CSV."""
    run_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.params, run_dir / "checkpoint.bin")
    lines = [_epoch_line(*entry) for entry in result.history]
    lines.append(_best_line(result.best_epoch, result.best_score))
    (run_dir / "train_log.txt").write_text("\n".join(lines) + "\n")
    report = build_report([counts], dataset.protocol, dataset.vocab,
                          many_shot)
    (run_dir / "metrics.csv").write_text(report_to_csv({name: report}))
    return report


def _comparison_task(args):
    """One trial of a comparison, as hit counts: a worker sends back the
    counts, not the (N, decode_steps, K) test probabilities."""
    dataset, method, prior, trial, config, many_shot = args
    result, probs = run_trial(dataset, prior, method.alpha, trial, config)
    scorer = Scorer(dataset.protocol.decode_steps, dataset.vocab, many_shot)
    scorer.add(probs, dataset.test.targets)
    return result, scorer.counts


def _outcomes(tasks: list, jobs: int):
    """:func:`_comparison_task` of each task, in task order, as each is
    done, on at most ``jobs`` worker processes."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        yield from map(_comparison_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_comparison_task, tasks)


def run_comparison(dataset: Dataset, methods: list[MethodSpec],
                   config: ExperimentConfig, out_dir: str | Path | None = None,
                   jobs: int = 1, log=None) -> dict[str, MetricsReport]:
    """Train every method for ``config.trials`` seeds and report test
    metrics. With ``out_dir`` set, writes per-run artifacts under
    ``runs/<method>/alpha_<a>/seed_<s>/`` as each run ends, plus a combined
    ``report.csv``. Only each run's hit counts are kept, so memory does
    not grow with methods x trials.
    """
    if not methods:
        raise ValueError("no methods to compare")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len({m.name for m in methods}) != len(methods):
        raise ValueError("method names must be unique")
    many_shot = many_shot_from_labels(dataset.train.targets, dataset.vocab,
                                      config.many_shot_threshold)
    tasks = []
    for method in methods:
        prior = build_prior_for_kind(method.kind, dataset)
        for trial in range(config.trials):
            tasks.append((dataset, method, prior, trial, config, many_shot))

    out = Path(out_dir) if out_dir is not None else None
    reports: dict[str, MetricsReport] = {}
    trial_counts: list[HitCounts] = []
    for task, (result, counts) in zip(tasks, _outcomes(tasks, jobs)):
        method, trial = task[1], task[3]
        if out is not None:
            _save_run(out / "runs" / method.name / f"alpha_{method.alpha:g}"
                      / f"seed_{config.seed + trial}", method.name, result,
                      counts, dataset, many_shot)
        trial_counts.append(counts)
        if trial < config.trials - 1:
            continue
        reports[method.name] = build_report(trial_counts, dataset.protocol,
                                            dataset.vocab, many_shot)
        trial_counts = []
        if log is not None:
            step = dataset.protocol.step_for_time(config.early_stop_time)
            cell = reports[method.name].cell("action_top5", step)
            log(f"{method.name} (alpha {method.alpha:g}): test action_top5@"
                f"{config.early_stop_time:g}s = {cell.mean:.2f} ± {cell.std:.2f}")
    if out is not None:  # made by the first run's _save_run
        (out / "report.csv").write_text(report_to_csv(reports))
        save_experiment_config(config, out / "config.json")
        (out / "methods.json").write_text(json.dumps(
            [config_to_json(m) for m in methods], indent=2) + "\n")
    return reports
