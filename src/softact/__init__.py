"""Soft-label training for verb-noun action anticipation.

Instead of one-hot targets, training targets are blended with a prior over
related actions — uniform, verb/noun cohort, embedding similarity,
temporal co-occurrence, or mixtures — and a multi-branch LSTM
encoder-decoder is trained on the smoothed targets to predict upcoming
actions at several anticipation times.
"""

from .errors import FormatError, ParseError, TrainingDiverged
from .experiment import (DEFAULT_ALPHAS, AlphaGrid, Dataset, ExperimentConfig,
                         GridPoint, GridSearchResult, MethodSpec, TrainResult,
                         build_prior_for_kind, default_methods,
                         evaluate_model, generate_dataset, grid_search_alpha,
                         grid_to_csv, load_dataset, load_experiment_config,
                         run_comparison, run_trial, save_dataset,
                         save_experiment_config, score_model, split_dataset,
                         train_model, train_trial)
from .metrics import (HitCounts, ManyShotSets, MetricCell, MetricsReport,
                      Scorer, aggregate_trials, build_report,
                      many_shot_from_labels, parse_report_csv, report_to_csv,
                      report_to_plotdata, report_to_table, topk_accuracy)
from .priors import (EmbeddingTable, PriorMatrix, build_glove_prior,
                     build_prior, build_temporal_prior, build_uniform_prior,
                     build_verb_noun_prior, load_embeddings, load_prior,
                     mix_priors, save_prior)
from .seqmodel import (ModelConfig, ModelParams, ProtocolConfig, adam_step,
                       forward_batch, init_params, load_checkpoint,
                       loss_and_gradients_batch, save_checkpoint,
                       weight_shapes)
from .smoothing import (SoftLabel, one_hot, smooth_label, smooth_label_matrix,
                        soft_cross_entropy, softmax)
from .synthdata import (FeatureSet, GrammarConfig, SyntheticGrammar,
                        gen_annotation_sequences, gen_features, gen_grammar,
                        gen_synthetic_embeddings, read_features,
                        write_features)
from .vocab import ActionVocab, format_annotations, parse_annotations

__version__ = "0.1.0"

__all__ = [
    "ActionVocab", "AlphaGrid", "Dataset", "DEFAULT_ALPHAS", "EmbeddingTable",
    "ExperimentConfig", "FeatureSet",
    "FormatError", "GrammarConfig", "GridPoint", "GridSearchResult",
    "HitCounts", "ManyShotSets",
    "MethodSpec", "MetricCell", "MetricsReport", "ModelConfig", "ModelParams",
    "ParseError", "PriorMatrix", "ProtocolConfig", "Scorer",
    "SoftLabel", "SyntheticGrammar", "TrainResult",
    "TrainingDiverged", "adam_step", "aggregate_trials",
    "build_glove_prior", "build_prior", "build_prior_for_kind",
    "build_report", "build_temporal_prior", "build_uniform_prior",
    "build_verb_noun_prior",
    "default_methods", "evaluate_model", "format_annotations",
    "forward_batch", "gen_annotation_sequences", "gen_features",
    "gen_grammar", "gen_synthetic_embeddings", "generate_dataset",
    "grid_search_alpha", "grid_to_csv",
    "init_params", "load_checkpoint", "load_dataset", "load_embeddings",
    "load_experiment_config", "load_prior",
    "loss_and_gradients_batch", "many_shot_from_labels",
    "mix_priors", "one_hot", "parse_annotations", "parse_report_csv",
    "read_features",
    "report_to_csv", "report_to_plotdata", "report_to_table",
    "run_comparison", "run_trial",
    "save_checkpoint", "save_dataset", "save_experiment_config", "save_prior",
    "score_model",
    "smooth_label", "smooth_label_matrix", "soft_cross_entropy", "softmax",
    "split_dataset", "topk_accuracy",
    "weight_shapes",
    "train_model", "train_trial", "write_features",
]
