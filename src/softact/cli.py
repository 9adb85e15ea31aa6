"""Command-line front door.

Subcommands: build-prior, synth, train, grid-search, compare, eval,
report. train, grid-search and compare read an optional JSON config of
ExperimentConfig's keys, which flags override. Exit codes: 0 on success,
1 for usage problems, 2 for data/format/training failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import FormatError, ParseError, TrainingDiverged, read_text
from .experiment import (DEFAULT_ALPHAS, AlphaGrid, ExperimentConfig,
                         MethodSpec, _read_json, _save_run,
                         build_prior_for_kind, generate_dataset,
                         grid_search_alpha, grid_to_csv, load_dataset,
                         load_experiment_config, run_comparison, save_dataset,
                         score_model, train_trial)
from .jsonconfig import config_from_json, json_value
from .metrics import (PRIMARY_METRIC, build_report, many_shot_from_labels,
                      parse_report_csv, report_to_csv, report_to_plotdata,
                      report_to_table)
from .priors import KINDS, build_prior, load_embeddings, save_prior
from .seqmodel import ProtocolConfig, load_checkpoint
from .synthdata import GrammarConfig
from .vocab import ActionVocab, parse_annotations

# CLI spelling -> library kind, from the kind table.
_CLI_KINDS = {cli: kind for kind, (cli, _) in KINDS.items()}
_PRIOR_CHOICES = [cli for cli in _CLI_KINDS if cli != "onehot"]


def _parse_modalities(spec: str) -> tuple[tuple[str, int], ...]:
    """'rgb:16,flow:16' -> (('rgb', 16), ('flow', 16))."""
    out = []
    for part in spec.split(","):
        name, _, dim = part.partition(":")
        if not name or not dim:
            raise ValueError(f"bad modality spec {part!r}; use name:dim")
        try:
            out.append((name.strip(), int(dim)))
        except ValueError:
            raise ValueError(f"bad modality dim in {part!r}") from None
    return tuple(out)


def _add_training_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default="",
                   help="JSON experiment config; flags below override it")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="seeds per method in compare and grid-search; "
                        "train runs one")
    p.add_argument("--hidden-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--early-stop-time", type=float, default=None,
                   help="anticipation time (s) scored for model selection")
    p.add_argument("--many-shot-threshold", type=int, default=None)


def _given_flags(args, cls, prefix: str = "") -> dict:
    """The ``--<prefix><field>`` flags given for the fields of ``cls``."""
    given = {f.name: getattr(args, prefix + f.name, None) for f in fields(cls)}
    return {name: value for name, value in given.items() if value is not None}


def _experiment_config(args) -> ExperimentConfig:
    config = (load_experiment_config(args.config) if args.config
              else ExperimentConfig())
    return replace(config, **_given_flags(args, ExperimentConfig))


# synth setting -> keyword of GrammarConfig, ProtocolConfig and
# generate_dataset (with the JSON type of generate_dataset's counts, which
# have no config class); ``seed`` seeds both the grammar and the rollout.
_GRAMMAR_KEYS = {"verbs": "num_verbs", "nouns": "num_nouns",
                 "density": "action_density", "sigma_within": "sigma_within",
                 "sigma_between": "sigma_between",
                 "markov_concentration": "markov_concentration",
                 "modalities": "modalities", "seed": "seed"}
_PROTOCOL_KEYS = {"stride": "snippet_stride", "encode_steps": "encode_steps",
                  "decode_steps": "decode_steps", "snippet_len": "snippet_len"}
_DATASET_KEYS = {"videos": ("num_videos", int),
                 "video_length": ("video_length", int),
                 "noise": ("noise_sigma", float),
                 "embed_dim": ("embed_dim", int),
                 "cohort_similarity": ("cohort_similarity", float),
                 "seed": ("seed", int)}
# Unset grammar settings come from here: the library has no default for
# verbs and nouns, and the CLI sets density on purpose; the rest, and every
# protocol and dataset setting, default in the library.
_SYNTH_GRAMMAR = GrammarConfig(num_verbs=10, num_nouns=12, action_density=0.5)


def _cmd_synth(args) -> int:
    where = args.config or "synth flags"
    settings = _read_json(args.config) if args.config else {}
    if not isinstance(settings, dict):
        raise FormatError(f"{where}: not a JSON object")
    known = {**_GRAMMAR_KEYS, **_PROTOCOL_KEYS, **_DATASET_KEYS}
    unknown = set(settings) - set(known)
    if unknown:
        raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
    for key in known:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if isinstance(settings.get("modalities"), str):
        settings["modalities"] = _parse_modalities(settings["modalities"])

    def pick(keys: dict) -> dict:
        return {kw: settings[key] for key, kw in keys.items() if key in settings}

    grammar = config_from_json(GrammarConfig, pick(_GRAMMAR_KEYS), where,
                               defaults=_SYNTH_GRAMMAR)
    protocol = config_from_json(ProtocolConfig, pick(_PROTOCOL_KEYS), where,
                                defaults=ProtocolConfig())
    counts = {kw: json_value(tp, settings[key], where, key)
              for key, (kw, tp) in _DATASET_KEYS.items() if key in settings}
    dataset = generate_dataset(grammar, protocol, **counts)
    save_dataset(dataset, args.out_dir)
    print(f"wrote dataset to {args.out_dir}: K={dataset.K}, "
          f"train={dataset.train.num_samples}, val={dataset.val.num_samples}, "
          f"test={dataset.test.num_samples}")
    return 0


def _cmd_build_prior(args) -> int:
    vocab = ActionVocab.from_json(read_text(args.vocab), args.vocab)
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    pairs = None
    if args.annotations:
        try:
            pairs = parse_annotations(read_text(args.annotations), vocab)
        except ParseError as exc:
            raise ParseError(f"{args.annotations}: {exc}") from None
    prior = build_prior(_CLI_KINDS[args.kind], vocab, embeddings, pairs)
    save_prior(prior, args.out, vocab_hash=vocab.content_hash())
    print(f"wrote prior {prior.kind} (K={prior.K}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.trials not in (None, 1):
        raise ValueError(f"train runs one trial, got --trials {args.trials}; "
                         f"use compare (or grid-search) --trials for several")
    dataset = load_dataset(args.data)
    config = _experiment_config(args)
    kind = _CLI_KINDS[args.method]
    # a compare method of one trial, so both commands check it alike
    method = MethodSpec(kind, kind, DEFAULT_ALPHAS[kind]
                        if args.alpha is None else args.alpha)
    prior = build_prior_for_kind(method.kind, dataset)
    result = train_trial(dataset, prior, method.alpha, 0, config,
                         log=print if args.verbose else None)
    many_shot = many_shot_from_labels(dataset.train.targets, dataset.vocab,
                                      config.many_shot_threshold)
    counts = score_model(result.params, dataset.test, dataset.protocol,
                         dataset.vocab, many_shot)
    report = _save_run(Path(args.out_dir), method.name, result, counts,
                       dataset, many_shot)
    step = dataset.protocol.step_for_time(config.early_stop_time)
    cell = report.cell(PRIMARY_METRIC, step)
    print(f"{method.name} alpha={method.alpha:g}: best epoch "
          f"{result.best_epoch}, val_top5 {result.best_score:.2f}, test "
          f"{PRIMARY_METRIC}@{config.early_stop_time:g}s {cell.mean:.2f}")
    return 0


def _cmd_grid_search(args) -> int:
    dataset = load_dataset(args.data)
    config = _experiment_config(args)
    kind = _CLI_KINDS[args.method]
    grid = AlphaGrid(**_given_flags(args, AlphaGrid, prefix="alpha_"))
    log = print if args.verbose else None
    result = grid_search_alpha(dataset, kind, config, grid, log=log)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "grid.csv").write_text(grid_to_csv(result))
    (out / "best_alpha.json").write_text(json.dumps(
        {"kind": kind, "best_alpha": result.best_alpha}) + "\n")
    print(f"best alpha for {kind}: {result.best_alpha:g}")
    return 0


def _cmd_compare(args) -> int:
    dataset = load_dataset(args.data)
    config = _experiment_config(args)
    names = ([m.strip() for m in args.methods.split(",") if m.strip()]
             if args.methods else list(_CLI_KINDS))
    bad = [m for m in names if m not in _CLI_KINDS]
    if bad:
        raise ValueError(f"unknown methods {bad}; "
                         f"choose from {sorted(_CLI_KINDS)}")
    kinds = [_CLI_KINDS[m] for m in names]
    overrides: dict[str, float] = {}
    for spec in args.set_alpha or []:
        name, _, value = spec.partition("=")
        try:
            kind, alpha = _CLI_KINDS[name], float(value)
        except (KeyError, ValueError):
            raise ValueError(f"bad --set-alpha {spec!r}; "
                             f"use kind=alpha") from None
        if kind not in kinds:
            raise ValueError(f"--set-alpha {spec!r}: {name} is not one of "
                             f"the methods compared")
        if kind in overrides:
            raise ValueError(f"--set-alpha {spec!r}: {name} already has "
                             f"an alpha")
        overrides[kind] = alpha
    methods = [MethodSpec(k, k, overrides.get(k, DEFAULT_ALPHAS[k]))
               for k in kinds]
    reports = run_comparison(dataset, methods, config, out_dir=args.out_dir,
                             jobs=args.jobs, log=print)
    print()
    print(report_to_table(reports, PRIMARY_METRIC), end="")
    return 0


def _emit(text: str, out: str) -> int:
    """Write a command's text output to ``out``, or print it without one."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def _cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    params = load_checkpoint(args.checkpoint)
    if params.config.num_classes != dataset.K:
        raise FormatError(f"{args.checkpoint}: checkpoint has "
                          f"{params.config.num_classes} classes, dataset has "
                          f"{dataset.K}")
    dims = tuple(d for _, d in dataset.modalities)
    if params.config.feature_dims != dims:
        raise FormatError(f"{args.checkpoint}: checkpoint feature dims "
                          f"{params.config.feature_dims} do not match the "
                          f"dataset's {dims}")
    split = getattr(dataset, args.split)
    many_shot = many_shot_from_labels(dataset.train.targets, dataset.vocab,
                                      args.many_shot_threshold)
    try:
        counts = score_model(params, split, dataset.protocol, dataset.vocab,
                             many_shot)
    except FloatingPointError as exc:  # finite weights that overflow
        raise FormatError(f"{args.checkpoint}: {exc}") from None
    report = build_report([counts], dataset.protocol, dataset.vocab,
                          many_shot)
    name = args.name or Path(args.checkpoint).stem
    return _emit(report_to_csv({name: report}), args.out)


def _cmd_report(args) -> int:
    src = Path(args.runs)
    if src.is_dir():
        src = src / "report.csv"
    try:
        reports = parse_report_csv(read_text(src))
    except ParseError as exc:
        raise ParseError(f"{src}: {exc}") from None
    if args.format == "csv":
        text = report_to_csv(reports)
    elif args.format == "table":
        text = report_to_table(reports, args.metric)
    else:
        text = report_to_plotdata(reports)
    return _emit(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softact",
        description="Soft-label action anticipation: synthetic datasets, "
                    "smoothing priors, training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default="",
                   help="JSON with the keys below; flags override it")
    p.add_argument("--verbs", type=int, default=None,
                   help="number of verbs (default 10)")
    p.add_argument("--nouns", type=int, default=None,
                   help="number of nouns (default 12)")
    p.add_argument("--density", type=float, default=None,
                   help="fraction of verb-noun cells that are actions "
                        "(default 0.5)")
    p.add_argument("--videos", type=int, default=None)
    p.add_argument("--video-length", type=int, default=None,
                   help="actions per video")
    p.add_argument("--noise", type=float, default=None,
                   help="feature noise sigma")
    p.add_argument("--sigma-within", type=float, default=None)
    p.add_argument("--sigma-between", type=float, default=None)
    p.add_argument("--markov-concentration", type=float, default=None)
    p.add_argument("--modalities", default=None, help="e.g. rgb:16,flow:16")
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--cohort-similarity", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stride", type=float, default=None,
                   help="snippet stride in seconds")
    p.add_argument("--encode-steps", type=int, default=None)
    p.add_argument("--decode-steps", type=int, default=None)
    p.add_argument("--snippet-len", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-prior",
                       help="build a smoothing prior and save it as CSV")
    p.add_argument("--kind", required=True, choices=_PRIOR_CHOICES)
    p.add_argument("--vocab", required=True, help="vocab JSON file")
    p.add_argument("--embeddings", default="",
                   help="word embedding text file (glove/mix)")
    p.add_argument("--annotations", default="",
                   help="annotation CSV (temporal)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_prior)

    p = sub.add_parser("train", help="train one model and score the test split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=sorted(_CLI_KINDS), default="onehot",
                   help="smoothing method (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=None,
                   help="smoothing strength (default: the method's tuned value)")
    p.add_argument("--verbose", action="store_true")
    _add_training_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid-search", help="search alpha on the validation split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=_PRIOR_CHOICES, required=True)
    p.add_argument("--alpha-start", type=float, default=None)
    p.add_argument("--alpha-stop", type=float, default=None)
    p.add_argument("--alpha-step", type=float, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_training_args(p)
    p.set_defaults(func=_cmd_grid_search)

    p = sub.add_parser("compare", help="train several methods and write a "
                                       "combined report")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--methods", default="",
                   help="comma list (default: all six methods)")
    p.add_argument("--set-alpha", action="append", metavar="KIND=ALPHA",
                   help="override a method's alpha, e.g. uniform=0.2")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per run (default 1)")
    _add_training_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint on a split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", default="", help="metrics CSV path (default stdout)")
    p.add_argument("--name", default="", help="row label in the CSV")
    p.add_argument("--many-shot-threshold", type=int,
                   default=ExperimentConfig().many_shot_threshold,
                   help="train samples a class needs to count as many-shot "
                        "(default %(default)s)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="reformat a comparison report")
    p.add_argument("--runs", required=True,
                   help="comparison output directory or report.csv path")
    p.add_argument("--format", choices=["csv", "table", "plotdata"],
                   default="table")
    p.add_argument("--metric", default=PRIMARY_METRIC)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ParseError, FormatError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
