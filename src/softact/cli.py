"""Command-line front door.

Subcommands: build-prior, synth, train, grid-search, compare, eval,
report. synth, train, grid-search and compare read an optional JSON config
of their settings, checked on its own, which flags then override. Exit
codes: 0 on success, 1 for usage problems (a bad flag value among them),
2 for data/format/training failures (a bad config file among them).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from .errors import FormatError, ParseError, TrainingDiverged, read_text
from .experiment import (DEFAULT_ALPHAS, AlphaGrid, ExperimentConfig,
                         MethodSpec, _read_json, _save_run,
                         build_prior_for_kind, generate_dataset,
                         grid_search_alpha, grid_to_csv, load_dataset,
                         load_experiment_config, run_comparison, save_dataset,
                         score_model, train_trial)
from .jsonconfig import config_from_json, json_object, json_value
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


# Hand-written help for the settings whose name and default say too little.
_HELP = {"trials": "seeds per method in compare and grid-search; train runs one",
         "early_stop_time": "anticipation time (s) scored for model selection",
         "modalities": "e.g. rgb:16,flow:16"}


def _settings(defaults) -> dict:
    """Field -> (type, default) of the config instance ``defaults``."""
    hints = get_type_hints(type(defaults))
    return {f.name: (hints[f.name], getattr(defaults, f.name))
            for f in fields(defaults)}


def _add_settings(p: argparse.ArgumentParser, settings: dict,
                  prefix: str = "") -> None:
    """A ``--<prefix><name>`` flag per setting (name -> (type, default)): an
    int or float setting takes its type, a tuple one its text spec. Each is
    None unless given, so an unset flag leaves a config file's value."""
    for name, (tp, default) in settings.items():
        scalar = tp in (int, float)
        shown = f"(default {default})" if scalar and default is not None else ""
        p.add_argument(f"--{prefix}{name}".replace("_", "-"),
                       type=tp if scalar else None, default=None,
                       help=f"{_HELP.get(name, '')} {shown}".strip())


def _given_flags(args, names, prefix: str = "") -> dict:
    """The ``--<prefix><name>`` flags given, for each of ``names``."""
    given = {name: getattr(args, prefix + name) for name in names}
    return {name: value for name, value in given.items() if value is not None}


_EXPERIMENT_SETTINGS = _settings(ExperimentConfig())
_ALPHA_SETTINGS = _settings(AlphaGrid())


def _add_training_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default="",
                   help="JSON experiment config; flags below override it")
    _add_settings(p, _EXPERIMENT_SETTINGS)


def _experiment_config(args) -> ExperimentConfig:
    config = (load_experiment_config(args.config) if args.config
              else ExperimentConfig())
    return replace(config, **_given_flags(args, _EXPERIMENT_SETTINGS))


# owner -> {synth setting: keyword}: the fields of GrammarConfig and
# ProtocolConfig, and the counts of generate_dataset, which has no config
# class, by their type. ``seed`` seeds both the grammar and the rollout.
_SYNTH_KEYS = {
    GrammarConfig: {"verbs": "num_verbs", "nouns": "num_nouns",
                    "density": "action_density",
                    "sigma_within": "sigma_within",
                    "sigma_between": "sigma_between",
                    "markov_concentration": "markov_concentration",
                    "modalities": "modalities", "seed": "seed"},
    ProtocolConfig: {"stride": "snippet_stride", "encode_steps": "encode_steps",
                     "decode_steps": "decode_steps",
                     "snippet_len": "snippet_len"},
    int: {"videos": "num_videos", "video_length": "video_length",
          "embed_dim": "embed_dim"},
    float: {"noise": "noise_sigma", "cohort_similarity": "cohort_similarity"}}
# Unset grammar settings come from here: the library has no default for
# verbs and nouns, and the CLI sets density on purpose; the rest, and every
# protocol and count setting, default in the library.
_SYNTH_GRAMMAR = GrammarConfig(num_verbs=10, num_nouns=12, action_density=0.5)
_SYNTH_BASE = {GrammarConfig: _SYNTH_GRAMMAR, ProtocolConfig: ProtocolConfig()}
_SYNTH_SETTINGS = {key: _settings(_SYNTH_BASE[owner])[kw]
                   if owner in _SYNTH_BASE
                   else (owner, generate_dataset.__kwdefaults__[kw])
                   for owner, keys in _SYNTH_KEYS.items()
                   for key, kw in keys.items()}


def _pick(settings: dict, *owners) -> dict:
    """The synth ``settings`` (key -> value) of ``owners``, by keyword."""
    return {kw: settings[key] for owner in owners
            for key, kw in _SYNTH_KEYS[owner].items() if key in settings}


def _cmd_synth(args) -> int:
    # the config file on its own, as train reads its own: a bad value is a
    # FormatError; its modalities may also be the flag's text spec
    where = args.config
    doc = json_object(_read_json(where) if where else {}, where,
                      _SYNTH_SETTINGS)
    if isinstance(doc.get("modalities"), str):
        try:
            doc["modalities"] = _parse_modalities(doc["modalities"])
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
    grammar, protocol = (config_from_json(owner, _pick(doc, owner), where,
                                          defaults=base)
                         for owner, base in _SYNTH_BASE.items())
    counts = {kw: json_value(tp, doc[key], where, key)
              for tp in (int, float) for key, kw in _SYNTH_KEYS[tp].items()
              if key in doc}
    # then the flags, through the constructors: a bad value is a ValueError
    flags = _given_flags(args, _SYNTH_SETTINGS)
    if "modalities" in flags:
        flags["modalities"] = _parse_modalities(flags["modalities"])
    grammar = replace(grammar, **_pick(flags, GrammarConfig))
    protocol = replace(protocol, **_pick(flags, ProtocolConfig))
    counts.update(_pick(flags, int, float))
    dataset = generate_dataset(grammar, protocol, seed=grammar.seed, **counts)
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
    grid = AlphaGrid(**_given_flags(args, _ALPHA_SETTINGS, prefix="alpha_"))
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
    _add_settings(p, _SYNTH_SETTINGS)
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
    _add_settings(p, _ALPHA_SETTINGS, prefix="alpha_")
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
