import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softact
from softact import (ExperimentConfig, GrammarConfig, ModelConfig,
                     ProtocolConfig, build_verb_noun_prior,
                     format_annotations, gen_grammar, generate_dataset,
                     init_params, load_dataset, load_experiment_config,
                     load_prior, read_features, save_checkpoint, save_dataset,
                     write_features)
from softact.cli import main
from softact.jsonconfig import config_to_json
from softact.priors import KINDS
from softact.seqmodel import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """The shared tiny dataset, saved once in CLI bundle form."""
    from conftest import SMALL_PROTOCOL  # noqa: F401  (documents the protocol)
    from softact import GrammarConfig, generate_dataset

    grammar = GrammarConfig(num_verbs=3, num_nouns=3, action_density=1.0,
                            modalities=(("rgb", 6), ("flow", 5)), seed=7)
    dataset = generate_dataset(grammar, SMALL_PROTOCOL, num_videos=24,
                               video_length=10, noise_sigma=0.4, seed=7)
    out = tmp_path_factory.mktemp("data") / "bundle"
    save_dataset(dataset, out)
    return out


FAST_FLAGS = ["--epochs", "2", "--batch-size", "32", "--hidden-size", "8",
              "--trials", "1"]


# ------------------------------------------------------------- exit codes


def test_exit_codes(tmp_path, toy_vocab, data_dir, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    assert main(["train", "--data", str(tmp_path / "missing"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    # a checkpoint of another K or other feature dims is a data mismatch
    dataset = load_dataset(data_dir)
    for classes, modalities in ((dataset.K + 1, dataset.modalities),
                                (dataset.K, (("rgb", 6), ("flow", 4)))):
        save_checkpoint(init_params(ModelConfig(
            modalities=modalities, num_classes=classes, hidden_size=2)),
            tmp_path / "other.bin")
        assert main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(tmp_path / "other.bin")]) == 2
    assert "feature dims (6, 4) do not match" in capsys.readouterr().err
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(toy_vocab.to_json())
    assert main(["build-prior", "--kind", "glove", "--vocab", str(vocab_path),
                 "--out", str(tmp_path / "p.csv")]) == 1  # missing --embeddings
    assert main(["build-prior", "--kind", "uniform",
                 "--vocab", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "p.csv")]) == 2  # unreadable input
    (tmp_path / "junk.json").write_text("{}")
    assert main(["build-prior", "--kind", "uniform",
                 "--vocab", str(tmp_path / "junk.json"),
                 "--out", str(tmp_path / "p.csv")]) == 2  # not a vocabulary
    ann_path = tmp_path / "annotations.csv"
    ann_path.write_text("video_id,start_s,verb,noun\nv1,0,jump,rope\n")
    assert main(["build-prior", "--kind", "temporal", "--vocab",
                 str(vocab_path), "--annotations", str(ann_path),
                 "--out", str(tmp_path / "p.csv")]) == 2  # unknown action
    assert "unknown action ('jump', 'rope')" in capsys.readouterr().err


def test_python_m_softact_runs_the_cli():
    src = str(Path(softact.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-m", "softact", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "build-prior" in done.stdout


# ------------------------------------------------------------ build-prior


def test_build_prior_uniform(tmp_path, toy_vocab, capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(toy_vocab.to_json())
    out = tmp_path / "uniform.csv"
    assert main(["build-prior", "--kind", "uniform", "--vocab",
                 str(vocab_path), "--out", str(out)]) == 0
    assert "uniform" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert [float(x) for x in line.split(",")] == [0.25] * 4


def test_build_prior_verb_noun(tmp_path, toy_vocab, capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(toy_vocab.to_json())
    out = tmp_path / "vn.csv"
    assert main(["build-prior", "--kind", "vn", "--vocab", str(vocab_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    prior = load_prior(out)
    assert prior.kind == "verb_noun"
    np.testing.assert_array_equal(prior.rows,
                                  build_verb_noun_prior(toy_vocab).rows)


def test_build_prior_temporal(tmp_path, ab_vocab, capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(ab_vocab.to_json())
    ann_path = tmp_path / "annotations.csv"
    ann_path.write_text(format_annotations(np.array([[0, 1, 0, 1]]),
                                           ab_vocab))
    out = tmp_path / "temporal.csv"
    assert main(["build-prior", "--kind", "temporal", "--vocab",
                 str(vocab_path), "--annotations", str(ann_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    np.testing.assert_array_equal(load_prior(out).rows, [[0, 1], [1, 0]])
    # temporal without annotations is a usage error
    assert main(["build-prior", "--kind", "temporal", "--vocab",
                 str(vocab_path), "--out", str(out)]) == 1
    capsys.readouterr()



def test_build_prior_annotation_errors_name_the_file(tmp_path, ab_vocab,
                                                     capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(ab_vocab.to_json())
    ann_path = tmp_path / "annotations.csv"
    out = tmp_path / "temporal.csv"
    header = "video_id,start_s,verb,noun\n"
    for text, message in (("", "line 1: missing header"),
                          (header + "vid0,0,va\n",
                           "line 2: expected 4 columns"),
                          (header + "vid0,0,jump,rope\n",
                           "line 2: unknown action ('jump', 'rope')"),
                          # csv.reader's field limit (131072 characters)
                          (header + "vid0,0,va," + "n" * 200_000 + "\n",
                           "line 2: field larger than field limit"),
                          # NaN used to parse and leave its video's order
                          # arbitrary; inf, and so 1e400, parsed too
                          *((header + f"vid0,0,va,na\nvid0,{start},vb,nb\n",
                             "line 3: start_time must be finite and >= 0, "
                             f"got {float(start)}")
                            for start in ("nan", "inf", "1e400"))):
        ann_path.write_text(text)
        assert main(["build-prior", "--kind", "temporal", "--vocab",
                     str(vocab_path), "--annotations", str(ann_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ann_path}: ") and message in err
    assert not out.exists()


def test_build_prior_refuses_a_json_out(tmp_path, toy_vocab, capsys):
    # the sidecar would overwrite the matrix; exit 1 before writing
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(toy_vocab.to_json())
    out = tmp_path / "prior.json"
    assert main(["build-prior", "--kind", "vn", "--vocab", str(vocab_path),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err == f"error: {out}: a prior CSV may not end in " \
                           f".json, the suffix of its sidecar\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.json"]


def test_build_prior_glove_and_mix(tmp_path, toy_vocab, capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(toy_vocab.to_json())
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("cut 1 0\nwash 0 1\nonion 1 0\ncarrot 0 1\n")
    for kind in ("glove", "mix"):
        out = tmp_path / f"{kind}.csv"
        assert main(["build-prior", "--kind", kind, "--vocab",
                     str(vocab_path), "--embeddings", str(emb_path),
                     "--out", str(out)]) == 0
        prior = load_prior(out)
        assert prior.K == 4
        np.testing.assert_allclose(prior.rows.sum(axis=1), 1.0, atol=1e-12)
    assert load_prior(tmp_path / "mix.csv").kind == "glove+verb_noun"
    capsys.readouterr()


# ------------------------------------------------------------------ synth


def test_synth_writes_loadable_bundle(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out-dir", str(out), "--verbs", "3", "--nouns",
                 "3", "--density", "1.0", "--videos", "6", "--video-length",
                 "5", "--modalities", "rgb:4", "--encode-steps", "2",
                 "--decode-steps", "3", "--seed", "1"]) == 0
    assert "K=9" in capsys.readouterr().out
    ds = load_dataset(out)
    assert ds.K == 9
    assert ds.modalities == (("rgb", 4),)
    assert ds.protocol.decode_steps == 3
    total = ds.train.num_samples + ds.val.num_samples + ds.test.num_samples
    assert total == 6 * 4


def test_synth_config_file_with_overrides(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "verbs": 3, "nouns": 3, "density": 1.0, "videos": 6,
        "video_length": 5, "modalities": "rgb:4", "encode_steps": 2,
        "decode_steps": 3, "seed": 1,
    }))
    out = tmp_path / "ds"
    assert main(["synth", "--out-dir", str(out), "--config", str(config),
                 "--videos", "8"]) == 0
    capsys.readouterr()
    ds = load_dataset(out)
    total = ds.train.num_samples + ds.val.num_samples + ds.test.num_samples
    assert total == 8 * 4  # the flag overrode the config file


def test_synth_defaults_match_the_library(tmp_path, capsys):
    # the CLI sets only verbs, nouns and density; the rest is the library's
    assert main(["synth", "--out-dir", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    dataset = generate_dataset(GrammarConfig(10, 12, action_density=0.5),
                               ProtocolConfig())
    save_dataset(dataset, tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
    for name in names:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "lib" / name).read_bytes()), name


def test_synth_k1200_grammar_is_parameters_only(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out-dir", str(out), "--verbs", "40", "--nouns",
                 "60", "--videos", "2", "--video-length", "6"]) == 0
    assert "K=1200" in capsys.readouterr().out
    assert (out / "grammar.json").stat().st_size < 64 * 1024
    grammar = gen_grammar(load_dataset(out).grammar)
    assert grammar.transition.shape == (1200, 1200)


@pytest.mark.parametrize("edit", ["seed", "num_verbs", "vocab", "modalities",
                                  "dim"])
def test_train_rejects_grammar_unlike_bundle(tmp_path, data_dir, capsys, edit):
    # another seed draws another vocabulary, as would a numpy whose random
    # stream changed; another grid size or modality list is a foreign
    # grammar, and a hostile dim must be refused before gen_grammar sizes
    # arrays by it. grammar.json holds GrammarConfig's fields only, so the
    # copy of vocab.json that version 1 stored is an unknown key.
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    grammar = json.loads((bundle / "grammar.json").read_text())
    if edit == "vocab":
        grammar["vocab"] = json.loads((bundle / "vocab.json").read_text())
    elif edit == "modalities":
        grammar["modalities"] = [["rgb", 5], ["depth", 3]]
    elif edit == "dim":
        grammar["modalities"][0][1] = 10 ** 9
    else:
        grammar[edit] += 1
    (bundle / "grammar.json").write_text(json.dumps(grammar))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "grammar.json" in err
    if edit == "vocab":
        assert "unknown keys ['vocab']" in err
    assert not out.exists()


def test_train_rejects_version_1_bundle(tmp_path, data_dir, capsys):
    # a version 1 manifest stored (previous, target) pairs and the
    # embedding width; synth with the same flags writes the bundle anew
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    dataset = load_dataset(bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    del manifest["train_previous"]
    manifest.update(version=1,
                    embedding_dimension=dataset.embeddings.dimension,
                    train_pairs=[list(pair) for pair in zip(
                        dataset.train_previous.tolist(),
                        dataset.train.targets.tolist())])
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "temporal", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "manifest.json: unsupported version 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_manifest_with_stale_keys_exits_2(tmp_path, data_dir, capsys):
    # a version 2 manifest that still holds version 1's copies: which copy
    # would be read is hidden, so train and eval refuse the bundle
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    dataset = load_dataset(bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest.update(embedding_dimension=dataset.embeddings.dimension,
                    train_pairs=[[0, 0]])
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    checkpoint = tmp_path / "model.bin"
    save_checkpoint(init_params(ModelConfig(
        modalities=dataset.modalities, num_classes=dataset.K,
        hidden_size=2)), checkpoint)
    out = tmp_path / "run"
    for argv in (["train", "--data", str(bundle), "--out-dir", str(out),
                  "--method", "temporal", *FAST_FLAGS],
                 ["eval", "--data", str(bundle), "--checkpoint",
                  str(checkpoint)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("manifest.json: unknown keys ['embedding_dimension', "
                "'train_pairs']") in err
        assert "Traceback" not in err
    assert not out.exists()


def test_synth_config_errors(tmp_path, capsys):
    bad = tmp_path / "synth.json"
    bad.write_text('{"verbz": 3}')
    assert main(["synth", "--out-dir", str(tmp_path / "ds"),
                 "--config", str(bad)]) == 1
    bad.write_text("{oops")
    assert main(["synth", "--out-dir", str(tmp_path / "ds"),
                 "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("modalities", ["rgb:0", "rgb:8,flow:-2"])
def test_synth_rejects_dims_below_one(tmp_path, capsys, modalities):
    out = tmp_path / "ds"
    assert main(["synth", "--out-dir", str(out), "--verbs", "2", "--nouns",
                 "2", "--modalities", modalities]) == 2
    assert "feature dims must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ train


def test_train_writes_artifacts(tmp_path, data_dir, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 0
    stdout = capsys.readouterr().out
    assert "verb_noun alpha=0.45" in stdout
    assert (out / "checkpoint.bin").exists()
    assert (out / "metrics.csv").exists()
    log = (out / "train_log.txt").read_text()
    assert log.count("epoch") == 3  # two epochs + the best-epoch line
    assert "best epoch" in log


def test_train_and_compare_write_one_run_format(tmp_path, data_dir, capsys):
    # one writer: a train directory and the run directory of a one-trial
    # compare hold the same bytes, and train_log.txt is what --verbose shows
    flags = ["--epochs", "2", "--hidden-size", "4", "--batch-size", "32",
             "--many-shot-threshold", "5"]
    train, cmp = tmp_path / "train", tmp_path / "cmp"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(train),
                 "--method", "vn", "--verbose", *flags]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(cmp),
                 "--methods", "vn", "--trials", "1", *flags]) == 0
    capsys.readouterr()
    run = cmp / "runs" / "verb_noun" / "alpha_0.45" / "seed_0"
    for name in ("checkpoint.bin", "train_log.txt", "metrics.csv"):
        assert (train / name).read_bytes() == (run / name).read_bytes(), name
    assert "action_precision@" in (train / "metrics.csv").read_text()
    log = (train / "train_log.txt").read_text().splitlines()
    assert len(log) == 3 and stdout[:-1] == log
    assert stdout[-1].startswith("verb_noun alpha=0.45: best epoch ")


def test_train_uses_config_file_smoothing(tmp_path, data_dir, capsys):
    # the smoothing (kind, alpha) comes from the flags and the training
    # settings from the config file; train runs with both
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "epochs": 2, "batch_size": 32, "trials": 1, "hidden_size": 8,
        "early_stop_time": 0.5,
    }))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--config", str(config), "--method", "uniform",
                 "--alpha", "0.2"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("uniform alpha=0.2: best epoch ")
    assert "@0.5s " in stdout


@pytest.mark.parametrize("kind, cli", [(k, c) for k, (c, _) in KINDS.items()])
def test_train_every_method_spelling(tmp_path, data_dir, capsys, kind, cli):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--method", cli, *FAST_FLAGS]) == 0
    assert capsys.readouterr().out.startswith(f"{kind} alpha=")


def test_train_rejects_unknown_spellings(tmp_path, data_dir, capsys):
    for name in ("mixture", "verb_noun", "glove+verb_noun"):
        assert main(["train", "--data", str(data_dir), "--out-dir",
                     str(tmp_path / "run"), "--method", name,
                     *FAST_FLAGS]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("past_end", [True, False])
def test_train_rejects_out_of_range_train_previous(tmp_path, data_dir, capsys,
                                                   past_end):
    # id K used to crash the temporal prior; -1 wrapped to action K - 1
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    K = load_dataset(bundle).K
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["train_previous"][0] = K if past_end else -1
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["train", "--data", str(bundle), "--out-dir",
                 str(tmp_path / "run"), "--method", "temporal",
                 *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "'train_previous' has an action id outside" in err
    assert f"[0, {K})" in err
    assert not (tmp_path / "run").exists()


def test_train_rejects_out_of_range_split_target(tmp_path, data_dir, capsys):
    # used to train the whole run, then fail in build_report (IndexError)
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    K = load_dataset(bundle).K
    test = read_features(bundle / "test.feat")
    test.targets[0] = K
    write_features(test, bundle / "test.feat")
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "test.feat" in err and f"[0, {K})" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("section,key,message", [
    ("modalities", 0, "do not match the manifest's modalities"),
    ("protocol", "encode_steps", "timesteps, the protocol has"),
])
def test_train_rejects_splits_unlike_manifest(tmp_path, data_dir, capsys,
                                              section, key, message):
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    if section == "modalities":
        manifest["modalities"][key][1] += 1
    else:
        manifest["protocol"][key] += 1
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("retype", [float, str, bool])
def test_train_rejects_vocab_with_mistyped_action_ids(tmp_path, data_dir,
                                                      capsys, retype):
    # the retyped id equals the stored one, so int() would load the bundle
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    path = bundle / "vocab.json"
    doc = json.loads(path.read_text())
    k = next(k for k, (v, _) in enumerate(doc["actions"]) if v in (0, 1))
    doc["actions"][k][0] = retype(doc["actions"][k][0])
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"'actions[{k}][0]' must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("edit", [{"verbs": "ab"}, {"actions": [[0.9, 0]]},
                                  {"actions": [[True, 0]]},
                                  {"actions": [["0", 0]]}])
def test_build_prior_rejects_mistyped_vocab(tmp_path, toy_vocab, capsys,
                                            edit):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({**json.loads(toy_vocab.to_json()), **edit}))
    out = tmp_path / "p.csv"
    assert main(["build-prior", "--kind", "uniform", "--vocab", str(path),
                 "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_vocab_with_unnormalized_token_exits_2(tmp_path, data_dir, capsys):
    # "Cut" could never be looked up (action_id normalizes its query), so
    # the vocabulary is refused where it is read, by build-prior --vocab
    # and load_dataset alike, not row by row of --annotations
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"verbs": ["Cut"], "nouns": ["onion"],
                                 "actions": [[0, 0]]}))
    annotations = tmp_path / "annotations.csv"
    annotations.write_text("video_id,start_s,verb,noun\nv,0,Cut,onion\n"
                           "v,1,cut,onion\n")
    out = tmp_path / "p.csv"
    assert main(["build-prior", "--kind", "temporal", "--vocab", str(vocab),
                 "--annotations", str(annotations), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{vocab}: token 'Cut' is empty or not normalized" in err
    assert not out.exists()

    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    path = bundle / "vocab.json"
    doc = json.loads(path.read_text())
    doc["nouns"][0] = " " + doc["nouns"][0]
    path.write_text(json.dumps(doc))
    run = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(run),
                 *FAST_FLAGS]) == 2
    assert (f"{path}: token {doc['nouns'][0]!r} is empty or not normalized"
            in capsys.readouterr().err)
    assert not run.exists()


@pytest.mark.parametrize("name", ["manifest.json", "vocab.json",
                                  "grammar.json", "annotations.csv",
                                  "embeddings.txt"])
def test_train_rejects_bundle_file_not_utf8(tmp_path, data_dir, capsys, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    (bundle / name).write_bytes(b"\xff\xfe{" + (bundle / name).read_bytes())
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert name in err and "not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{", "not UTF-8"),
    (b'{"learning_rate": NaN}', "'learning_rate' must be finite"),
    (b'{"early_stop_time": Infinity}', "'early_stop_time' must be finite"),
    # the nested smoothing key is gone, so its file fails as an unknown key
    (b'{"smoothing": {"alpha": -Infinity}}', "unknown keys ['smoothing']"),
])
def test_train_rejects_config_not_utf8_or_not_finite(tmp_path, data_dir,
                                                     capsys, text, message):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_divergence_in_validation_exits_2(tmp_path, data_dir, capsys,
                                          command):
    # one batch holds the whole train split, so the first non-finite value
    # shows in the validation forward, not in a training loss
    method = ["--method", "vn"] if command == "train" else ["--methods",
                                                              "onehot"]
    assert main([command, "--data", str(data_dir), "--out-dir",
                 str(tmp_path / "run"), *method, "--epochs", "2",
                 "--trials", "1", "--hidden-size", "4",
                 "--learning-rate", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "error: epoch 1, validation: non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [
    ("--learning-rate", "nan"), ("--learning-rate", "inf"),
    ("--early-stop-time", "nan"), ("--early-stop-time", "inf"),
])
def test_train_rejects_non_finite_flags(tmp_path, data_dir, capsys, flag,
                                        value):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS, flag, value]) == 1
    err = capsys.readouterr().err
    assert "must be positive and finite" in err and "Traceback" not in err
    assert not out.exists()


def test_non_finite_feature_exits_2(tmp_path, data_dir, capsys):
    # used to train, write checkpoint.bin and train_log.txt, then end in a
    # FloatingPointError traceback while scoring the test split
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    test = read_features(bundle / "test.feat")
    test.features[1][0, 2, 3] = np.nan
    write_features(test, bundle / "test.feat")
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "test.feat: a feature value is not finite" in err
    assert "Traceback" not in err
    assert not out.exists()
    dataset = load_dataset(data_dir)
    save_checkpoint(init_params(ModelConfig(
        modalities=dataset.modalities, num_classes=dataset.K,
        hidden_size=2)), tmp_path / "model.bin")
    assert main(["eval", "--data", str(bundle), "--checkpoint",
                 str(tmp_path / "model.bin"), "--out",
                 str(tmp_path / "eval.csv")]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err
    assert not (tmp_path / "eval.csv").exists()



@pytest.mark.parametrize("name", ["train", "test"])
def test_empty_split_exits_2(tmp_path, data_dir, capsys, name):
    # an empty train split used to end train in a ZeroDivisionError
    # traceback, and an empty test split eval in exit code 1
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    path = bundle / f"{name}.feat"
    write_features(read_features(path).subset([]), path)
    dataset = load_dataset(data_dir)
    save_checkpoint(init_params(ModelConfig(
        modalities=dataset.modalities, num_classes=dataset.K,
        hidden_size=2)), tmp_path / "model.bin")
    run, csv = tmp_path / "run", tmp_path / "eval.csv"
    for argv in (["train", "--data", str(bundle), "--out-dir", str(run),
                  "--method", "vn", *FAST_FLAGS],
                 ["eval", "--data", str(bundle), "--checkpoint",
                  str(tmp_path / "model.bin"), "--out", str(csv)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: no samples" in err and "Traceback" not in err
    assert not run.exists() and not csv.exists()


@pytest.mark.parametrize("edit", ["cut", "extend"])
def test_train_rejects_train_previous_unlike_train_split(tmp_path, data_dir,
                                                         capsys, edit):
    # a manifest cut to 3 pairs used to train on a temporal prior of them
    bundle = tmp_path / "bundle"
    shutil.copytree(data_dir, bundle)
    n = load_dataset(bundle).train.num_samples
    manifest = json.loads((bundle / "manifest.json").read_text())
    previous = manifest["train_previous"]
    manifest["train_previous"] = (previous[:3] if edit == "cut"
                                  else previous * 2)
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--out-dir", str(out),
                 "--method", "temporal", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    held = 3 if edit == "cut" else 2 * n
    assert (f"manifest.json: malformed manifest: 'train_previous' holds "
            f"{held} ids, train.feat {n} samples") in err
    assert not out.exists()

@pytest.mark.parametrize("index", [0, -1])  # first LSTM matrix, fusion bias
def test_eval_rejects_non_finite_checkpoint(tmp_path, data_dir, capsys,
                                            index):
    dataset = load_dataset(data_dir)
    params = init_params(ModelConfig(modalities=dataset.modalities,
                                     num_classes=dataset.K, hidden_size=2))
    params.weights[index].flat[0] = np.inf
    save_checkpoint(params, tmp_path / "model.bin")
    out = tmp_path / "eval.csv"
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(tmp_path / "model.bin"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "a checkpoint value is not finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_eval_rejects_checkpoint_that_overflows(tmp_path, data_dir, capsys):
    # finite weights so large that the logits are not
    dataset = load_dataset(data_dir)
    params = init_params(ModelConfig(modalities=dataset.modalities,
                                     num_classes=dataset.K, hidden_size=2))
    params.weights[-2][:] = params.weights[-1][:] = 1.7e308
    ckpt = tmp_path / "model.bin"
    save_checkpoint(params, ckpt)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: non-finite logits in forward pass" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_version_1_checkpoint(tmp_path, data_dir, capsys):
    # version 1 held adam_step in its header and Adam's moments after the
    # weights; there is no converter, so train is rerun instead
    dataset = load_dataset(data_dir)
    params = init_params(ModelConfig(modalities=dataset.modalities,
                                     num_classes=dataset.K, hidden_size=2))
    blob = json.dumps({**config_to_json(params.config),
                       "adam_step": 0}).encode()
    ckpt = tmp_path / "model.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob
                     + b"".join(w.tobytes() for w in params.weights * 3))
    out = tmp_path / "eval.csv"
    assert main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: unsupported checkpoint version 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_onehot_rejects_nonzero_alpha(tmp_path, data_dir, capsys):
    # train resolves its method like compare, so both refuse this
    for command, method in (("train", ["--method", "onehot", "--alpha",
                                       "0.3"]),
                            ("compare", ["--methods", "onehot",
                                         "--set-alpha", "onehot=0.3"])):
        out = tmp_path / command
        assert main([command, "--data", str(data_dir), "--out-dir", str(out),
                     *method, *FAST_FLAGS]) == 1
        err = capsys.readouterr().err
        assert "onehot runs must use alpha 0" in err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("smoothing", {"alpha": 0.2, "prior_kind": "uniform"}),
    ("alpha_grid", {"start": 0.0, "stop": 0.5, "step": 0.25}),
], ids=["smoothing", "alpha_grid"])
def test_config_file_holds_no_method_or_grid(tmp_path, data_dir, capsys, key,
                                             value):
    # the method and the alpha grid come from flags, so a config file that
    # still names them is refused like any unknown key
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value, "epochs": 2}))
    for command, flags in (("train", []), ("grid-search", ["--method", "vn"]),
                           ("compare", [])):
        out = tmp_path / command
        assert main([command, "--data", str(data_dir), "--out-dir", str(out),
                     "--config", str(config), *flags]) == 2
        err = capsys.readouterr().err
        assert "config.json" in err and f"unknown keys ['{key}']" in err
        assert not out.exists()
    # grid-search has no default method
    out = tmp_path / "grid"
    assert main(["grid-search", "--data", str(data_dir), "--out-dir",
                 str(out), *FAST_FLAGS]) == 1
    assert "--method" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["3", "0"])
def test_train_rejects_trials_other_than_one(tmp_path, data_dir, capsys,
                                             trials):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--method", "vn", *FAST_FLAGS, "--trials", trials]) == 1
    err = capsys.readouterr().err
    assert "train runs one trial" in err and "compare" in err
    assert not out.exists()


def test_train_flag_overrides_config_alpha(tmp_path, data_dir, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(out),
                 "--method", "uniform", "--alpha", "0.3", *FAST_FLAGS]) == 0
    assert "uniform alpha=0.3" in capsys.readouterr().out


# ------------------------------------------------------------ grid-search


def test_grid_search_artifacts(tmp_path, data_dir, capsys):
    out = tmp_path / "grid"
    assert main(["grid-search", "--data", str(data_dir), "--out-dir",
                 str(out), "--method", "vn", "--alpha-start", "0",
                 "--alpha-stop", "0.5", "--alpha-step", "0.25",
                 *FAST_FLAGS]) == 0
    stdout = capsys.readouterr().out
    assert "best alpha for verb_noun" in stdout
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert grid_lines[0] == "alpha,mean_val_top5,trials"
    assert [line.split(",")[0] for line in grid_lines[1:]] == ["0", "0.25",
                                                               "0.5"]
    best = json.loads((out / "best_alpha.json").read_text())
    assert best["kind"] == "verb_noun"
    assert best["best_alpha"] in (0.0, 0.25, 0.5)


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_grid_search_rejects_non_finite_step(tmp_path, data_dir, capsys,
                                             step):
    # inf used to search the one alpha nan; nan failed in int()
    out = tmp_path / "grid"
    assert main(["grid-search", "--data", str(data_dir), "--out-dir",
                 str(out), "--method", "vn", "--alpha-step", step,
                 *FAST_FLAGS]) == 1
    assert (f"error: step must be positive and finite, got {step}"
            in capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------- compare


def test_compare_and_report_roundtrip(tmp_path, data_dir, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(out),
                 "--methods", "onehot,vn", "--set-alpha", "vn=0.3",
                 *FAST_FLAGS]) == 0
    stdout = capsys.readouterr().out
    assert "action_top5" in stdout  # summary table printed
    assert (out / "report.csv").exists()
    methods = json.loads((out / "methods.json").read_text())
    assert [(m["name"], m["alpha"]) for m in methods] == [("onehot", 0.0),
                                                          ("verb_noun", 0.3)]

    assert main(["report", "--runs", str(out), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("method,")
    assert main(["report", "--runs", str(out / "report.csv"),
                 "--format", "plotdata"]) == 0
    plot_out = capsys.readouterr().out
    assert plot_out.splitlines()[0] == "method,metric,anticipation_time,mean,std"
    saved = tmp_path / "table.txt"
    assert main(["report", "--runs", str(out), "--format", "table",
                 "--out", str(saved)]) == 0
    capsys.readouterr()
    assert "onehot" in saved.read_text()


def test_compare_record_replays(tmp_path, data_dir, capsys):
    # config.json holds the run's settings and nothing else, so compare
    # --config of it, with the same methods, reruns the comparison
    methods = ["--methods", "onehot,vn", "--set-alpha", "vn=0.3"]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(first),
                 *methods, *FAST_FLAGS, "--trials", "2", "--seed", "3"]) == 0
    record = first / "config.json"
    assert list(json.loads(record.read_text())) == [
        f.name for f in dataclasses.fields(ExperimentConfig)]
    assert load_experiment_config(record) == ExperimentConfig(
        epochs=2, batch_size=32, hidden_size=8, trials=2, seed=3)
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(again),
                 "--config", str(record), *methods]) == 0
    capsys.readouterr()
    assert ((again / "report.csv").read_bytes()
            == (first / "report.csv").read_bytes())


def test_compare_accepts_every_method_spelling(tmp_path, data_dir, capsys):
    spellings = [cli for cli, _ in KINDS.values()]
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(out),
                 "--methods", ",".join(spellings), *FAST_FLAGS]) == 0
    capsys.readouterr()
    methods = json.loads((out / "methods.json").read_text())
    assert [m["kind"] for m in methods] == list(KINDS)
    assert [m["alpha"] for m in methods] == [a for _, a in KINDS.values()]


def test_compare_rejects_unknown_method(tmp_path, data_dir, capsys):
    assert main(["compare", "--data", str(data_dir), "--out-dir",
                 str(tmp_path / "cmp"), "--methods", "onehot,nope",
                 *FAST_FLAGS]) == 1
    assert main(["compare", "--data", str(data_dir), "--out-dir",
                 str(tmp_path / "cmp"), "--set-alpha", "bogus",
                 *FAST_FLAGS]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("specs, refused", [
    (["glove=0.3"], "glove=0.3"),
    (["vn=0.2", "vn=0.3"], "vn=0.3"),
    (["glove=0.3", "vn=0.2", "vn=0.3"], "glove=0.3"),
    (["vn=abc"], "vn=abc"),
], ids=["kind-not-compared", "kind-given-twice", "both", "alpha-not-a-number"])
def test_compare_set_alpha_drops_no_spec(tmp_path, data_dir, capsys, specs,
                                         refused):
    # an alpha for a kind that is not compared, or a kind's second alpha,
    # would change nothing, so the spec is named rather than dropped; so is
    # an alpha that is not a number, rather than float()'s message
    out = tmp_path / "cmp"
    flags = [f for spec in specs for f in ("--set-alpha", spec)]
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(out),
                 "--methods", "onehot,vn", *flags, *FAST_FLAGS]) == 1
    err = capsys.readouterr().err
    assert f"--set-alpha {refused!r}" in err
    if refused == "vn=abc":
        assert err == "error: bad --set-alpha 'vn=abc'; use kind=alpha\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compare_rejects_jobs_below_one(tmp_path, data_dir, capsys, jobs):
    # -3 used to run serially without a word
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(data_dir), "--out-dir", str(out),
                 "--methods", "onehot", "--jobs", jobs, *FAST_FLAGS]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- eval


def test_eval_checkpoint(tmp_path, data_dir, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(run),
                 *FAST_FLAGS]) == 0
    assert capsys.readouterr().out.startswith("onehot alpha=0:")  # default
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(run / "checkpoint.bin"), "--split", "val",
                 "--name", "mymodel"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("method,")
    assert "\nmymodel," in stdout
    out_csv = tmp_path / "eval.csv"
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert out_csv.read_text().startswith("method,")


def test_eval_name_with_a_comma_reports(tmp_path, data_dir, capsys):
    checkpoint = tmp_path / "model.bin"
    dataset = load_dataset(data_dir)
    save_checkpoint(init_params(ModelConfig(
        modalities=dataset.modalities, num_classes=dataset.K,
        hidden_size=4)), checkpoint)
    out_csv = tmp_path / "e.csv"
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(checkpoint), "--name", "a,b", "--out", str(out_csv)]) == 0
    assert main(["report", "--runs", str(out_csv), "--format", "csv"]) == 0
    assert capsys.readouterr().out.endswith(out_csv.read_text())
    assert main(["report", "--runs", str(out_csv), "--format", "table"]) == 0
    assert "\na,b " in capsys.readouterr().out


def test_eval_reproduces_train_metrics(tmp_path, data_dir, capsys):
    # train and eval count the test split the same way, chunk by chunk
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(run),
                 "--method", "vn", *FAST_FLAGS]) == 0
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(run / "checkpoint.bin"), "--name", "verb_noun",
                 "--out", str(tmp_path / "eval.csv")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "eval.csv").read_bytes()
            == (run / "metrics.csv").read_bytes())


def test_eval_mismatched_dataset(tmp_path, data_dir, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out-dir", str(run),
                 "--method", "onehot", *FAST_FLAGS]) == 0
    other = tmp_path / "other"
    assert main(["synth", "--out-dir", str(other), "--verbs", "2", "--nouns",
                 "2", "--videos", "6", "--video-length", "5", "--modalities",
                 "rgb:4", "--encode-steps", "2", "--decode-steps", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(other), "--checkpoint",
                 str(run / "checkpoint.bin")]) == 2
    assert "checkpoint has 9 classes, dataset has" in capsys.readouterr().err


def test_eval_many_shot_default_is_the_config_default(capsys):
    assert main(["eval", "--help"]) == 0
    default = ExperimentConfig().many_shot_threshold
    assert f"(default {default})" in capsys.readouterr().out


def test_eval_rejects_many_shot_threshold_below_one(tmp_path, data_dir,
                                                    capsys):
    dataset = load_dataset(data_dir)
    save_checkpoint(init_params(ModelConfig(
        modalities=dataset.modalities, num_classes=dataset.K,
        hidden_size=2)), tmp_path / "model.bin")
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(tmp_path / "model.bin"), "--many-shot-threshold",
                 "0"]) == 1
    assert ("many-shot threshold must be >= 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("config, message", [
    (b"[1,2]", "not a JSON object"),
    (b'{"modalities": [["rgb", 4]]}', "no key 'num_classes'"),
    # version 1's header key, in a version 2 header
    (b'{"modalities": [["rgb", 4]], "num_classes": 3, "hidden_size": 2, '
     b'"learning_rate": 0.001, "seed": 0, "adam_step": 7}',
     "bad checkpoint config: unknown keys ['adam_step']"),
])
def test_eval_rejects_bad_checkpoint_config(tmp_path, data_dir, capsys,
                                            config, message):
    ckpt = tmp_path / "model.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                                    len(config)) + config)
    assert main(["eval", "--data", str(data_dir), "--checkpoint",
                 str(ckpt)]) == 2
    assert message in capsys.readouterr().err


# ----------------------------------------------------------------- report


def test_report_missing_runs(tmp_path, capsys):
    assert main(["report", "--runs", str(tmp_path / "nope")]) == 2
    bad = tmp_path / "report.csv"
    bad.write_text("not,a,report\n")
    assert main(["report", "--runs", str(bad)]) == 2
    bad.write_text("method\nfoo\n")
    assert main(["report", "--runs", str(bad)]) == 2
    assert "no metric columns" in capsys.readouterr().err
    # csv.reader's field limit (131072 characters); the error names the
    # file and the line
    bad.write_text("method,action_top5@1,action_top5@1_std\n"
                   + "x" * 200_000 + ",50.0,1.0\n")
    assert main(["report", "--runs", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: field larger than field "
                          f"limit")
    assert "Traceback" not in err


@pytest.mark.parametrize("metric", ["nope", "action_precision"])
def test_report_rejects_unknown_metric(tmp_path, capsys, metric):
    # the report has no many-shot columns, so no action_precision
    report = tmp_path / "report.csv"
    report.write_text("method,action_top5@1,action_top5@1_std\n"
                      "onehot,50.0,1.0\n")
    assert main(["report", "--runs", str(report), "--metric", metric]) == 1
    err = capsys.readouterr().err
    assert f"no metric {metric!r}" in err and "action_top5" in err
    assert "Traceback" not in err
