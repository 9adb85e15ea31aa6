import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softact.experiment
from softact import (AlphaGrid, Dataset, ExperimentConfig, FeatureSet,
                     FormatError, GrammarConfig, GridPoint, GridSearchResult,
                     MethodSpec, ModelConfig, ParseError, ProtocolConfig,
                     TrainingDiverged, build_prior_for_kind,
                     build_uniform_prior, build_verb_noun_prior,
                     default_methods, evaluate_model, forward_batch,
                     gen_grammar, generate_dataset, grid_search_alpha,
                     grid_to_csv, init_params, load_dataset,
                     load_experiment_config, mix_priors, parse_annotations,
                     run_comparison, run_trial, save_dataset,
                     save_experiment_config, split_dataset, topk_accuracy,
                     train_model, train_trial)
from softact.experiment import DEFAULT_ALPHAS, _model_config, _val_score
from softact.jsonconfig import config_from_json, config_to_json
from softact.metrics import topk_hit_count

from conftest import SMALL_PROTOCOL, assert_same_features


# ------------------------------------------------------------------- grid


def test_alpha_grid_default_has_21_values():
    values = AlphaGrid().values()
    assert len(values) == 21
    assert values[0] == 0.0 and values[-1] == 1.0
    np.testing.assert_allclose(np.diff(values), 0.05, rtol=0, atol=1e-12)


def test_alpha_grid_validation():
    assert AlphaGrid(0.2, 0.6, 0.2).values() == (0.2, 0.4, 0.6)
    with pytest.raises(ValueError):
        AlphaGrid(0.0, 1.0, 0.3)  # does not divide evenly
    with pytest.raises(ValueError):
        AlphaGrid(0.5, 0.4, 0.1)
    with pytest.raises(ValueError):
        AlphaGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AlphaGrid(-0.1, 1.0, 0.1)
    # inf used to give the one value nan, and nan failed in int()
    for step in (np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError, match="step must be positive and "
                                             f"finite, got {step}"):
            AlphaGrid(step=step)


# ----------------------------------------------------------------- config


def test_experiment_config_roundtrip(tmp_path):
    config = ExperimentConfig(
        epochs=7, batch_size=16, trials=3, hidden_size=12,
        learning_rate=0.01, seed=4, early_stop_time=0.5,
        many_shot_threshold=2,
    )
    clone = config_from_json(ExperimentConfig, config_to_json(config), "x")
    assert clone == config
    path = tmp_path / "config.json"
    save_experiment_config(config, path)
    assert load_experiment_config(path) == config


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(epochs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(learning_rate=0.0)
    (tmp_path / "config.json").write_text('{"epohs": 5}')
    with pytest.raises(ValueError):
        load_experiment_config(tmp_path / "config.json")


def test_load_experiment_config_errors(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_experiment_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_experiment_config(bad)
    bad.write_text('{"epochs": 0}')
    with pytest.raises(FormatError):
        load_experiment_config(bad)


# ----------------------------------------------------------------- splits


def test_split_dataset_partitions():
    train, val, test = split_dataset(100, seed=3)
    assert (len(train), len(val), len(test)) == (70, 15, 15)
    combined = np.concatenate([train, val, test])
    assert len(set(combined.tolist())) == 100
    for part in (train, val, test):
        np.testing.assert_array_equal(part, np.sort(part))
    again = split_dataset(100, seed=3)
    np.testing.assert_array_equal(train, again[0])
    other = split_dataset(100, seed=4)
    assert not np.array_equal(train, other[0])


def test_split_dataset_errors():
    # a 70/15/15 split of fewer than 6 samples leaves a split empty
    for n in (0, 3, 5):
        with pytest.raises(ValueError, match=f"{n} samples are too few"):
            split_dataset(n)
    assert [len(part) for part in split_dataset(6)] == [4, 1, 1]


# ---------------------------------------------------------------- dataset


def test_generate_dataset_shapes(tiny_dataset):
    ds = tiny_dataset
    total = ds.train.num_samples + ds.val.num_samples + ds.test.num_samples
    assert total == 24 * (10 - 1)
    assert ds.K == 9
    assert ds.train.timesteps == SMALL_PROTOCOL.total_steps
    assert ds.train_previous.shape == (ds.train.num_samples,)
    # train sample i is a step of a walk: previous and target action ids
    train_idx, _, _ = split_dataset(total, seed=7 + 3)
    np.testing.assert_array_equal(ds.train_previous,
                                  ds.walks[:, :-1].ravel()[train_idx])
    np.testing.assert_array_equal(ds.train.targets,
                                  ds.walks[:, 1:].ravel()[train_idx])
    assert ds.embeddings is not None
    assert ds.walks.shape == (24, 10)


def test_dataset_save_load_roundtrip(tmp_path, tiny_dataset):
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    loaded = load_dataset(out)
    assert loaded.vocab == tiny_dataset.vocab
    assert loaded.protocol == tiny_dataset.protocol
    assert loaded.modalities == tiny_dataset.modalities
    assert_same_features(loaded.train, tiny_dataset.train)
    assert_same_features(loaded.val, tiny_dataset.val)
    assert_same_features(loaded.test, tiny_dataset.test)
    np.testing.assert_array_equal(loaded.train_previous,
                                  tiny_dataset.train_previous)
    assert loaded.walks is None  # only build-prior reads annotations.csv
    assert loaded.embeddings.dimension == tiny_dataset.embeddings.dimension
    for token, vec in tiny_dataset.embeddings.vectors.items():
        np.testing.assert_array_equal(loaded.embeddings.vectors[token], vec)
    # a bundle's grammar is its parameters, which rebuild the arrays
    assert loaded.grammar == tiny_dataset.grammar
    grammar = gen_grammar(loaded.grammar)
    assert grammar.vocab == loaded.vocab
    np.testing.assert_array_equal(grammar.transition,
                                  gen_grammar(tiny_dataset.grammar).transition)


def test_load_dataset_refuses_grammar_with_stored_arrays(tmp_path,
                                                         tiny_dataset):
    # grammar.json holds GrammarConfig's fields and nothing else: the
    # arrays, or the vocabulary, that older bundles stored are unknown keys
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    path = out / "grammar.json"
    good = json.loads(path.read_text())
    assert good == json.loads(json.dumps(config_to_json(tiny_dataset.grammar)))
    grammar = gen_grammar(tiny_dataset.grammar)
    for key, value in (("transition", grammar.transition.tolist()),
                       ("class_means", [grammar.class_means[0].tolist()]),
                       ("vocab", json.loads(tiny_dataset.vocab.to_json()))):
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(FormatError,
                           match=f"grammar.json: unknown keys \\['{key}'\\]"):
            load_dataset(out)


def test_load_dataset_does_not_rebuild_the_grammar(tmp_path, tiny_dataset,
                                                   monkeypatch):
    # loading checks the grammar's parameters without building its K x K
    # chain or its class means
    def refuse(config):
        raise AssertionError("load_dataset called gen_grammar")

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("softact"):
            for name, value in list(vars(module).items()):
                if value is gen_grammar:
                    monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    loaded = load_dataset(out)
    assert isinstance(loaded.grammar, GrammarConfig)
    assert loaded.grammar == tiny_dataset.grammar



def test_load_dataset_does_not_parse_annotations(tmp_path, tiny_dataset,
                                                 monkeypatch):
    # no run reads the annotations, so loading only checks they are UTF-8
    def refuse(*args):
        raise AssertionError("load_dataset called parse_annotations")

    patched = 0
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("softact"):
            for name, value in list(vars(module).items()):
                if value is parse_annotations:
                    monkeypatch.setattr(module, name, refuse)
                    patched += 1
    assert patched
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    loaded = load_dataset(out)
    assert loaded.walks is None
    # so a loaded bundle saves again without annotations.csv
    save_dataset(loaded, tmp_path / "again")
    assert not (tmp_path / "again" / "annotations.csv").exists()
    np.testing.assert_array_equal(
        load_dataset(tmp_path / "again").train_previous, loaded.train_previous)


def test_load_dataset_takes_the_embedding_width_from_the_file(tmp_path,
                                                              tiny_dataset):
    # the manifest does not repeat the width, so embeddings.txt rewritten
    # at another width loads as it is, and a bundle without it has none
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    embeddings = out / "embeddings.txt"
    assert tiny_dataset.embeddings.dimension == 8
    wider = {token: np.append(vec, [0.5, -2.0])
             for token, vec in tiny_dataset.embeddings.vectors.items()}
    embeddings.write_text("".join(
        token + " " + " ".join(f"{x:.17g}" for x in vec) + "\n"
        for token, vec in wider.items()))
    loaded = load_dataset(out).embeddings
    assert loaded.dimension == 10 and loaded.vectors.keys() == wider.keys()
    for token, vec in wider.items():
        np.testing.assert_array_equal(loaded.vectors[token], vec)
    embeddings.unlink()
    assert load_dataset(out).embeddings is None
    # a ragged file is still refused, naming its line
    save_dataset(tiny_dataset, out)
    embeddings.write_text(embeddings.read_text() + "extra 1 2\n")
    with pytest.raises(ParseError, match="expected") as info:
        load_dataset(out)
    assert str(info.value).startswith(f"{embeddings}: line ")


def test_load_dataset_errors(tmp_path, tiny_dataset):
    with pytest.raises(FormatError, match="manifest"):
        load_dataset(tmp_path / "nope")
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    manifest = out / "manifest.json"
    good = manifest.read_text()
    manifest.write_text("{broken")
    with pytest.raises(FormatError, match="JSON"):
        load_dataset(out)
    manifest.write_text("[1, 2]")
    with pytest.raises(FormatError, match="JSON object"):
        load_dataset(out)
    manifest.write_text(good.replace("softact-dataset", "other-format"))
    with pytest.raises(FormatError, match="format"):
        load_dataset(out)
    manifest.write_text(good)
    vocab_file = out / "vocab.json"
    tampered = vocab_file.read_text().replace("va", "vz")
    vocab_file.write_text(tampered)
    with pytest.raises(FormatError, match="hash"):
        load_dataset(out)


@pytest.mark.parametrize("key", ["protocol", "vocab_sha256", "modalities",
                                 "train_previous"])
def test_load_dataset_rejects_manifest_without_key(tmp_path, tiny_dataset,
                                                   key):
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest[key]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"missing keys \\['{key}'\\]"):
        load_dataset(out)


@pytest.mark.parametrize("key, value", [
    ("protocol", [1, 2]), ("protocol", {"encode_steps": "six"}),
    ("train_previous", 7), ("train_previous", [[0, 1]]),
    ("train_previous", [True]), ("modalities", [["rgb"]]),
])
def test_load_dataset_rejects_malformed_manifest(tmp_path, tiny_dataset, key,
                                                 value):
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest[key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="malformed manifest"):
        load_dataset(out)


@pytest.mark.parametrize("text", ["{broken", "[1, 2]", "{}",
                                  '{"vocab": null}'])
def test_load_dataset_rejects_bad_grammar(tmp_path, tiny_dataset, text):
    out = tmp_path / "bundle"
    save_dataset(tiny_dataset, out)
    (out / "grammar.json").write_text(text)
    with pytest.raises(FormatError, match="grammar.json"):
        load_dataset(out)


# ----------------------------------------------------------------- priors


def test_build_prior_for_kind(tiny_dataset):
    ds = tiny_dataset
    assert build_prior_for_kind("onehot", ds) is None
    np.testing.assert_array_equal(build_prior_for_kind("uniform", ds).rows,
                                  build_uniform_prior(ds.K).rows)
    np.testing.assert_array_equal(build_prior_for_kind("verb_noun", ds).rows,
                                  build_verb_noun_prior(ds.vocab).rows)
    temporal = build_prior_for_kind("temporal", ds)
    preceder = np.zeros((ds.K, ds.K))
    for prev, nxt in zip(ds.train_previous, ds.train.targets):
        preceder[nxt, prev] += 1
    seen = preceder.sum(axis=1) > 0
    want = preceder[seen] / preceder[seen].sum(axis=1)[:, None]
    np.testing.assert_array_equal(temporal.rows[seen], want)
    np.testing.assert_array_equal(temporal.rows[~seen], 1.0 / ds.K)
    glove = build_prior_for_kind("glove", ds)
    mixed = build_prior_for_kind("glove+verb_noun", ds)
    want = mix_priors([glove, build_verb_noun_prior(ds.vocab)], [0.5, 0.5])
    np.testing.assert_array_equal(mixed.rows, want.rows)
    with pytest.raises(ValueError):
        build_prior_for_kind("gaussian", ds)


def test_build_prior_requires_embeddings(tiny_dataset):
    ds = tiny_dataset
    stripped = Dataset(vocab=ds.vocab, protocol=ds.protocol,
                       modalities=ds.modalities, train=ds.train, val=ds.val,
                       test=ds.test, train_previous=ds.train_previous)
    with pytest.raises(ValueError, match="embeddings"):
        build_prior_for_kind("glove", stripped)


def test_method_kind_and_specs():
    # methods name kinds by their library names; an unknown one lists them
    assert MethodSpec("m", "glove+verb_noun", 0.5).kind in DEFAULT_ALPHAS
    for kind in ("mixture", "gaussian"):
        with pytest.raises(ValueError, match="glove\\+verb_noun") as err:
            MethodSpec("m", kind, 0.5)
        assert all(repr(k) in str(err.value) for k in DEFAULT_ALPHAS)
    methods = default_methods()
    assert [m.name for m in methods] == list(DEFAULT_ALPHAS)
    assert all(m.alpha == DEFAULT_ALPHAS[m.kind] for m in methods)


# --------------------------------------------------------------- training


def test_run_trial_deterministic(tiny_dataset, fast_config):
    prior = build_verb_noun_prior(tiny_dataset.vocab)
    a, probs_a = run_trial(tiny_dataset, prior, 0.45, trial=0,
                           config=fast_config)
    b, probs_b = run_trial(tiny_dataset, prior, 0.45, trial=0,
                           config=fast_config)
    assert a.history == b.history
    assert a.best_epoch == b.best_epoch
    np.testing.assert_array_equal(probs_a, probs_b)
    for wa, wb in zip(a.params.weights, b.params.weights):
        np.testing.assert_array_equal(wa, wb)
    # a different trial uses a different seed
    c, _ = run_trial(tiny_dataset, prior, 0.45, trial=1, config=fast_config)
    assert c.history != a.history


def test_train_model_learns_separable_classes():
    # zero observation noise: the features reach the target's class mean
    # exactly at the final step, so the model should saturate top-5 at the
    # selection step and get almost every final-step top-1 right
    grammar = GrammarConfig(num_verbs=3, num_nouns=3, modalities=(("rgb", 6),),
                            seed=1)
    ds = generate_dataset(grammar, SMALL_PROTOCOL, num_videos=30,
                          video_length=9, noise_sigma=0.0, seed=1)
    config = ExperimentConfig(epochs=60, batch_size=16, trials=1,
                              hidden_size=16, learning_rate=0.01)
    result, test_probs = run_trial(ds, None, 0.0, trial=0, config=config)
    assert result.best_score == 100.0  # val top-5 at the 1 s step
    probs = evaluate_model(result.params, ds.val, ds.protocol)
    top1_last = probs[:, -1, :].argmax(axis=1)
    assert (top1_last == ds.val.targets).mean() >= 0.9
    step = ds.protocol.step_for_time(1.0)
    assert topk_accuracy(test_probs[:, step, :], ds.test.targets, 5) == 100.0


def test_train_model_logs_and_selects_best(tiny_dataset, fast_config):
    prior = build_uniform_prior(tiny_dataset.K)
    lines = []
    result, _ = run_trial(tiny_dataset, prior, 0.1, trial=0,
                          config=fast_config, log=lines.append)
    assert len(result.history) == fast_config.epochs
    assert len(lines) == fast_config.epochs + 1
    assert lines[-1].startswith(f"best epoch {result.best_epoch} ")
    assert result.best_score == max(score for _, _, score in result.history)
    # ties keep the earliest epoch with the best score
    first_best = next(e for e, _, s in result.history
                      if s == result.best_score)
    assert result.best_epoch == first_best


def test_train_model_rejects_prior_of_another_k(tiny_dataset, fast_config):
    model_config = _model_config(tiny_dataset, fast_config, seed=0)
    other = build_uniform_prior(tiny_dataset.K + 1)
    with pytest.raises(ValueError, match=f"expected {tiny_dataset.K}"):
        train_model(model_config, tiny_dataset.protocol, tiny_dataset.train,
                    other, tiny_dataset.val, fast_config, alpha=0.1)


def test_training_smooths_one_batch_at_a_time(tiny_dataset, fast_config,
                                               monkeypatch):
    # the soft targets are built per batch from the labels, never as one
    # (num_samples, K) matrix of the whole split
    sizes = []
    original = softact.experiment.smooth_label_matrix

    def recording(labels, *args, **kwargs):
        sizes.append(len(labels))
        return original(labels, *args, **kwargs)

    monkeypatch.setattr(softact.experiment, "smooth_label_matrix", recording)
    prior = build_verb_noun_prior(tiny_dataset.vocab)
    n = tiny_dataset.train.num_samples
    assert n > fast_config.batch_size
    train_trial(tiny_dataset, prior, 0.45, 0, fast_config)
    assert max(sizes) <= fast_config.batch_size
    assert sum(sizes) == fast_config.epochs * n


def test_training_diverged_names_epoch_and_batch(tiny_dataset, fast_config):
    ds = tiny_dataset
    poisoned_blocks = tuple(x.copy() for x in ds.train.features)
    poisoned_blocks[0][2, 0, 0] = np.nan
    poisoned = FeatureSet(dims=ds.train.dims, features=poisoned_blocks,
                          targets=ds.train.targets)
    bad = Dataset(vocab=ds.vocab, protocol=ds.protocol,
                  modalities=ds.modalities, train=poisoned, val=ds.val,
                  test=ds.test, train_previous=ds.train_previous)
    with pytest.raises(TrainingDiverged, match=r"epoch 1, batch \d"):
        run_trial(bad, None, 0.0, trial=0, config=fast_config)


def test_evaluate_model_chunking_consistent(tiny_dataset, fast_config):
    result, _ = run_trial(tiny_dataset, None, 0.0, trial=0,
                          config=fast_config)
    val = tiny_dataset.val
    whole = evaluate_model(result.params, val, tiny_dataset.protocol)
    assert whole.shape == (val.num_samples, SMALL_PROTOCOL.decode_steps,
                           tiny_dataset.K)
    # forwarding 7-sample slices gives the same probabilities
    chunked = np.concatenate([
        forward_batch(result.params, feats, tiny_dataset.protocol)
        for _, feats in val.batches(7)])
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


def test_validation_forwards_up_to_the_early_stop_step(monkeypatch):
    # K=16 leaves no column tail, so the one-step forward gives the full
    # forward's bits at that step; 300 samples are two score chunks
    protocol = ProtocolConfig()
    cfg = ModelConfig(modalities=(("rgb", 8), ("flow", 8)), num_classes=16,
                      hidden_size=64, seed=3)
    params = init_params(cfg)
    rng = np.random.default_rng(5)
    val = FeatureSet(dims=cfg.feature_dims, features=tuple(
        rng.normal(size=(300, protocol.total_steps, d)) for d in (8, 8)),
        targets=rng.integers(16, size=300))
    step = protocol.step_for_time(1.0)
    hits = sum(topk_hit_count(forward_batch(params, feats, protocol)[:, step],
                              val.targets[rows], 5)
               for rows, feats in val.batches(300))
    seen = []

    def recording_forward(params, features, protocol):
        seen.append((features[0].shape[1], protocol.decode_steps))
        return forward_batch(params, features, protocol)

    monkeypatch.setattr(softact.experiment, "forward_batch",
                        recording_forward)
    assert _val_score(params, val, protocol, 1.0) == hits / 300 * 100
    assert seen == [(protocol.encode_steps + step + 1, 1)] * 2


# ------------------------------------------------------------ grid search


def test_grid_search_ties_resolve_to_smaller_alpha():
    # points come in grid order; equal mean scores break to the smaller
    # alpha, and only a strictly higher mean moves the choice
    tied = (GridPoint(0.0, (60.0, 62.0)), GridPoint(0.5, (61.0, 61.0)),
            GridPoint(1.0, (62.0, 60.0)))
    assert len({p.mean_score for p in tied}) == 1
    assert GridSearchResult("uniform", tied).best_alpha == 0.0
    better = (*tied[:2], GridPoint(1.0, (62.0, 60.5)))
    assert GridSearchResult("uniform", better).best_alpha == 1.0


def test_grid_search_onehot_rejected(tiny_dataset, fast_config):
    with pytest.raises(ValueError):
        grid_search_alpha(tiny_dataset, "onehot", fast_config)


def test_grid_to_csv():
    result = GridSearchResult(kind="verb_noun", points=(
        GridPoint(alpha=0.0, scores=(50.0, 52.0)),
        GridPoint(alpha=0.5, scores=(60.0, 62.0)),
    ))
    text = grid_to_csv(result)
    assert text.splitlines() == [
        "alpha,mean_val_top5,trials",
        "0,51.000000,2",
        "0.5,61.000000,2",
    ]
    assert result.best_alpha == 0.5


# -------------------------------------------------------------- comparison


def test_run_comparison_artifacts_and_reports(tmp_path, tiny_dataset):
    config = ExperimentConfig(epochs=2, batch_size=32, trials=2,
                              hidden_size=8, many_shot_threshold=2)
    methods = [MethodSpec("onehot", "onehot", 0.0),
               MethodSpec("verb_noun", "verb_noun", 0.45)]
    out = tmp_path / "cmp"
    reports = run_comparison(tiny_dataset, methods, config, out_dir=out)
    assert set(reports) == {"onehot", "verb_noun"}
    for report in reports.values():
        assert report.trials == 2
        assert report.anticipation_times == \
            SMALL_PROTOCOL.anticipation_times()
    assert (out / "report.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "methods.json").exists()
    for method in methods:
        for trial in range(2):
            run_dir = (out / "runs" / method.name
                       / f"alpha_{method.alpha:g}" / f"seed_{trial}")
            assert (run_dir / "checkpoint.bin").exists()
            assert (run_dir / "metrics.csv").exists()
            assert "best epoch" in (run_dir / "train_log.txt").read_text()


def test_run_comparison_jobs_write_the_same_bytes(tmp_path, tiny_dataset):
    # workers send back hit counts; the files must not depend on --jobs
    config = ExperimentConfig(epochs=1, batch_size=32, trials=2,
                              hidden_size=4, many_shot_threshold=2)
    methods = [MethodSpec("onehot", "onehot", 0.0),
               MethodSpec("uniform", "uniform", 0.1)]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    run_comparison(tiny_dataset, methods, config, out_dir=serial)
    run_comparison(tiny_dataset, methods, config, out_dir=pooled, jobs=2)
    files = sorted(p.relative_to(serial) for p in serial.rglob("*")
                   if p.is_file())
    assert len(files) == 3 + 4 * 3
    for rel in files:
        assert (serial / rel).read_bytes() == (pooled / rel).read_bytes(), rel


_FORK_AFTER_SPLIT = """
import threading, warnings
import numpy as np
from softact import (ExperimentConfig, GrammarConfig, MethodSpec, ModelConfig,
                     ProtocolConfig, forward_batch, generate_dataset,
                     init_params, metrics, report_to_csv, run_comparison,
                     seqmodel)
# Python 3.12+ warns when it forks a process that has other threads
warnings.filterwarnings("error", ".*fork", DeprecationWarning)
for module in (seqmodel, metrics):
    module._scoring_threads = lambda: 2
seqmodel._SPLIT_MIN_WORK = metrics._SPLIT_MIN_SCORES = 0
protocol = ProtocolConfig(encode_steps=3, decode_steps=4)
grammar = GrammarConfig(3, 3, action_density=1.0,
                        modalities=(("rgb", 6), ("flow", 5)), seed=7)
dataset = generate_dataset(grammar, protocol, num_videos=24,
                           video_length=10, noise_sigma=0.4, seed=7)
params = init_params(ModelConfig(modalities=dataset.modalities,
                                 num_classes=dataset.K))
forward_batch(params, [np.ones((300, 7, d)) for _, d in dataset.modalities],
              protocol)
assert threading.active_count() == 1
config = ExperimentConfig(epochs=1, batch_size=32, trials=2, hidden_size=4,
                          many_shot_threshold=2)
methods = [MethodSpec("onehot", "onehot", 0.0),
           MethodSpec("uniform", "uniform", 0.1)]
serial, pooled = (report_to_csv(run_comparison(dataset, methods, config,
                                               jobs=jobs))
                  for jobs in (1, 2))
assert pooled == serial, (serial, pooled)
print("same")
"""


def test_run_comparison_forks_cleanly_after_a_split_forward(tmp_path):
    # a split forward leaves no thread behind, so --jobs workers forked
    # after it neither hang nor count differently; in a fresh process,
    # which a hang cannot take down with the suite
    src = str(Path(softact.experiment.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _FORK_AFTER_SPLIT],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]


def test_import_does_not_load_the_process_pool():
    # the pool is imported only where compare --jobs starts one, so no
    # command pays for importing multiprocessing
    src = str(Path(softact.experiment.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, softact; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_run_comparison_identical_methods_match(tiny_dataset):
    config = ExperimentConfig(epochs=2, batch_size=32, trials=1,
                              hidden_size=8)
    methods = [MethodSpec("a", "uniform", 0.1), MethodSpec("b", "uniform", 0.1)]
    reports = run_comparison(tiny_dataset, methods, config)
    assert reports["a"] == reports["b"]
    # single trial -> zero spread
    for cells in reports["a"].cells.values():
        assert all(c.std == 0.0 for c in cells)


def test_run_comparison_validates_methods(tiny_dataset, fast_config):
    with pytest.raises(ValueError):
        run_comparison(tiny_dataset, [], fast_config)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_comparison(tiny_dataset, default_methods(), fast_config, jobs=0)
    dup = [MethodSpec("x", "uniform", 0.1), MethodSpec("x", "onehot", 0.0)]
    with pytest.raises(ValueError):
        run_comparison(tiny_dataset, dup, fast_config)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is started."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, trials, workers", [
    (3, 2, [2]),   # no more workers than tasks
    (2, 3, [2]),
    (5, 1, []),    # one task runs in this process
    (1, 3, []),
])
def test_run_comparison_bounds_workers_by_tasks(tiny_dataset, monkeypatch,
                                                jobs, trials, workers):
    # _outcomes imports the pool when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    config = ExperimentConfig(epochs=1, batch_size=32, trials=trials,
                              hidden_size=2)
    methods = [MethodSpec("onehot", "onehot", 0.0)]
    reports = run_comparison(tiny_dataset, methods, config, jobs=jobs)
    assert _RecordingPool.max_workers == workers
    assert reports["onehot"].trials == trials
