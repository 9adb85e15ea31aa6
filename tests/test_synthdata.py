import csv
import dataclasses
import hashlib
import io
import json
import math
import struct

import numpy as np
import pytest

from softact import (FeatureSet, FormatError, GrammarConfig, ProtocolConfig,
                     build_glove_prior, format_annotations,
                     gen_annotation_sequences, gen_features, gen_grammar,
                     gen_synthetic_embeddings, generate_dataset,
                     parse_annotations, read_features, write_features)
from softact import synthdata
from softact.cli import main
from softact.jsonconfig import config_to_json
from softact.synthdata import _check_grammar

from conftest import SMALL_PROTOCOL, assert_same_features, make_annotations


def small_grammar(**kw) -> GrammarConfig:
    kw.setdefault("num_verbs", 3)
    kw.setdefault("num_nouns", 3)
    kw.setdefault("modalities", (("rgb", 6), ("flow", 5)))
    kw.setdefault("seed", 0)
    return GrammarConfig(**kw)


# ---------------------------------------------------------------- grammar


def test_gen_grammar_counts_and_shapes():
    grammar = gen_grammar(small_grammar(action_density=1.0))
    assert grammar.K == 9
    assert len(grammar.vocab.verbs) == 3 and len(grammar.vocab.nouns) == 3
    assert grammar.transition.shape == (9, 9)
    np.testing.assert_allclose(grammar.transition.sum(axis=1), 1.0, rtol=0,
                               atol=1e-12)
    assert np.all(grammar.transition >= 0)
    assert [m.shape for m in grammar.class_means] == [(9, 6), (9, 5)]
    # density picks ceil(density * V * N) actions
    half = gen_grammar(small_grammar(num_verbs=4, num_nouns=5,
                                     action_density=0.5))
    assert half.K == 10


def test_gen_grammar_deterministic():
    a = gen_grammar(small_grammar(seed=12))
    b = gen_grammar(small_grammar(seed=12))
    assert a.vocab == b.vocab
    np.testing.assert_array_equal(a.transition, b.transition)
    for ma, mb in zip(a.class_means, b.class_means):
        np.testing.assert_array_equal(ma, mb)
    c = gen_grammar(small_grammar(seed=13))
    assert not np.array_equal(a.transition, c.transition)


def test_gen_grammar_too_small():
    with pytest.raises(ValueError):
        gen_grammar(GrammarConfig(num_verbs=1, num_nouns=1))


def test_grammar_config_validation():
    with pytest.raises(ValueError):
        small_grammar(action_density=0.0)
    with pytest.raises(ValueError):
        small_grammar(action_density=1.5)
    with pytest.raises(ValueError):
        small_grammar(sigma_within=2.0, sigma_between=1.0)
    with pytest.raises(ValueError):
        small_grammar(markov_concentration=0.0)
    for modalities in ((), (("rgb", 0),), (("rgb", 4), ("flow", -2))):
        with pytest.raises(ValueError, match="modality|feature dims"):
            small_grammar(modalities=modalities)


def test_grammar_tokens_are_alphabetic():
    grammar = gen_grammar(small_grammar(num_verbs=30, num_nouns=2,
                                        action_density=0.4))
    for token in grammar.vocab.verbs + grammar.vocab.nouns:
        assert token.isalpha(), token


def test_grammar_cohort_means_are_closer():
    # actions sharing a verb or noun have nearer feature means than
    # unrelated actions, on average
    grammar = gen_grammar(small_grammar(num_verbs=6, num_nouns=6, seed=3))
    vocab = grammar.vocab
    means = np.concatenate(grammar.class_means, axis=1)
    related, unrelated = [], []
    for k in range(vocab.K):
        for i in range(k + 1, vocab.K):
            d = float(np.linalg.norm(means[k] - means[i]))
            (vk, nk), (vi, ni) = vocab.actions[k], vocab.actions[i]
            share = vk == vi or nk == ni
            (related if share else unrelated).append(d)
    assert np.mean(related) < np.mean(unrelated)


def test_class_means_match_per_action_loop():
    # a per-action reference sum over the same random stream; the gather
    # by verb_of/noun_of gives the same bits
    for seed in range(6):
        config = small_grammar(num_verbs=5, num_nouns=4, action_density=0.6,
                               sigma_within=0.3, sigma_between=1.7, seed=seed)
        grammar = gen_grammar(config)
        vocab, K = grammar.vocab, grammar.K
        rng = np.random.default_rng(seed)
        rng.choice(config.num_verbs * config.num_nouns, size=K, replace=False)
        rng.dirichlet(np.full(K, config.markov_concentration), size=K)
        for (_, dim), means in zip(config.modalities, grammar.class_means):
            verb_anchor = rng.normal(size=(len(vocab.verbs), dim)) / np.sqrt(dim)
            noun_anchor = rng.normal(size=(len(vocab.nouns), dim)) / np.sqrt(dim)
            jitter = rng.normal(size=(K, dim)) / np.sqrt(dim)
            loop = np.empty((K, dim))
            for k, (v, n) in enumerate(vocab.actions):
                loop[k] = config.sigma_between * (verb_anchor[v]
                                                  + noun_anchor[n]) \
                    + config.sigma_within * jitter[k]
            assert np.array_equal(means, loop)


def test_grammar_json_roundtrip():
    # grammar.json holds only the parameters; they give back the config,
    # which regenerates the same vocabulary and arrays
    grammar = gen_grammar(small_grammar(seed=21))
    doc = json.loads(json.dumps(config_to_json(grammar.config)))
    config = _check_grammar(doc, "grammar", grammar.config.modalities,
                            grammar.vocab)
    assert config == grammar.config
    clone = gen_grammar(config)
    assert clone.vocab == grammar.vocab
    np.testing.assert_array_equal(clone.transition, grammar.transition)
    for ma, mb in zip(clone.class_means, grammar.class_means):
        np.testing.assert_array_equal(ma, mb)


# ------------------------------------------------------------ annotations


def choice_walks(grammar, num_videos, length, seed):
    # the plain sampler: one rng.choice per step
    rng = np.random.default_rng(seed)
    walks = np.empty((num_videos, length), dtype=np.int64)
    for walk in walks:
        walk[0] = rng.integers(grammar.K)
        for step in range(1, length):
            walk[step] = rng.choice(grammar.K,
                                    p=grammar.transition[walk[step - 1]])
    return walks


def cycle_grammar():
    # zero-probability entries give the CDF rows flat steps
    grammar = gen_grammar(small_grammar())
    K = grammar.K
    cycle = np.zeros((K, K))
    cycle[np.arange(K), (np.arange(K) + 1) % K] = 1.0
    return dataclasses.replace(grammar, transition=cycle)


def test_gen_annotation_sequences_layout():
    # one row of action ids per video; annotations.csv names video v
    # synth%04d and puts step t at t seconds
    grammar = gen_grammar(small_grammar())
    walks = gen_annotation_sequences(grammar, num_videos=4, length=6, seed=1)
    assert walks.shape == (4, 6) and walks.dtype == np.int64
    assert walks.min() >= 0 and walks.max() < grammar.K
    text = format_annotations(walks, grammar.vocab)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [(video, float(start)) for video, start, _, _ in rows] == [
        (f"synth{v:04d}", float(t)) for v in range(4) for t in range(6)]
    assert [grammar.vocab.action_id(verb, noun)
            for _, _, verb, noun in rows] == walks.ravel().tolist()


def test_gen_annotation_sequences_deterministic_and_empty():
    grammar = gen_grammar(small_grammar())
    a = gen_annotation_sequences(grammar, 3, 5, seed=2)
    b = gen_annotation_sequences(grammar, 3, 5, seed=2)
    np.testing.assert_array_equal(a, b)
    assert gen_annotation_sequences(grammar, 0, 5, seed=2).shape == (0, 5)
    with pytest.raises(ValueError):
        gen_annotation_sequences(grammar, 1, 0, seed=2)


def test_gen_annotation_deterministic_chain_cycles():
    # forcing the transition matrix to a cycle makes walks deterministic
    rigged = cycle_grammar()
    walks = gen_annotation_sequences(rigged, 2, 7, seed=5)
    np.testing.assert_array_equal(walks[:, 1:],
                                  (walks[:, :-1] + 1) % rigged.K)


@pytest.mark.parametrize("make_grammar", [
    lambda: gen_grammar(small_grammar(num_verbs=1, num_nouns=2)),
    lambda: gen_grammar(small_grammar(seed=3)),
    lambda: gen_grammar(small_grammar(num_verbs=4, num_nouns=5,
                                      action_density=0.6,
                                      markov_concentration=0.05)),
    cycle_grammar,
    lambda: gen_grammar(GrammarConfig(40, 60, action_density=0.5, seed=3)),
], ids=["K2", "K9", "K12-sparse", "cycle", "K1200"])
def test_walks_match_per_step_choice(make_grammar):
    # the CDF-row sampler draws the ids of one rng.choice per step
    grammar = make_grammar()
    for seed in range(3):
        for num_videos, length in ((0, 5), (1, 1), (1, 2), (3, 2), (4, 1),
                                   (30, 23)):
            want = choice_walks(grammar, num_videos, length, seed)
            got = gen_annotation_sequences(grammar, num_videos, length, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (seed, num_videos, length)


def test_transition_frequencies_match_chain():
    # long-run empirical next-state frequencies approach the chain rows
    grammar = gen_grammar(small_grammar(num_verbs=2, num_nouns=2, seed=9))
    walks = gen_annotation_sequences(grammar, num_videos=8, length=1500,
                                     seed=4)
    counts = np.zeros((grammar.K, grammar.K))
    np.add.at(counts, (walks[:, :-1], walks[:, 1:]), 1)
    rowsum = counts.sum(axis=1, keepdims=True)
    assert np.all(rowsum > 0)
    empirical = counts / rowsum
    assert np.abs(empirical - grammar.transition).max() < 0.02


# --------------------------------------------------------------- features


def test_sample_transition_pairs(ab_vocab):
    pairs = make_annotations(ab_vocab, [[0, 1, 0], [1, 1]])
    assert pairs.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_gen_features_counts_and_targets():
    grammar = gen_grammar(small_grammar())
    walks = gen_annotation_sequences(grammar, 3, 6, seed=1)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, noise_sigma=0.3, seed=2)
    # one sample per walk step except each video's first
    assert fs.num_samples == 3 * (6 - 1)
    assert fs.timesteps == SMALL_PROTOCOL.total_steps
    assert fs.dims == (6, 5)
    # the targets are the later actions of the pairs the annotations give
    pairs = parse_annotations(format_annotations(walks, grammar.vocab),
                              grammar.vocab)
    np.testing.assert_array_equal(fs.targets, pairs[:, 1])


def test_gen_features_noiseless_reaches_target_mean():
    # with zero noise the last timestep equals the target's class mean, so
    # a nearest-mean decode of the final snippet is always right
    grammar = gen_grammar(small_grammar(seed=6))
    walks = gen_annotation_sequences(grammar, 2, 8, seed=3)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, noise_sigma=0.0, seed=0)
    for m, means in enumerate(grammar.class_means):
        last = fs.features[m][:, -1, :].astype(np.float64)
        dists = np.linalg.norm(last[:, None, :] - means[None], axis=2)
        np.testing.assert_array_equal(dists.argmin(axis=1), fs.targets)


def test_gen_features_deterministic_and_single_action_video():
    grammar = gen_grammar(small_grammar())
    walks = gen_annotation_sequences(grammar, 2, 5, seed=1)
    a = gen_features(grammar, walks, SMALL_PROTOCOL, 0.3, seed=9)
    b = gen_features(grammar, walks, SMALL_PROTOCOL, 0.3, seed=9)
    assert_same_features(a, b)
    empty = gen_features(grammar, np.array([[0]]), SMALL_PROTOCOL, 0.3,
                         seed=9)
    assert empty.num_samples == 0
    with pytest.raises(ValueError):
        gen_features(grammar, walks, SMALL_PROTOCOL, -0.1, seed=9)


def test_gen_features_match_per_sample_draws():
    # the whole-path build and one noise draw per modality give the bits
    # of the earlier loop: a path and a (T, D) draw per sample
    grammar = gen_grammar(small_grammar(seed=4))
    walks = gen_annotation_sequences(grammar, 3, 7, seed=2)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, 0.7, seed=11)
    rng = np.random.default_rng(11)
    lam = np.linspace(0.0, 1.0, SMALL_PROTOCOL.total_steps)[:, None]
    pairs = [(prev, tgt) for walk in walks.tolist()
             for prev, tgt in zip(walk, walk[1:])]
    for means, block in zip(grammar.class_means, fs.features):
        for i, (prev, tgt) in enumerate(pairs):
            path = (1.0 - lam) * means[prev] + lam * means[tgt]
            noise = rng.normal(scale=0.7, size=path.shape)
            assert np.array_equal(block[i], (path + noise).astype(np.float32))


def whole_block_features(grammar, walks, protocol, noise_sigma, seed):
    # the whole-block body: each modality's float64 (n, T, D) path and one
    # noise draw of that shape
    rng = np.random.default_rng(seed)
    lam = np.linspace(0.0, 1.0, protocol.total_steps)[:, None]
    previous, targets = walks[:, :-1].ravel(), walks[:, 1:].ravel()
    blocks = []
    for means in grammar.class_means:
        path = (1.0 - lam) * means[previous][:, None]
        path += lam * means[targets][:, None]
        if noise_sigma > 0:
            path += rng.normal(scale=noise_sigma, size=path.shape)
        blocks.append(path.astype(np.float32))
    return blocks


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("noise", [0.0, 0.7])
def test_gen_features_match_whole_block_draws(monkeypatch, chunk, noise):
    # two videos of chunk + 19 samples: more than two chunks, and chunks
    # that cross from one video into the next and end part-full
    if chunk is not None:
        monkeypatch.setattr(synthdata, "_FEATURE_CHUNK", chunk)
    chunk = synthdata._FEATURE_CHUNK
    grammar = gen_grammar(small_grammar(seed=4))
    walks = gen_annotation_sequences(grammar, 2, chunk + 20, seed=2)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, noise, seed=11)
    assert fs.num_samples > 2 * chunk and fs.num_samples % chunk
    want = whole_block_features(grammar, walks, SMALL_PROTOCOL, noise, 11)
    for got, block in zip(fs.features, want):
        assert got.tobytes() == block.tobytes()


@pytest.mark.parametrize("make", [
    lambda: ProtocolConfig(snippet_stride=math.nan),
    lambda: ProtocolConfig(snippet_stride=math.inf),
    lambda: small_grammar(sigma_between=math.inf),
    lambda: small_grammar(markov_concentration=math.inf),
    lambda: generate_dataset(small_grammar(), SMALL_PROTOCOL, num_videos=4,
                             video_length=5, noise_sigma=math.nan),
    lambda: generate_dataset(small_grammar(), SMALL_PROTOCOL, num_videos=4,
                             video_length=5, noise_sigma=math.inf),
], ids=["stride-nan", "stride-inf", "sigma_between-inf",
        "markov_concentration-inf", "noise-nan", "noise-inf"])
def test_non_finite_generator_settings_are_refused(make):
    # unchecked, each gives nan or inf times, means, transitions or
    # features (or, for a nan noise, no noise at all, since nan > 0 fails)
    with pytest.raises(ValueError, match="finite|inf"):
        make()


# sha256 of each file `synth` writes with GOLDEN_FLAGS, so that a change
# of the generator's bytes shows across versions, not only across reruns;
# embeddings.txt is left out, since its QR factorization depends on the
# LAPACK build
GOLDEN_FLAGS = ["--verbs", "4", "--nouns", "5", "--density", "0.6",
                "--videos", "12", "--video-length", "6", "--noise", "0.5",
                "--modalities", "rgb:3,flow:2", "--encode-steps", "3",
                "--decode-steps", "4", "--seed", "5"]
GOLDEN_SHA256 = {
    "annotations.csv":
        "ac687be48d73967792bb24725eabf902d745975948a9790c4675f78ae2eafb36",
    "grammar.json":
        "26791a759f633430bd18f35c85a4bf6ad40364e98c1ce9a390b6c9677af773bd",
    "manifest.json":
        "7c23301372db3c4e720889cd28c0c73cac5be70a9c9f743567b5dadd1b1b34e8",
    "test.feat":
        "4631bd8d171b9f984477f17704e9b00599f8f41017cc6c4b6059ba02d15abe63",
    "train.feat":
        "8b40d467b78787cc8eb42eaefdc913b947c0317b8c5085ac71b26f0335637ee5",
    "val.feat":
        "e3ea28fe123ab1d75bbdb97ba80d1ccacf67bec3b2f84e2ec43be8bd5c2bbfa6",
    "vocab.json":
        "224e6800d86c057005b13163c64495b76248013487a5c220db1af5a390aa62c6",
}


def test_synth_bundle_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["synth", "--out-dir", str(out), *GOLDEN_FLAGS]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# -------------------------------------------------------------- embeddings


def test_synthetic_embeddings_cosine():
    grammar = gen_grammar(small_grammar(num_verbs=4, num_nouns=3))
    d = 4 + 3 + 2  # enough for the exact orthonormal construction
    table = gen_synthetic_embeddings(grammar, d, cohort_similarity=0.6, seed=0)
    vocab = grammar.vocab
    assert len(table.vectors) == 7
    for tokens in (vocab.verbs, vocab.nouns):
        for i, a in enumerate(tokens):
            va = table.vectors[a]
            assert np.linalg.norm(va) == pytest.approx(1.0, abs=1e-12)
            for b in tokens[i + 1:]:
                cos = float(va @ table.vectors[b])
                assert cos == pytest.approx(0.6, abs=1e-9)
    for v in vocab.verbs:
        for n in vocab.nouns:
            assert abs(table.vectors[v] @ table.vectors[n]) < 1e-9


def test_synthetic_embeddings_small_d_normalized():
    grammar = gen_grammar(small_grammar(num_verbs=4, num_nouns=4))
    table = gen_synthetic_embeddings(grammar, 2, cohort_similarity=0.5, seed=1)
    for vec in table.vectors.values():
        assert vec.shape == (2,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gen_synthetic_embeddings(grammar, 0, 0.5, seed=1)
    with pytest.raises(ValueError):
        gen_synthetic_embeddings(grammar, 4, 1.5, seed=1)


def test_zero_similarity_embeddings_give_identity_glove():
    # orthogonal tokens + one action per verb/noun row -> diagonal dots only
    grammar = gen_grammar(small_grammar(num_verbs=3, num_nouns=3, seed=2))
    vocab = grammar.vocab
    verb_counts = np.bincount([v for v, _ in vocab.actions])
    noun_counts = np.bincount([n for _, n in vocab.actions])
    diag = [k for k, (v, n) in enumerate(vocab.actions)
            if verb_counts[v] == 1 and noun_counts[n] == 1]
    table = gen_synthetic_embeddings(grammar, 8, cohort_similarity=0.0, seed=3)
    prior = build_glove_prior(vocab, table)
    for k in diag:
        np.testing.assert_allclose(prior.rows[k, k], 1.0, rtol=0, atol=1e-9)


# ----------------------------------------------------------------- format


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(dims=(2,), features=(), targets=np.zeros(1))
    with pytest.raises(ValueError):
        FeatureSet(dims=(2,), features=(np.zeros((2, 3, 4), np.float32),),
                   targets=np.zeros(2))
    with pytest.raises(ValueError):
        FeatureSet(dims=(2, 2),
                   features=(np.zeros((1, 3, 2), np.float32),
                             np.zeros((1, 4, 2), np.float32)),
                   targets=np.zeros(1))


def test_feature_set_subset_and_batches():
    grammar = gen_grammar(small_grammar())
    walks = gen_annotation_sequences(grammar, 2, 6, seed=1)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, 0.2, seed=2)
    sub = fs.subset([3, 0])
    assert sub.num_samples == 2
    np.testing.assert_array_equal(sub.targets, fs.targets[[3, 0]])
    # without an order: slices of the stored samples, in order
    got = list(fs.batches(4))
    assert [rows for rows, _ in got] == [
        slice(s, s + 4) for s in range(0, fs.num_samples, 4)]
    for rows, blocks in got:
        for x, block in zip(fs.features, blocks):
            np.testing.assert_array_equal(block, x[rows])
    # with an order: its index blocks, the last one short
    order = np.random.default_rng(0).permutation(fs.num_samples)
    got = list(fs.batches(4, order))
    np.testing.assert_array_equal(np.concatenate([r for r, _ in got]), order)
    assert all(len(rows) == 4 for rows, _ in got[:-1])
    for rows, blocks in got:
        for x, block in zip(fs.features, blocks):
            np.testing.assert_array_equal(block, x[rows])


def test_feature_file_roundtrip(tmp_path):
    grammar = gen_grammar(small_grammar())
    walks = gen_annotation_sequences(grammar, 2, 6, seed=1)
    fs = gen_features(grammar, walks, SMALL_PROTOCOL, 0.2, seed=2)
    path = tmp_path / "train.feat"
    write_features(fs, path)
    loaded = read_features(path)
    assert_same_features(loaded, fs)
    # byte-identical on re-write
    again = tmp_path / "again.feat"
    write_features(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _per_sample_feature_bytes(fs: FeatureSet) -> bytes:
    """The earlier write_features body: one struct/tobytes write per sample."""
    parts = [b"FEAT", struct.pack("<III", 1, fs.num_samples, len(fs.dims)),
             *(struct.pack("<I", d) for d in fs.dims),
             struct.pack("<I", fs.timesteps)]
    for i in range(fs.num_samples):
        parts.append(struct.pack("<I", int(fs.targets[i])))
        for block in fs.features:
            parts.append(np.ascontiguousarray(block[i], dtype="<f4").tobytes())
    return b"".join(parts)


def test_feature_file_bytes_match_per_sample_layout(tmp_path):
    rng = np.random.default_rng(3)
    for dims, n, steps in (((6, 5), 7, 4), ((3,), 1, 2), ((2, 1, 4), 0, 3)):
        fs = FeatureSet(dims=dims,
                        features=tuple(rng.normal(size=(n, steps, d))
                                       for d in dims),
                        targets=rng.integers(0, 2 ** 32, size=n))
        path = tmp_path / "x.feat"
        write_features(fs, path)
        assert path.read_bytes() == _per_sample_feature_bytes(fs)
        assert_same_features(read_features(path), fs)


def test_feature_file_empty_roundtrip(tmp_path):
    fs = FeatureSet(dims=(3,), features=(np.zeros((0, 4, 3), np.float32),),
                    targets=np.zeros(0, dtype=np.int64))
    path = tmp_path / "empty.feat"
    write_features(fs, path)
    assert read_features(path).num_samples == 0


def test_feature_file_format_errors(tmp_path):
    fs = FeatureSet(dims=(2,), features=(np.ones((1, 3, 2), np.float32),),
                    targets=np.array([1]))
    path = tmp_path / "x.feat"
    write_features(fs, path)
    data = path.read_bytes()

    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"JUNK" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        read_features(bad)
    bad.write_bytes(data[:4] + b"\x09\x00\x00\x00" + data[8:])
    with pytest.raises(FormatError, match="version"):
        read_features(bad)
    bad.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_features(bad)
    bad.write_bytes(data + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_features(bad)
    unwritten = tmp_path / "unwritten.feat"
    with pytest.raises(ValueError):
        write_features(FeatureSet(dims=(2,),
                                  features=(np.ones((1, 3, 2), np.float32),),
                                  targets=np.array([-1])), unwritten)
    assert not unwritten.exists()


def test_feature_file_errors_name_the_file(tmp_path):
    fs = FeatureSet(dims=(2,), features=(np.ones((1, 3, 2), np.float32),),
                    targets=np.array([1]))
    path = tmp_path / "x.feat"
    write_features(fs, path)
    data = path.read_bytes()
    bad = tmp_path / "bad.feat"
    for corrupt in (b"JUNK" + data[4:], data[:10], data[:18],
                    data[:4] + b"\x09\x00\x00\x00" + data[8:], data[:-5],
                    data + b"\x00" * 4,
                    b"FEAT" + struct.pack("<5I", 1, 0, 1, 2 ** 32 - 1, 3)):
        bad.write_bytes(corrupt)
        with pytest.raises(FormatError) as info:
            read_features(bad)
        assert str(info.value).startswith(f"{bad}: ")
