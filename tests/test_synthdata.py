import dataclasses
import io
import json
import struct

import numpy as np
import pytest

from softact import (FeatureSet, FormatError, GrammarConfig, ProtocolConfig,
                     build_glove_prior, gen_annotation_sequences,
                     gen_features, gen_grammar, gen_synthetic_embeddings,
                     read_features, transition_pairs, write_features)
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


def test_grammar_json_roundtrip():
    # grammar.json holds the parameters and the vocabulary; they give back
    # the config, which regenerates the same arrays
    grammar = gen_grammar(small_grammar(seed=21))
    doc = json.loads(json.dumps({
        **config_to_json(grammar.config),
        "vocab": json.loads(grammar.vocab.to_json())}))
    config = _check_grammar(doc, "grammar", grammar.config.modalities,
                            grammar.vocab)
    assert config == grammar.config
    clone = gen_grammar(config)
    assert clone.vocab == grammar.vocab
    np.testing.assert_array_equal(clone.transition, grammar.transition)
    for ma, mb in zip(clone.class_means, grammar.class_means):
        np.testing.assert_array_equal(ma, mb)


# ------------------------------------------------------------ annotations


def test_gen_annotation_sequences_layout():
    grammar = gen_grammar(small_grammar())
    annotations = gen_annotation_sequences(grammar, num_videos=4, length=6,
                                           seed=1)
    assert len(annotations) == 24
    videos = annotations.videos()
    assert [v[0].video_id for v in videos] == [f"synth{i:04d}" for i in range(4)]
    for video in videos:
        assert [inst.start_time for inst in video] == [float(t) for t in range(6)]
        for inst in video:
            grammar.vocab.action_id(inst.verb, inst.noun)  # must be known


def test_gen_annotation_sequences_deterministic_and_empty():
    grammar = gen_grammar(small_grammar())
    a = gen_annotation_sequences(grammar, 3, 5, seed=2)
    b = gen_annotation_sequences(grammar, 3, 5, seed=2)
    assert a == b
    assert len(gen_annotation_sequences(grammar, 0, 5, seed=2)) == 0
    with pytest.raises(ValueError):
        gen_annotation_sequences(grammar, 1, 0, seed=2)


def test_gen_annotation_deterministic_chain_cycles():
    # forcing the transition matrix to a cycle makes walks deterministic
    grammar = gen_grammar(small_grammar())
    K = grammar.K
    cycle = np.zeros((K, K))
    cycle[np.arange(K), (np.arange(K) + 1) % K] = 1.0
    rigged = dataclasses.replace(grammar, transition=cycle)
    annotations = gen_annotation_sequences(rigged, 2, 7, seed=5)
    for video in annotations.videos():
        ids = [rigged.vocab.action_id(i.verb, i.noun) for i in video]
        for prev, nxt in zip(ids, ids[1:]):
            assert nxt == (prev + 1) % K


def test_transition_frequencies_match_chain():
    # long-run empirical next-state frequencies approach the chain rows
    grammar = gen_grammar(small_grammar(num_verbs=2, num_nouns=2, seed=9))
    annotations = gen_annotation_sequences(grammar, num_videos=8,
                                           length=1500, seed=4)
    counts = np.zeros((grammar.K, grammar.K))
    for prev, nxt in transition_pairs(annotations, grammar.vocab):
        counts[prev, nxt] += 1
    rowsum = counts.sum(axis=1, keepdims=True)
    assert np.all(rowsum > 0)
    empirical = counts / rowsum
    assert np.abs(empirical - grammar.transition).max() < 0.02


# --------------------------------------------------------------- features


def test_sample_transition_pairs(ab_vocab):
    annotations = make_annotations(ab_vocab, [[0, 1, 0], [1, 1]])
    assert transition_pairs(annotations, ab_vocab) == [
        (0, 1), (1, 0), (1, 1)]


def test_gen_features_counts_and_targets():
    grammar = gen_grammar(small_grammar())
    annotations = gen_annotation_sequences(grammar, 3, 6, seed=1)
    fs = gen_features(grammar, annotations, SMALL_PROTOCOL, noise_sigma=0.3,
                      seed=2)
    # one sample per instance except each video's first
    assert fs.num_samples == 3 * (6 - 1)
    assert fs.timesteps == SMALL_PROTOCOL.total_steps
    assert fs.dims == (6, 5)
    pairs = transition_pairs(annotations, grammar.vocab)
    np.testing.assert_array_equal(fs.targets, [tgt for _, tgt in pairs])


def test_gen_features_noiseless_reaches_target_mean():
    # with zero noise the last timestep equals the target's class mean, so
    # a nearest-mean decode of the final snippet is always right
    grammar = gen_grammar(small_grammar(seed=6))
    annotations = gen_annotation_sequences(grammar, 2, 8, seed=3)
    fs = gen_features(grammar, annotations, SMALL_PROTOCOL, noise_sigma=0.0,
                      seed=0)
    for m, means in enumerate(grammar.class_means):
        last = fs.features[m][:, -1, :].astype(np.float64)
        dists = np.linalg.norm(last[:, None, :] - means[None], axis=2)
        np.testing.assert_array_equal(dists.argmin(axis=1), fs.targets)


def test_gen_features_deterministic_and_single_action_video():
    grammar = gen_grammar(small_grammar())
    annotations = gen_annotation_sequences(grammar, 2, 5, seed=1)
    a = gen_features(grammar, annotations, SMALL_PROTOCOL, 0.3, seed=9)
    b = gen_features(grammar, annotations, SMALL_PROTOCOL, 0.3, seed=9)
    assert_same_features(a, b)
    solo = make_annotations(grammar.vocab, [[0]])
    empty = gen_features(grammar, solo, SMALL_PROTOCOL, 0.3, seed=9)
    assert empty.num_samples == 0
    with pytest.raises(ValueError):
        gen_features(grammar, annotations, SMALL_PROTOCOL, -0.1, seed=9)


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
    diag = [k for k in range(vocab.K)
            if len(vocab.verb_cohort(vocab.actions[k][0])) == 1
            and len(vocab.noun_cohort(vocab.actions[k][1])) == 1]
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
    annotations = gen_annotation_sequences(grammar, 2, 6, seed=1)
    fs = gen_features(grammar, annotations, SMALL_PROTOCOL, 0.2, seed=2)
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
    annotations = gen_annotation_sequences(grammar, 2, 6, seed=1)
    fs = gen_features(grammar, annotations, SMALL_PROTOCOL, 0.2, seed=2)
    path = tmp_path / "train.feat"
    write_features(fs, path)
    loaded = read_features(path)
    assert_same_features(loaded, fs)
    # byte-identical on re-write
    buf = io.BytesIO()
    write_features(loaded, buf)
    assert buf.getvalue() == path.read_bytes()


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
