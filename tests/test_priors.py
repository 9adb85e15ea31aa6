import tracemalloc

import numpy as np
import pytest

from softact import (ActionVocab, EmbeddingTable, ParseError, PriorMatrix,
                     build_glove_prior, build_prior, build_temporal_prior,
                     build_uniform_prior, build_verb_noun_prior,
                     load_embeddings, load_prior, mix_priors,
                     parse_annotations, save_prior)
from softact.priors import (KINDS, ROW_SUM_TOL, _embed_token,
                            action_embedding_matrix)

from conftest import make_annotations, random_vocab


def assert_row_stochastic(prior: PriorMatrix):
    assert np.all(prior.rows >= 0)
    np.testing.assert_allclose(prior.rows.sum(axis=1), 1.0, rtol=0,
                               atol=ROW_SUM_TOL)


# ---------------------------------------------------------------- uniform


def test_uniform_prior():
    p = build_uniform_prior(4)
    assert p.kind == "uniform"
    np.testing.assert_array_equal(p.rows, np.full((4, 4), 0.25))

    single = build_uniform_prior(1)
    np.testing.assert_array_equal(single.rows, [[1.0]])

    with pytest.raises(ValueError):
        build_uniform_prior(0)


def test_prior_matrix_validation():
    with pytest.raises(ValueError):
        PriorMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        PriorMatrix(np.array([[0.7, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        PriorMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    p = PriorMatrix(np.eye(3))
    with pytest.raises(ValueError):
        p.rows[0, 0] = 0.0  # rows are read-only


# --------------------------------------------------------------- verb/noun


def test_verb_noun_prior_toy(toy_vocab):
    p = build_verb_noun_prior(toy_vocab)
    assert p.kind == "verb_noun"
    third = 1.0 / 3.0
    expected = np.array([
        [third, third, third, 0.0],   # (cut, onion)
        [third, third, 0.0, third],   # (cut, carrot)
        [third, 0.0, third, third],   # (wash, onion)
        [0.0, third, third, third],   # (wash, carrot)
    ])
    np.testing.assert_array_equal(p.rows, expected)


def test_verb_noun_prior_single_action():
    vocab = ActionVocab(("open",), ("door",), ((0, 0),))
    p = build_verb_noun_prior(vocab)
    np.testing.assert_array_equal(p.rows, [[1.0]])


def test_verb_noun_prior_support_property():
    # row k puts exactly 1/C_k on every action sharing k's verb or noun
    rng = np.random.default_rng(11)
    for _ in range(30):
        vocab = random_vocab(rng)
        p = build_verb_noun_prior(vocab)
        for k in range(vocab.K):
            vk, nk = vocab.actions[k]
            verb_cohort = {i for i, (v, _) in enumerate(vocab.actions)
                           if v == vk}
            noun_cohort = {i for i, (_, n) in enumerate(vocab.actions)
                           if n == nk}
            support = verb_cohort | noun_cohort
            c_k = len(verb_cohort) + len(noun_cohort) - 1
            assert len(support) == c_k
            for i in range(vocab.K):
                want = 1.0 / c_k if i in support else 0.0
                assert p.rows[k, i] == want


# -------------------------------------------------------------- embeddings


@pytest.fixture
def embed(tmp_path):
    """load_embeddings of a file holding the given text."""
    def load(text: str) -> EmbeddingTable:
        path = tmp_path / "embeddings.txt"
        path.write_text(text)
        return load_embeddings(path)
    return load


def test_load_embeddings(embed):
    table = embed("\n  \ncat 1 2\n\ndog 3 4\ncat 5 6\n")
    assert table.dimension == 2  # from the first non-blank line
    assert len(table.vectors) == 2
    np.testing.assert_array_equal(table.vectors["cat"], [5.0, 6.0])
    np.testing.assert_array_equal(table.vectors["dog"], [3.0, 4.0])
    assert "cat" in table.vectors and "fish" not in table.vectors


def test_load_embeddings_errors(embed, tmp_path):
    for text, message in (
            ("cat 1 2\ndog 3\n",
             "line 2: expected 2 values after the word, got 1"),
            ("cat 1 oops\n", "line 1: non-numeric embedding value"),
            ("\ncat\ndog 1\n", "line 2: no embedding values"),
            ("", "empty embedding file"),
            (" \n\n", "empty embedding file")):
        with pytest.raises(ParseError, match=message) as info:
            embed(text)
        assert str(info.value).startswith(f"{tmp_path / 'embeddings.txt'}: ")
    with pytest.raises(ValueError):
        EmbeddingTable(3, {"cat": np.zeros(2)})


def test_embed_action_concatenates_verb_and_noun(toy_vocab, embed):
    table = embed("cut 1 0\nonion 0 2\n")
    phi = action_embedding_matrix(toy_vocab, table)
    assert phi.shape == (4, 4)
    np.testing.assert_array_equal(phi[0], [1.0, 0.0, 0.0, 2.0])
    # unknown words embed as zero
    np.testing.assert_array_equal(phi[3], np.zeros(4))  # (wash, carrot)


def test_embed_action_multiword_token_mean(embed):
    vocab = ActionVocab(("cut",), ("pumpkin:seeds",), ((0, 0),))
    table = embed("cut 1 0\npumpkin 2 0\nseeds 0 2\n")
    phi = action_embedding_matrix(vocab, table)
    np.testing.assert_array_equal(phi, [[1.0, 0.0, 1.0, 1.0]])


def test_embedding_matrix_matches_per_action_loop():
    # a per-action reference concatenation; the gather by verb_of/noun_of
    # gives the same bits
    rng = np.random.default_rng(12)
    words = [f"{kind}{c}" for kind in ("verb", "noun") for c in "abcdefgh"]
    for _ in range(20):
        vocab = random_vocab(rng)
        known = [w for w in words if rng.random() < 0.7]
        table = EmbeddingTable(3, {w: rng.normal(size=3) for w in known})
        loop = np.array([np.concatenate([_embed_token(vocab.verbs[v], table),
                                         _embed_token(vocab.nouns[n], table)])
                         for v, n in vocab.actions])
        assert np.array_equal(action_embedding_matrix(vocab, table), loop)


# ------------------------------------------------------------------ glove


def test_glove_prior_hand_case(embed):
    # phi_1 = (1, 0), phi_2 = (1, 1):
    #   row 1: |1|/(1+1) each -> [1/2, 1/2]
    #   row 2: [1, 2]/3      -> [1/3, 2/3]
    vocab = ActionVocab(("cook", "stir"), ("pan", "pot"), ((0, 0), (1, 1)))
    table = embed("cook 1\nstir 1\npot 1\n")
    phi = action_embedding_matrix(vocab, table)
    np.testing.assert_array_equal(phi, [[1.0, 0.0], [1.0, 1.0]])
    p = build_glove_prior(vocab, table)
    assert p.kind == "glove"
    np.testing.assert_allclose(p.rows, [[0.5, 0.5], [1 / 3, 2 / 3]],
                               rtol=0, atol=1e-15)


def test_glove_prior_orthogonal_embeddings_identity(ab_vocab, embed):
    table = embed("va 1 0\nvb 0 1\nna 1 0\nnb 0 1\n")
    p = build_glove_prior(ab_vocab, table)
    np.testing.assert_array_equal(p.rows, np.eye(2))


def test_glove_prior_zero_row_uniform(toy_vocab, embed):
    # (wash, carrot) has no known words -> zero embedding -> uniform row
    table = embed("cut 1 0\nonion 0 1\n")
    p = build_glove_prior(toy_vocab, table)
    np.testing.assert_array_equal(p.rows[3], np.full(4, 0.25))
    assert_row_stochastic(p)


def test_glove_prior_scale_invariance(toy_vocab):
    rng = np.random.default_rng(3)
    words = set(toy_vocab.verbs) | set(toy_vocab.nouns)
    vecs = {w: rng.normal(size=5) for w in words}
    base = EmbeddingTable(5, vecs)
    scaled = EmbeddingTable(5, {w: 7.5 * v for w, v in vecs.items()})
    p0 = build_glove_prior(toy_vocab, base)
    p1 = build_glove_prior(toy_vocab, scaled)
    np.testing.assert_allclose(p1.rows, p0.rows, rtol=0, atol=1e-12)


def test_glove_prior_of_a_float32_table_normalizes_in_float64(toy_vocab):
    # the float32 similarities are widened before the rows are normalized
    rng = np.random.default_rng(5)
    words = set(toy_vocab.verbs) | set(toy_vocab.nouns)
    table = EmbeddingTable(5, {w: rng.normal(size=5).astype(np.float32)
                               for w in words})
    phi = action_embedding_matrix(toy_vocab, table)
    sims = np.abs(phi @ phi.T).astype(np.float64)
    want = sims / sims.sum(axis=1)[:, None]
    got = build_glove_prior(toy_vocab, table)
    assert got.rows.tobytes() == want.tobytes()


# --------------------------------------------------------------- temporal


def test_temporal_prior_alternating(ab_vocab):
    # one video A,B,A,B: A's only predecessor is B and vice versa
    pairs = make_annotations(ab_vocab, [[0, 1, 0, 1]])
    p = build_temporal_prior(pairs, ab_vocab)
    assert p.kind == "temporal"
    np.testing.assert_array_equal(p.rows, [[0.0, 1.0], [1.0, 0.0]])


def test_temporal_prior_no_transitions_uniform(ab_vocab):
    # single-action videos contribute no pairs -> every row uniform
    pairs = make_annotations(ab_vocab, [[0], [1]])
    p = build_temporal_prior(pairs, ab_vocab)
    np.testing.assert_array_equal(p.rows, np.full((2, 2), 0.5))


def test_temporal_prior_ignores_video_boundaries(ab_vocab):
    # videos [A,B] and [B,A]: the B->B pair across the boundary must not
    # count, so B's predecessor row stays exactly [1, 0]
    pairs = make_annotations(ab_vocab, [[0, 1], [1, 0]])
    assert pairs.tolist() == [[0, 1], [1, 0]]
    p = build_temporal_prior(pairs, ab_vocab)
    np.testing.assert_array_equal(p.rows, [[0.0, 1.0], [1.0, 0.0]])


def test_temporal_prior_never_successor_uniform():
    vocab = ActionVocab(("va", "vb", "vc"), ("na", "nb", "nc"),
                        ((0, 0), (1, 1), (2, 2)))
    pairs = make_annotations(vocab, [[2, 0, 1, 0]])  # C,A,B,A
    p = build_temporal_prior(pairs, vocab)
    np.testing.assert_array_equal(p.rows[2], np.full(3, 1 / 3))  # C: no preds
    np.testing.assert_array_equal(p.rows[0], [0.0, 0.5, 0.5])
    np.testing.assert_array_equal(p.rows[1], [1.0, 0.0, 0.0])


def test_count_transitions_unknown_action(ab_vocab):
    # the reader looks each row up as it reads it, so the error names the
    # row's line
    text = "video_id,start_s,verb,noun\nvid0,0,va,na\nvid0,1,jump,rope\n"
    with pytest.raises(ParseError, match="^line 3: unknown action "
                                         r"\('jump', 'rope'\) in video 'vid0'"):
        parse_annotations(text, ab_vocab)


def test_temporal_prior_from_pairs_rejects_out_of_range_ids(ab_vocab):
    for bad in ([(0, 2)], [(-1, 0)]):
        with pytest.raises(ValueError, match="outside"):
            build_temporal_prior(bad, ab_vocab)
    for empty in ([], np.zeros((0, 2), dtype=np.int64)):
        np.testing.assert_array_equal(
            build_temporal_prior(empty, ab_vocab).rows, np.full((2, 2), 0.5))


def test_temporal_prior_matches_count_columns():
    # row k of the prior is column k of the count matrix, normalized
    rng = np.random.default_rng(5)
    for _ in range(20):
        vocab = random_vocab(rng)
        videos = [rng.integers(0, vocab.K, size=rng.integers(1, 8)).tolist()
                  for _ in range(rng.integers(1, 5))]
        pairs = make_annotations(vocab, videos)
        assert len(pairs) == sum(len(ids) - 1 for ids in videos)
        counts = np.zeros((vocab.K, vocab.K))
        for prev, nxt in pairs:
            counts[prev, nxt] += 1
        p = build_temporal_prior(pairs, vocab)
        for k in range(vocab.K):
            col = counts[:, k].astype(np.float64)
            want = col / col.sum() if col.sum() > 0 else np.full(vocab.K,
                                                                 1 / vocab.K)
            np.testing.assert_array_equal(p.rows[k], want)


# ---------------------------------------------------------------- mixing


def test_mix_priors_average(toy_vocab):
    vn = build_verb_noun_prior(toy_vocab)
    uni = build_uniform_prior(4)
    mixed = mix_priors([vn, uni], [1.0, 1.0])
    np.testing.assert_allclose(mixed.rows, 0.5 * vn.rows + 0.5 * uni.rows,
                               rtol=0, atol=1e-16)
    assert mixed.kind == "verb_noun+uniform"
    assert_row_stochastic(mixed)


def test_mix_priors_weights_normalized(toy_vocab):
    vn = build_verb_noun_prior(toy_vocab)
    np.testing.assert_array_equal(mix_priors([vn], [7.0]).rows, vn.rows)
    a = mix_priors([vn, build_uniform_prior(4)], [2.0, 6.0])
    b = mix_priors([vn, build_uniform_prior(4)], [0.25, 0.75])
    np.testing.assert_allclose(a.rows, b.rows, rtol=0, atol=1e-16)


def test_mix_priors_errors(toy_vocab):
    vn = build_verb_noun_prior(toy_vocab)
    with pytest.raises(ValueError):
        mix_priors([], [])
    with pytest.raises(ValueError):
        mix_priors([vn], [1.0, 2.0])
    with pytest.raises(ValueError):
        mix_priors([vn, build_uniform_prior(3)], [1.0, 1.0])
    with pytest.raises(ValueError):
        mix_priors([vn, vn], [1.0, -1.0])
    with pytest.raises(ValueError):
        mix_priors([vn, vn], [0.0, 0.0])


def test_mix_prior_peaks_at_about_three_matrices():
    # glove+verb_noun holds the two priors and their sum, plus one block of
    # rows: no fourth K x K product, and the glove and verb-noun builders
    # make no second matrix beside their own
    letters = "abcdefghijklmnopqrst"
    vocab = ActionVocab(verbs=tuple("v" + c for c in letters),
                        nouns=tuple("n" + c for c in letters[:15]),
                        actions=tuple((v, n) for v in range(20)
                                      for n in range(15)))
    rng = np.random.default_rng(8)
    table = EmbeddingTable(6, {t: rng.normal(size=6)
                               for t in vocab.verbs + vocab.nouns})
    tracemalloc.start()
    try:
        mixed = build_prior("glove+verb_noun", vocab, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * vocab.K ** 2 * 8
    # the sum by blocks of rows has the bits of the whole-matrix sum
    whole = np.zeros((vocab.K, vocab.K))
    for p in (build_glove_prior(vocab, table), build_verb_noun_prior(vocab)):
        whole += 0.5 * p.rows
    assert mixed.rows.tobytes() == whole.tobytes()


# ------------------------------------------------------------- dispatch


def test_build_prior_dispatches_every_kind(toy_vocab, embed):
    table = embed("cut 1 0\nwash 0 1\nonion 1 0\n")
    pairs = [(0, 1), (1, 3), (3, 1)]
    built = {kind: build_prior(kind, toy_vocab, table, pairs)
             for kind in KINDS}
    assert built["onehot"] is None
    want = {
        "uniform": build_uniform_prior(4),
        "verb_noun": build_verb_noun_prior(toy_vocab),
        "glove": build_glove_prior(toy_vocab, table),
        "temporal": build_temporal_prior(np.array(pairs), toy_vocab),
        "glove+verb_noun": mix_priors([build_glove_prior(toy_vocab, table),
                                       build_verb_noun_prior(toy_vocab)],
                                      [0.5, 0.5]),
    }
    for kind, prior in want.items():
        assert built[kind].kind == prior.kind == kind
        np.testing.assert_array_equal(built[kind].rows, prior.rows)


def test_build_prior_missing_inputs(toy_vocab):
    for kind in ("glove", "glove+verb_noun"):
        with pytest.raises(ValueError, match="embeddings"):
            build_prior(kind, toy_vocab, pairs=[])
    with pytest.raises(ValueError, match="pairs"):
        build_prior("temporal", toy_vocab)
    with pytest.raises(ValueError, match="mixture"):
        build_prior("mixture", toy_vocab)


# ------------------------------------------------------------------- i/o


def test_prior_save_load_roundtrip(tmp_path, toy_vocab):
    p = build_verb_noun_prior(toy_vocab)
    path = tmp_path / "prior.csv"
    save_prior(p, path, vocab_hash=toy_vocab.content_hash())
    loaded = load_prior(path)
    np.testing.assert_array_equal(loaded.rows, p.rows)
    assert loaded.kind == "verb_noun"
    # without the sidecar the kind falls back to "custom"
    path.with_suffix(".json").unlink()
    assert load_prior(path).kind == "custom"


def test_save_prior_refuses_a_json_path(tmp_path, toy_vocab):
    # the sidecar would overwrite the CSV, so nothing is written
    path = tmp_path / "prior.json"
    with pytest.raises(ValueError, match="may not end in .json"):
        save_prior(build_verb_noun_prior(toy_vocab), path)
    assert list(tmp_path.iterdir()) == []


def _per_entry_csv(prior: PriorMatrix) -> str:
    """The earlier save_prior body: one f-string per entry."""
    lines = [",".join(f"{x:.17g}" for x in row) for row in prior.rows]
    return "\n".join(lines) + "\n"


def test_save_prior_bytes_match_per_entry_formatting(tmp_path, toy_vocab):
    rng = np.random.default_rng(4)
    dense = rng.random((37, 37)) + 1e-3
    tiny = 2.2250738585072014e-308  # smallest normal; the rest are below it
    edge = [[1.0, 5e-324, 1e-310, tiny / 3, -0.0],
            [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0],
            [0.1, 0.2, 0.3, 0.4, 0.0],
            [0.2] * 5,
            [1e-17, 1.0, 0.0, tiny, 123e-320]]
    # rows that repeat values next to ones that tell them apart by sign or
    # by a subnormal
    zeros = [[0.5, 0.0, -0.0, 0.5, 0.0],
             [1.0, 5e-324, 0.0, -0.0, 0.0],
             [-0.0, 1.0, -0.0, 0.0, 5e-324],
             [0.25, 0.25, 0.25, 0.25, -0.0],
             [0.0] * 4 + [1.0]]
    # row 0 holds K distinct values, the other rows repeat theirs
    distinct = np.tile(np.arange(1.0, 41.0) / 820.0, (40, 1))
    distinct[1:, 20:] = 0.0
    distinct[1:, :20] = 1 / 20
    assert np.unique(distinct[0]).size == 40
    k300 = ActionVocab(tuple(f"v{i}" for i in range(15)),
                       tuple(f"n{i}" for i in range(20)),
                       tuple((v, n) for v in range(15) for n in range(20)))
    for prior in (PriorMatrix(dense / dense.sum(axis=1, keepdims=True)),
                  build_verb_noun_prior(toy_vocab),
                  build_verb_noun_prior(random_vocab(rng)),
                  PriorMatrix(edge),
                  PriorMatrix(zeros),
                  build_temporal_prior(rng.integers(0, 300, (900, 2)), k300),
                  _repetitive_mix(rng),
                  PriorMatrix(distinct)):
        path = tmp_path / "prior.csv"
        save_prior(prior, path)
        assert path.read_text() == _per_entry_csv(prior)
        np.testing.assert_array_equal(load_prior(path).rows, prior.rows)
    save_prior(PriorMatrix(zeros), path)
    assert path.read_text().splitlines()[1] == "1,4.9406564584124654e-324,0,-0,0"


def _repetitive_mix(rng) -> PriorMatrix:
    """A glove+verb_noun mix of 60 actions whose words share three
    embedding vectors (one of them zero), so each row repeats values."""
    verbs = tuple(f"verb{c}" for c in "abcdefgh")
    nouns = tuple(f"noun{c}" for c in "abcdefghij")
    cells = [(v, n) for v in range(len(verbs)) for n in range(len(nouns))]
    chosen = sorted(rng.choice(len(cells), size=60, replace=False).tolist())
    vocab = ActionVocab(verbs=verbs, nouns=nouns,
                        actions=tuple(cells[i] for i in chosen))
    protos = [rng.normal(size=3), rng.normal(size=3), np.zeros(3)]
    table = EmbeddingTable(3, {w: protos[int(rng.integers(3))]
                               for w in verbs + nouns})
    prior = build_prior("glove+verb_noun", vocab, table)
    assert max(np.unique(row).size for row in prior.rows) < 20
    return prior


def test_load_prior_errors(tmp_path):
    bad = tmp_path / "prior.csv"
    for text, message in [
            ("0.5,0.5\n0.5,oops\n", "line 2: non-numeric prior entry"),
            ("0.5,0.5\n0.2,0.3,0.5\n", "line 2: expected 2 columns, got 3"),
            ("0.5,0.5\n\n0.2,0.3,0.5\n", "line 3: expected 2 columns"),
            ("0.2,0.3,0.5\n0.5,0.2,0.3\n", "not square: 2 rows of 3 columns"),
            ("0.5,0.5\n0.5,0.5\n0.5,0.5\n", "not square: 3 rows of 2"),
            ("", "not square: 0 rows of 0 columns"),
            ("\n  \n", "not square: 0 rows of 0 columns")]:
        bad.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            load_prior(bad)
        assert str(info.value).startswith(f"{bad}: ")


def test_load_prior_reads_each_entry_as_float_does(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.random((7, 7)) ** 8
    rows[0, :3] = [5e-324, 0.0, 1e-300]
    rows /= rows.sum(axis=1, keepdims=True)
    text = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    # other spellings float() takes: exponent case, padding, a leading '+'
    text = text.replace("e-", "E-", 3).replace(",", " , ", 2)
    text = "+" + text + "\n"
    path = tmp_path / "prior.csv"
    path.write_text(text)
    want = np.array([[float(x) for x in line.split(",")]
                     for line in text.splitlines() if line.strip()])
    assert load_prior(path).rows.tobytes() == want.tobytes()


def test_load_prior_holds_about_one_matrix(tmp_path):
    K = 400
    rows = np.random.default_rng(6).random((K, K))
    rows /= rows.sum(axis=1, keepdims=True)
    path = tmp_path / "prior.csv"
    save_prior(PriorMatrix(rows), path)
    tracemalloc.start()
    try:
        loaded = load_prior(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.rows.tobytes() == rows.tobytes()
    assert peak < 1.5 * rows.nbytes


def test_load_prior_does_not_size_the_matrix_by_a_wide_line(tmp_path):
    # 200 KB cannot hold 100000 rows of 100000 entries, so no 80 GB array
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["0"] * 100_000) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="1 rows of 100000 columns"):
            load_prior(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000_000


def test_prior_matrix_rejects_non_finite_entries():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PriorMatrix([[value, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("text, message", [
    ("nan,nan\n0.5,0.5\n", "must be finite"),
    ("inf,0\n0.5,0.5\n", "must be finite"),
    ("0.5,-inf\n0.5,0.5\n", "must be finite"),
    ("1.5,-0.5\n0.5,0.5\n", "non-negative"),
    ("0.5,0.4\n0.5,0.5\n", "row 0 sums to"),
])
def test_load_prior_rejects_a_matrix_that_is_not_a_prior(tmp_path, text,
                                                         message):
    bad = tmp_path / "bad_prior.csv"
    bad.write_text(text)
    with pytest.raises(ParseError, match=message) as info:
        load_prior(bad)
    assert str(bad) in str(info.value)


# --------------------------------------------------------------- property


def test_all_builders_row_stochastic():
    rng = np.random.default_rng(29)
    for _ in range(25):
        vocab = random_vocab(rng)
        words = set(vocab.verbs) | set(vocab.nouns)
        table = EmbeddingTable(4, {w: rng.normal(size=4) for w in words})
        videos = [rng.integers(0, vocab.K, size=rng.integers(1, 10)).tolist()
                  for _ in range(rng.integers(1, 4))]
        pairs = make_annotations(vocab, videos)
        priors = [
            build_uniform_prior(vocab.K),
            build_verb_noun_prior(vocab),
            build_glove_prior(vocab, table),
            build_temporal_prior(pairs, vocab),
        ]
        priors.append(mix_priors(priors[1:3], [1.0, 1.0]))
        for p in priors:
            assert p.K == vocab.K
            assert_row_stochastic(p)
