import json
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

from softact import (ActionVocab, FormatError, ParseError,
                     build_temporal_prior, format_annotations,
                     parse_annotations)

from conftest import random_vocab

CSV = """video_id,start_s,verb,noun
v1,0,cut,onion
v1,1,Cut,carrot
v1,2,wash,onion
v2,0,wash,carrot
v2,1.5,cut,onion
"""


HEADER = "video_id,start_s,verb,noun\n"


def test_parse_annotations_basic(toy_vocab):
    # tokens are normalized (Cut, padding) before the lookup; pairs never
    # cross from v1 into v2
    pairs = parse_annotations(CSV, toy_vocab)
    assert pairs.dtype == np.int64 and pairs.shape == (3, 2)
    assert pairs.tolist() == [[0, 1], [1, 2], [3, 0]]
    padded = HEADER + "v1 , 0 , cut , onion\nv1,1, WASH ,Carrot\n"
    assert parse_annotations(padded, toy_vocab).tolist() == [[0, 3]]
    # one row per video gives no pairs, in the same (0, 2) layout
    lone = parse_annotations(HEADER + "a,0,cut,onion\nb,0,wash,onion\n",
                             toy_vocab)
    assert lone.dtype == np.int64 and lone.shape == (0, 2)


def test_parse_annotations_errors(toy_vocab):
    with pytest.raises(ParseError, match="line 1"):
        parse_annotations("", toy_vocab)
    with pytest.raises(ParseError, match="header"):
        parse_annotations("a,b,c,d\nv,0,cut,onion\n", toy_vocab)
    with pytest.raises(ParseError, match="line 3"):
        parse_annotations(HEADER + "v,0,cut,onion\nv,x,a,b\n", toy_vocab)
    with pytest.raises(ParseError, match="line 2"):
        parse_annotations(HEADER + "v,0,cut\n", toy_vocab)
    with pytest.raises(ParseError, match="no annotation rows"):
        parse_annotations(HEADER, toy_vocab)
    # empty token
    with pytest.raises(ParseError, match="line 2"):
        parse_annotations(HEADER + "v,0,,onion\n", toy_vocab)
    # an unknown action names its line, as the other row errors do
    with pytest.raises(ParseError, match=r"^line 3: unknown action \('jump', "
                                         r"'rope'\) in video 'v'$"):
        parse_annotations(HEADER + "v,0,cut,onion\nv,1,Jump,rope\n",
                          toy_vocab)
    # a field over the csv module's limit is a csv.Error inside the reader
    with pytest.raises(ParseError, match="^line 3: field larger than field "
                                         "limit"):
        parse_annotations(HEADER + "v,0,cut,onion\nv,1,cut,"
                          + "o" * 200_000 + "\n", toy_vocab)
    # a NaN start time used to parse, and then sort its video arbitrarily
    for start in ("nan", "NaN", "inf", "-inf", "1e400"):
        with pytest.raises(ParseError, match="^line 3: start_time must be "
                                             "finite and >= 0, got "):
            parse_annotations(f"{HEADER}v,0,cut,onion\nv,{start},cut,onion\n",
                              toy_vocab)


def test_format_annotations_round_trip(toy_vocab):
    # walks of action ids come back from the CSV as the walks' consecutive
    # columns, video by video
    walks = np.array([[0, 3, 1, 1], [2, 0, 3, 2]])
    text = format_annotations(walks, toy_vocab)
    assert text.splitlines()[:3] == ["video_id,start_s,verb,noun",
                                     "synth0000,0,cut,onion",
                                     "synth0000,1,wash,carrot"]
    pairs = parse_annotations(text, toy_vocab)
    want = np.stack([walks[:, :-1].ravel(), walks[:, 1:].ravel()], axis=1)
    np.testing.assert_array_equal(pairs, want)
    assert pairs.tolist() == [[0, 3], [3, 1], [1, 1], [2, 0], [0, 3], [3, 2]]


def test_parse_annotations_checks_every_row(toy_vocab):
    for row, message in (
            ("v,-1,cut,onion", "start_time must be finite and >= 0, got -1.0"),
            *((f"v,{start},cut,onion",
               f"start_time must be finite and >= 0, got {start}")
              for start in (math.nan, math.inf, -math.inf)),
            ("v,0,,onion", "video_id, verb and noun must be non-empty"),
            ("v,0,cut, ", "video_id, verb and noun must be non-empty"),
            (" ,0,cut,onion", "video_id, verb and noun must be non-empty")):
        with pytest.raises(ParseError) as info:
            parse_annotations(f"{HEADER}v,0,cut,onion\n{row}\n", toy_vocab)
        assert str(info.value) == f"line 3: {message}"


def test_parse_annotations_sorts_and_groups(toy_vocab):
    # interleaved videos arrive out of order; grouping is by first
    # appearance, within-video order is by start time, and rows with
    # equal times keep their file order (a stable sort)
    text = HEADER + ("b,1,cut,onion\n"
                     "a,5,wash,onion\n"
                     "b,0,cut,carrot\n"
                     "a,2,cut,onion\n"
                     "b,1,wash,carrot\n"
                     "a,2,wash,carrot\n")
    # b: carrot@0, onion@1, wash-carrot@1; a: onion@2, wash-carrot@2,
    # wash-onion@5
    assert parse_annotations(text, toy_vocab).tolist() == [
        [1, 0], [0, 3], [0, 3], [3, 2]]


def test_parse_annotations_ignores_row_order():
    # rows shuffled at random give the same pairs (only the video order
    # moves) and so a prior with the same bits
    rng = np.random.default_rng(3)
    for _ in range(10):
        vocab = random_vocab(rng)
        walks = rng.integers(0, vocab.K, size=(int(rng.integers(1, 6)),
                                               int(rng.integers(1, 9))))
        lines = format_annotations(walks, vocab).splitlines(keepends=True)
        pairs = parse_annotations("".join(lines), vocab)
        body = lines[1:]
        rng.shuffle(body)
        shuffled = parse_annotations(lines[0] + "".join(body), vocab)
        assert sorted(map(tuple, shuffled.tolist())) == sorted(
            map(tuple, pairs.tolist()))
        np.testing.assert_array_equal(
            build_temporal_prior(shuffled, vocab).rows.view(np.uint64),
            build_temporal_prior(pairs, vocab).rows.view(np.uint64))


def test_cohorts(toy_vocab):
    # verb_of/noun_of are the columns of actions, read-only as built
    assert toy_vocab.verb_of.tolist() == [0, 0, 1, 1]
    assert toy_vocab.noun_of.tolist() == [0, 1, 0, 1]
    for column in (toy_vocab.verb_of, toy_vocab.noun_of):
        assert column.dtype == np.int64 and column.shape == (toy_vocab.K,)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1
    # derived, so == and hash see only verbs, nouns and actions
    assert [f.name for f in fields(ActionVocab)] == ["verbs", "nouns",
                                                     "actions"]
    same = ActionVocab(toy_vocab.verbs, toy_vocab.nouns, toy_vocab.actions)
    object.__setattr__(same, "verb_of", np.zeros(4, dtype=np.int64))
    assert same == toy_vocab and hash(same) == hash(toy_vocab)
    # the --jobs workers get the vocabulary pickled; the read-only flag is
    # not pickled, the values are
    again = pickle.loads(pickle.dumps(toy_vocab))
    assert again == toy_vocab
    np.testing.assert_array_equal(again.verb_of, toy_vocab.verb_of)
    np.testing.assert_array_equal(again.noun_of, toy_vocab.noun_of)
    assert again.action_id("wash", "carrot") == 3
    assert toy_vocab.action_id("cut", "carrot") == 1
    assert toy_vocab.action_id("wash", "onion") == 2
    assert toy_vocab.action_id(" Wash ", "ONION") == 2
    with pytest.raises(KeyError):
        toy_vocab.action_id("cut", "pan")
    rng = np.random.default_rng(4)
    for _ in range(20):
        vocab = random_vocab(rng)
        assert vocab.verb_of.tolist() == [v for v, _ in vocab.actions]
        assert vocab.noun_of.tolist() == [n for _, n in vocab.actions]


def test_vocab_validation():
    with pytest.raises(ValueError):
        ActionVocab(("a", "a"), ("x",), ((0, 0),))
    with pytest.raises(ValueError):
        ActionVocab(("a",), ("x",), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        ActionVocab(("a",), ("x",), ((1, 0),))
    with pytest.raises(ValueError):
        ActionVocab((), (), ())


@pytest.mark.parametrize("verbs, nouns", [
    (("Cut",), ("onion",)),
    (("cut",), (" onion",)),
    (("cut",), ("onion\t",)),
    (("cut", "WASH"), ("onion",)),
])
def test_vocab_refuses_tokens_action_id_cannot_find(verbs, nouns):
    # action_id normalizes its query, so an unnormalized token's actions
    # could never be looked up
    actions = tuple((v, 0) for v in range(len(verbs)))
    with pytest.raises(ValueError, match="not normalized"):
        ActionVocab(verbs, nouns, actions)
    doc = {"verbs": list(verbs), "nouns": list(nouns),
           "actions": [list(a) for a in actions]}
    with pytest.raises(FormatError, match="^the/vocab.json: token .* is "
                                          "empty or not normalized"):
        ActionVocab.from_json(json.dumps(doc), "the/vocab.json")


def test_vocab_json_round_trip(toy_vocab):
    text = toy_vocab.to_json()
    again = ActionVocab.from_json(text)
    assert again == toy_vocab
    assert again.content_hash() == toy_vocab.content_hash()
    other = ActionVocab(("cut", "wash"), ("onion", "carrot"),
                        ((0, 0), (0, 1), (1, 0)))
    assert other.content_hash() != toy_vocab.content_hash()


@pytest.mark.parametrize("edit, message", [
    ({"verbs": "ab"}, "'verbs' must be a list"),
    ({"nouns": ["onion", 3]}, r"'nouns\[1\]' must be a string"),
    ({"actions": [[0.9, 0]]}, r"'actions\[0\]\[0\]' must be an integer"),
    ({"actions": [[True, 0]]}, r"'actions\[0\]\[0\]' must be an integer"),
    ({"actions": [["0", 0]]}, r"'actions\[0\]\[0\]' must be an integer"),
    ({"actions": [[0, 0, 1]]}, "must be a list of 2"),
    ({"actions": None}, "'actions' must be a list"),
])
def test_vocab_from_json_takes_only_well_typed_json(toy_vocab, edit,
                                                    message):
    doc = {**json.loads(toy_vocab.to_json()), **edit}
    with pytest.raises(FormatError, match=message) as info:
        ActionVocab.from_json(json.dumps(doc), "the/vocab.json")
    assert str(info.value).startswith("the/vocab.json: ")


def test_vocab_from_json_rejects_junk():
    with pytest.raises((ParseError, ValueError, KeyError)):
        ActionVocab.from_json("{}")
    with pytest.raises((ParseError, ValueError)):
        ActionVocab.from_json("not json")
