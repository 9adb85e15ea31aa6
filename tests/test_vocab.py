import json
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

from softact import (ActionInstance, ActionVocab, AnnotationSet, FormatError,
                     ParseError, format_annotations, parse_annotations,
                     transition_pairs)

from conftest import random_vocab

CSV = """video_id,start_s,verb,noun
v1,0,cut,onion
v1,1,Cut,carrot
v1,2,wash,onion
v2,0,wash,carrot
v2,1.5,cut,onion
"""


def test_parse_annotations_basic():
    ann = parse_annotations(CSV)
    assert len(ann) == 5
    first = ann.instances[0]
    assert first == ActionInstance("v1", 0.0, "cut", "onion")
    # tokens are normalized to lowercase
    assert ann.instances[1].verb == "cut"
    videos = ann.videos()
    assert [len(v) for v in videos] == [3, 2]
    assert videos[1][1].start_time == 1.5


def test_parse_annotations_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_annotations("")
    with pytest.raises(ParseError, match="header"):
        parse_annotations("a,b,c,d\nv,0,cut,onion\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_annotations("video_id,start_s,verb,noun\nv,0,cut,onion\nv,x,a,b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_annotations("video_id,start_s,verb,noun\nv,0,cut\n")
    with pytest.raises(ParseError, match="no annotation rows"):
        parse_annotations("video_id,start_s,verb,noun\n")
    # empty token
    with pytest.raises(ParseError, match="line 2"):
        parse_annotations("video_id,start_s,verb,noun\nv,0,,onion\n")
    # a NaN start time used to parse, and then sort its video arbitrarily
    for start in ("nan", "NaN", "inf", "-inf", "1e400"):
        with pytest.raises(ParseError, match="^line 3: start_time must be "
                                             "finite and >= 0, got "):
            parse_annotations(f"video_id,start_s,verb,noun\nv,0,cut,onion\n"
                              f"v,{start},cut,onion\n")


def test_format_annotations_round_trip(toy_vocab):
    # walks of action ids come back from the CSV as the same consecutive
    # pairs, video by video
    walks = np.array([[0, 3, 1, 1], [2, 0, 3, 2]])
    text = format_annotations(walks, toy_vocab)
    assert text.splitlines()[:3] == ["video_id,start_s,verb,noun",
                                     "synth0000,0,cut,onion",
                                     "synth0000,1,wash,carrot"]
    pairs = transition_pairs(parse_annotations(text), toy_vocab)
    assert pairs == [(0, 3), (3, 1), (1, 1), (2, 0), (0, 3), (3, 2)]


def test_action_instance_validation():
    with pytest.raises(ValueError):
        ActionInstance("v", -1.0, "cut", "onion")
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"start_time must be finite "
                                             f"and >= 0, got {start}"):
            ActionInstance("v", start, "cut", "onion")
    with pytest.raises(ValueError):
        ActionInstance("v", 0.0, "", "onion")
    with pytest.raises(ValueError):
        ActionInstance("", 0.0, "cut", "onion")


def test_from_instances_sorts_and_groups():
    # interleaved videos arrive out of order; grouping is by first
    # appearance, within-video order is by start time (stable)
    raw = [
        ActionInstance("b", 1.0, "cut", "onion"),
        ActionInstance("a", 5.0, "wash", "onion"),
        ActionInstance("b", 0.0, "cut", "carrot"),
        ActionInstance("a", 2.0, "cut", "onion"),
    ]
    ann = AnnotationSet.from_instances(raw)
    videos = ann.videos()
    assert [v[0].video_id for v in videos] == ["b", "a"]
    assert [i.start_time for i in videos[0]] == [0.0, 1.0]
    assert [i.start_time for i in videos[1]] == [2.0, 5.0]


def test_annotation_set_rejects_disorder():
    ok = ActionInstance("a", 0.0, "cut", "onion")
    with pytest.raises(ValueError):
        AnnotationSet((ok, ActionInstance("b", 0.0, "cut", "onion"),
                       ActionInstance("a", 1.0, "cut", "onion")))
    with pytest.raises(ValueError):
        AnnotationSet((ActionInstance("a", 2.0, "cut", "onion"), ok))


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
