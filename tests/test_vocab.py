import json

import pytest

from softact import (ActionInstance, ActionVocab, AnnotationSet, FormatError,
                     ParseError, build_vocab, format_annotations,
                     parse_annotations)

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


def test_format_annotations_round_trip():
    ann = parse_annotations(CSV)
    again = parse_annotations(format_annotations(ann))
    assert again == ann


def test_action_instance_validation():
    with pytest.raises(ValueError):
        ActionInstance("v", -1.0, "cut", "onion")
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


def test_build_vocab_first_appearance():
    ann = parse_annotations(CSV)
    vocab = build_vocab(ann)
    assert vocab.verbs == ("cut", "wash")
    assert vocab.nouns == ("onion", "carrot")
    assert vocab.actions == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert vocab.K == 4
    assert vocab.action_id("cut", "carrot") == 1
    assert vocab.actions[2] == (1, 0)
    with pytest.raises(KeyError):
        vocab.action_id("cut", "pan")


def test_cohorts(toy_vocab):
    assert toy_vocab.verb_cohort(0) == frozenset({0, 1})
    assert toy_vocab.verb_cohort(1) == frozenset({2, 3})
    assert toy_vocab.noun_cohort(0) == frozenset({0, 2})
    assert toy_vocab.noun_cohort(1) == frozenset({1, 3})
    with pytest.raises(IndexError):
        toy_vocab.verb_cohort(2)
    with pytest.raises(IndexError):
        toy_vocab.noun_cohort(-3)


def test_vocab_validation():
    with pytest.raises(ValueError):
        ActionVocab(("a", "a"), ("x",), ((0, 0),))
    with pytest.raises(ValueError):
        ActionVocab(("a",), ("x",), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        ActionVocab(("a",), ("x",), ((1, 0),))
    with pytest.raises(ValueError):
        ActionVocab((), (), ())


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
