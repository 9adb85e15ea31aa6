"""Corrupt inputs: readers raise FormatError (ParseError for a malformed
text file), never another exception, and never allocate what a header
claims before checking it against the data.

Truncations and byte flips of small valid files, random JSON values in
the checkpoint's config blob, in a dataset bundle's JSON files (the
manifest's protocol too) and in an experiment config file, and character
edits of the text files: an annotation CSV, an embedding file and a prior
CSV. Edited files are written with ``errors="surrogatepass"``, so a lone
surrogate among the edits becomes bytes that are not UTF-8, which the
readers must refuse too. ``eval`` on a truncated, extended or byte-flipped
checkpoint exits 0 or 2 without a traceback.
Hypothesis runs derandomized and without an example database, so every
run tries the same inputs.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softact import (ActionVocab, ExperimentConfig, FeatureSet, FormatError,
                     GrammarConfig, ModelConfig, ParseError, ProtocolConfig,
                     build_verb_noun_prior, format_annotations,
                     generate_dataset, init_params, load_checkpoint,
                     load_dataset, load_embeddings, load_experiment_config,
                     load_prior, parse_annotations, read_features,
                     save_checkpoint, save_dataset, save_experiment_config,
                     save_prior, write_features)
from softact.cli import main
from softact.seqmodel import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def feature_bytes(work) -> bytes:
    rng = np.random.default_rng(0)
    fs = FeatureSet(dims=(3, 2),
                    features=(rng.normal(size=(3, 4, 3)).astype(np.float32),
                              rng.normal(size=(3, 4, 2)).astype(np.float32)),
                    targets=[0, 7, 2])
    write_features(fs, work / "x.feat")
    return (work / "x.feat").read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(work) -> bytes:
    params = init_params(ModelConfig(modalities=(("rgb", 3),), num_classes=5,
                                     hidden_size=2, seed=1))
    save_checkpoint(params, work / "m.bin")
    return (work / "m.bin").read_bytes()


def _read(reader, data: bytes, work) -> None:
    """Load ``data``; a FormatError is fine, any other exception fails."""
    path = work / "input"
    path.write_bytes(data)
    try:
        reader(path)
    except FormatError:
        pass


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for position, value in flips:
        out[position % len(out)] = value
    return bytes(out)


flips = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                 min_size=1, max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# Each edit replaces up to 3 characters at a position with up to 3 others,
# mostly of CSV and number syntax.
edits = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 3),
              st.text(st.sampled_from(list(',\n\r" .-+0123456789eEinfa\t\x00'))
                      | st.characters(), max_size=3)),
    min_size=1, max_size=4)
edge_values = st.sampled_from([float("inf"), float("nan"), 1e300, -1, 0,
                               2 ** 64, "16", True, None]) | st.floats()


@FUZZ
@given(cut=st.integers(0, 10_000))
def test_truncated_inputs_raise_format_error(feature_bytes, checkpoint_bytes,
                                             work, cut):
    for reader, data in ((read_features, feature_bytes),
                         (load_checkpoint, checkpoint_bytes)):
        (work / "input").write_bytes(data[:cut % len(data)])
        with pytest.raises(FormatError):
            reader(work / "input")


@FUZZ
@given(flips=flips)
def test_flipped_feature_bytes_raise_only_format_error(feature_bytes, work,
                                                       flips):
    # header flips must be caught; payload flips are just other floats
    header = 16 + 4 * 3
    flips = [(p % header if i == 0 else p, v) for i, (p, v) in enumerate(flips)]
    _read(read_features, _flip(feature_bytes, flips), work)


@FUZZ
@given(flips=flips)
def test_flipped_checkpoint_bytes_raise_only_format_error(checkpoint_bytes,
                                                          work, flips):
    # aim the first flip into the magic, header or JSON config
    (blob_len,) = struct.unpack_from("<I", checkpoint_bytes, 8)
    flips = [(p % (12 + blob_len) if i == 0 else p, v)
             for i, (p, v) in enumerate(flips)]
    _read(load_checkpoint, _flip(checkpoint_bytes, flips), work)


def _edit(text: str, edits) -> str:
    for position, cut, insert in edits:
        i = position % (len(text) + 1)
        text = text[:i] + insert + text[i + cut:]
    return text


def _with_config(checkpoint_bytes: bytes, edit) -> bytes:
    """The checkpoint with its JSON config replaced by ``edit(config)``."""
    (blob_len,) = struct.unpack_from("<I", checkpoint_bytes, 8)
    blob = json.dumps(edit(json.loads(checkpoint_bytes[12:12 + blob_len])))
    return (CHECKPOINT_MAGIC
            + struct.pack("<II", CHECKPOINT_VERSION, len(blob.encode()))
            + blob.encode() + checkpoint_bytes[12 + blob_len:])


@FUZZ
@given(field=st.sampled_from(["modalities", "num_classes", "hidden_size",
                              "learning_rate", "seed"]),
       value=edge_values | json_values, drop=st.booleans())
def test_random_checkpoint_field_raises_only_format_error(
        checkpoint_bytes, work, field, value, drop):
    def edit(doc):
        if drop:
            del doc[field]
        else:
            doc[field] = value
        return doc

    _read(load_checkpoint, _with_config(checkpoint_bytes, edit), work)


@FUZZ
@given(dim=edge_values | json_values)
def test_random_checkpoint_dim_raises_only_format_error(checkpoint_bytes,
                                                        work, dim):
    def edit(doc):
        doc["modalities"] = [["rgb", dim]]
        return doc

    _read(load_checkpoint, _with_config(checkpoint_bytes, edit), work)


@FUZZ
@given(doc=json_values)
def test_random_checkpoint_config_raises_only_format_error(checkpoint_bytes,
                                                           work, doc):
    _read(load_checkpoint, _with_config(checkpoint_bytes, lambda _: doc), work)


@pytest.fixture(scope="module")
def bundle(work):
    dataset = generate_dataset(
        GrammarConfig(num_verbs=2, num_nouns=2, modalities=(("rgb", 2),)),
        ProtocolConfig(encode_steps=1, decode_steps=1), num_videos=4,
        video_length=4)
    save_dataset(dataset, work / "bundle")
    return work / "bundle"


@FUZZ
@given(name=st.sampled_from(["manifest.json", "grammar.json", "vocab.json"]),
       key=st.sampled_from(["protocol", "modalities", "train_previous",
                            "num_verbs", "action_density", "seed", "verbs",
                            "actions"]),
       value=edge_values | json_values)
def test_random_bundle_json_raises_only_format_error(bundle, name, key, value):
    path = bundle / name
    good = path.read_text()
    doc = json.loads(good)
    if key in doc:
        doc[key] = value
    path.write_text(json.dumps(doc))
    try:
        load_dataset(bundle)
    except (FormatError, ParseError):  # ParseError: text unlike its format
        pass
    finally:
        path.write_text(good)


@FUZZ
@given(key=st.sampled_from(["snippet_stride", "encode_steps", "decode_steps",
                            "snippet_len", "stride"]),
       value=edge_values | json_values, whole=st.booleans())
def test_random_manifest_protocol_raises_only_format_error(bundle, key, value,
                                                           whole):
    path = bundle / "manifest.json"
    good = path.read_text()
    manifest = json.loads(good)
    if whole:
        manifest["protocol"] = value
    else:
        manifest["protocol"][key] = value
    path.write_text(json.dumps(manifest))
    try:
        load_dataset(bundle)
    except (FormatError, ParseError):
        pass
    finally:
        path.write_text(good)


@pytest.fixture(scope="module")
def bundle_checkpoint(bundle, work):
    """A checkpoint that ``eval`` accepts for ``bundle``."""
    params = init_params(ModelConfig(modalities=(("rgb", 2),),
                                     num_classes=load_dataset(bundle).K,
                                     hidden_size=2))
    save_checkpoint(params, work / "bundle.bin")
    return (work / "bundle.bin").read_bytes()


@FUZZ
@given(corruption=st.tuples(st.just("truncate"), st.integers(0, 10_000))
       | st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16))
       | st.tuples(st.just("flip"), flips))
def test_eval_of_a_corrupt_checkpoint_exits_0_or_2(bundle, bundle_checkpoint,
                                                   work, corruption):
    # the whole command: a flipped weight also runs the forward pass
    kind, arg = corruption
    data = bundle_checkpoint
    (work / "input").write_bytes(data[:arg % len(data)] if kind == "truncate"
                                 else data + arg if kind == "extend"
                                 else _flip(data, arg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--data", str(bundle), "--checkpoint",
                     str(work / "input"), "--out", str(work / "eval.csv")])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


@FUZZ
@given(key=st.sampled_from(["epochs", "batch_size", "trials", "hidden_size",
                            "learning_rate", "seed", "early_stop_time",
                            "many_shot_threshold"]),
       value=edge_values | json_values)
def test_random_experiment_config_raises_only_format_error(work, key, value):
    path = work / "config.json"
    save_experiment_config(ExperimentConfig(), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    try:
        load_experiment_config(path)
    except (FormatError, ParseError):
        pass


VOCAB = ActionVocab(verbs=("cut", "wash"), nouns=("onion", "carrot"),
                    actions=((0, 0), (0, 1), (1, 0), (1, 1)))


@FUZZ
@given(edits=edits)
def test_edited_annotations_raise_only_parse_error(edits):
    text = _edit(format_annotations(np.array([[0, 3, 1, 1], [2, 0, 3, 2]]),
                                    VOCAB), edits)
    try:
        pairs = parse_annotations(text, VOCAB)
    except ParseError:
        return
    assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
    assert pairs.size == 0 or (pairs.min() >= 0 and pairs.max() < VOCAB.K)


@FUZZ
@given(edits=edits)
def test_edited_embeddings_raise_only_parse_or_format_error(work, edits):
    path = work / "embeddings.txt"
    path.write_text(_edit("cut 1 0.5\nwash -0.25 1e-3\n\nonion 0 2\n", edits),
                    encoding="utf-8", errors="surrogatepass")
    try:
        table = load_embeddings(path)
    except (ParseError, FormatError):
        return
    assert all(v.shape == (table.dimension,) for v in table.vectors.values())


@pytest.fixture(scope="module")
def prior_text(work) -> str:
    save_prior(build_verb_noun_prior(VOCAB), work / "prior.csv")
    return (work / "prior.csv").read_text()


@FUZZ
@given(edits=edits)
def test_edited_prior_csv_raises_only_parse_or_format_error(work, prior_text,
                                                           edits):
    # the sidecar stays beside the edited CSV
    path = work / "prior.csv"
    path.write_text(_edit(prior_text, edits), encoding="utf-8",
                    errors="surrogatepass")
    try:
        prior = load_prior(path)
    except (ParseError, FormatError):
        return
    assert prior.rows.shape == (prior.K, prior.K)


def test_feature_header_sizes_are_checked_before_allocating(tmp_path):
    # 2^31 samples of 1 x 1 floats claimed by a 24-byte file
    path = tmp_path / "huge.feat"
    path.write_bytes(b"FEAT" + struct.pack("<5I", 1, 2 ** 31, 1, 1, 1))
    with pytest.raises(FormatError, match="truncated"):
        read_features(path)
    # a dimension numpy cannot hold, behind an empty payload
    path.write_bytes(b"FEAT" + struct.pack("<5I", 1, 0, 1, 2 ** 32 - 1, 3))
    with pytest.raises(FormatError, match="shape"):
        read_features(path)
