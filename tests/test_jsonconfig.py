"""The typed JSON codec behind every config the package stores or reads.

Each reader (experiment and synth config files, the checkpoint header, a
bundle's manifest protocol and grammar.json) rejects a float or a bool in
an integer field, NaN or an infinity in a float field and a non-object with
FormatError (CLI exit 2) naming the key; the writers give the bytes of the
hand-written dicts they replaced.
"""

import contextlib
import io
import json
import math
import shutil
import struct

import pytest

from softact import (AlphaGrid, ExperimentConfig, FormatError, GrammarConfig,
                     ModelConfig, ProtocolConfig, generate_dataset,
                     init_params, load_checkpoint, load_dataset,
                     load_experiment_config, save_checkpoint, save_dataset,
                     save_experiment_config)
from softact.cli import main
from softact.jsonconfig import config_from_json, config_to_json


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("codec") / "bundle"
    dataset = generate_dataset(
        GrammarConfig(num_verbs=2, num_nouns=3, modalities=(("rgb", 2),)),
        ProtocolConfig(encode_steps=1, decode_steps=2), num_videos=4,
        video_length=4, seed=3)
    save_dataset(dataset, out)
    return out


def _edit_json(path, edit) -> None:
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _experiment_config(tmp_path, bundle, edit) -> None:
    path = tmp_path / "config.json"
    save_experiment_config(ExperimentConfig(), path)
    _edit_json(path, edit)
    load_experiment_config(path)


def _synth_config(tmp_path, bundle, edit) -> None:
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(edit({"verbs": 2, "nouns": 2, "videos": 4,
                                     "video_length": 4, "encode_steps": 1})))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        code = main(["synth", "--out-dir", str(tmp_path / "ds"),
                     "--config", str(path)])
    if code == 2:
        raise FormatError(err.getvalue())
    assert code == 0, err.getvalue()


def _checkpoint_header(tmp_path, bundle, edit) -> None:
    path = tmp_path / "model.bin"
    save_checkpoint(init_params(ModelConfig(modalities=(("rgb", 3),),
                                            num_classes=5, hidden_size=2)),
                    path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 8)
    blob = json.dumps(edit(json.loads(data[12:12 + blob_len]))).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                     + data[12 + blob_len:])
    load_checkpoint(path)


def _manifest_protocol(tmp_path, bundle, edit) -> None:
    copy = shutil.copytree(bundle, tmp_path / "bundle")

    def edit_protocol(manifest):
        manifest["protocol"] = edit(manifest["protocol"])
        return manifest

    _edit_json(copy / "manifest.json", edit_protocol)
    load_dataset(copy)


def _grammar_json(tmp_path, bundle, edit) -> None:
    copy = shutil.copytree(bundle, tmp_path / "bundle")
    _edit_json(copy / "grammar.json", edit)
    load_dataset(copy)


READERS = {  # reader, an integer key it reads
    "experiment": (_experiment_config, "epochs"),
    "synth-count": (_synth_config, "videos"),
    "synth-protocol": (_synth_config, "encode_steps"),
    "checkpoint": (_checkpoint_header, "hidden_size"),
    "protocol": (_manifest_protocol, "decode_steps"),
    "grammar": (_grammar_json, "num_nouns"),
}


@pytest.mark.parametrize("value", [2.0, True])
@pytest.mark.parametrize("name", READERS)
def test_integer_field_rejects_float_and_bool(tmp_path, bundle, name, value):
    reader, key = READERS[name]
    with pytest.raises(FormatError,
                       match=f"'{key}' must be an integer, got {value!r}"):
        reader(tmp_path, bundle, lambda doc: {**doc, key: value})


FLOAT_READERS = {  # reader, a float key it reads
    "experiment": (_experiment_config, "learning_rate"),
    "checkpoint": (_checkpoint_header, "learning_rate"),
    "protocol": (_manifest_protocol, "snippet_stride"),
    "grammar": (_grammar_json, "sigma_between"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_READERS)
def test_float_field_rejects_nan_and_infinity(tmp_path, bundle, name, value):
    # Python's json reads NaN and Infinity; no float field takes them
    reader, key = FLOAT_READERS[name]
    with pytest.raises(FormatError, match=f"'{key}' must be finite"):
        reader(tmp_path, bundle, lambda doc: {**doc, key: value})


@pytest.mark.parametrize("name", READERS)
def test_reader_rejects_non_object(tmp_path, bundle, name):
    reader, _ = READERS[name]
    with pytest.raises(FormatError, match="not a JSON object"):
        reader(tmp_path, bundle, lambda doc: [sorted(doc)])


@pytest.mark.parametrize("name", READERS)
def test_reader_accepts_its_own_output(tmp_path, bundle, name):
    reader, _ = READERS[name]
    reader(tmp_path, bundle, lambda doc: doc)


def test_checkpoint_header_with_adam_settings_is_refused(tmp_path, bundle):
    # Adam's betas and epsilon are seqmodel constants, so a header that
    # records them is refused rather than read with its values ignored
    with pytest.raises(FormatError, match=r"unknown keys \['adam_beta1'\]") \
            as info:
        _checkpoint_header(tmp_path, bundle,
                           lambda doc: {**doc, "adam_beta1": 0.9})
    assert str(info.value).startswith(f"{tmp_path / 'model.bin'}: ")


def test_codec_type_rules():
    # float fields take integers; tuple items are checked by path
    grid = config_from_json(AlphaGrid, {"start": 0, "stop": 1, "step": 0.5},
                            "x")
    assert grid.values() == (0.0, 0.5, 1.0)
    for doc, message in (
            ({"start": 0, "stop": 1, "step": False},
             "'step' must be a number"),
            ({"start": 0, "stop": 1}, "no key 'step'"),
            ({"start": 0, "stop": 1, "step": 1, "stride": 1},
             r"unknown keys \['stride'\]"),
            ({"start": 0, "stop": 1, "step": 0.3}, "x: step 0.3 does not")):
        with pytest.raises(FormatError, match=message):
            config_from_json(AlphaGrid, doc, "x")
    for modalities, key in (([["rgb", 2.0]], r"'modalities\[0\]\[1\]'"),
                            ([["rgb"]], r"'modalities\[0\]' must be a list "
                                        "of 2"),
                            ("rgb:2", "'modalities' must be a list")):
        with pytest.raises(FormatError, match=key):
            config_from_json(ModelConfig, {"modalities": modalities,
                                           "num_classes": 3}, "x",
                             ModelConfig(modalities=(("rgb", 2),),
                                         num_classes=3))


def test_experiment_config_omitted_keys_keep_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 3, "learning_rate": 0.01}))
    assert load_experiment_config(path) == ExperimentConfig(
        epochs=3, learning_rate=0.01)


# The writers' hand-written dicts before the codec replaced them.


def _old_experiment_dict(c: ExperimentConfig) -> dict:
    return {"epochs": c.epochs, "batch_size": c.batch_size,
            "trials": c.trials, "hidden_size": c.hidden_size,
            "learning_rate": c.learning_rate, "seed": c.seed,
            "early_stop_time": c.early_stop_time,
            "many_shot_threshold": c.many_shot_threshold}


def _old_checkpoint_dict(params) -> dict:
    c = params.config
    return {"modalities": [[n, d] for n, d in c.modalities],
            "num_classes": c.num_classes, "hidden_size": c.hidden_size,
            "learning_rate": c.learning_rate, "seed": c.seed}


def _old_grammar_dict(c: GrammarConfig) -> dict:
    return {"num_verbs": c.num_verbs, "num_nouns": c.num_nouns,
            "action_density": c.action_density,
            "sigma_within": c.sigma_within, "sigma_between": c.sigma_between,
            "markov_concentration": c.markov_concentration,
            "modalities": [[n, d] for n, d in c.modalities], "seed": c.seed}


def _old_protocol_dict(p: ProtocolConfig) -> dict:
    return {"snippet_stride": p.snippet_stride,
            "encode_steps": p.encode_steps, "decode_steps": p.decode_steps,
            "snippet_len": p.snippet_len}


def test_writers_give_the_old_bytes(tmp_path, bundle):
    config = ExperimentConfig(epochs=7, learning_rate=0.01)
    save_experiment_config(config, tmp_path / "config.json")
    assert (tmp_path / "config.json").read_text() == json.dumps(
        _old_experiment_dict(config), indent=2) + "\n"

    params = init_params(ModelConfig(modalities=(("rgb", 3), ("flow", 2)),
                                     num_classes=4, hidden_size=2, seed=5))
    save_checkpoint(params, tmp_path / "model.bin")
    data = (tmp_path / "model.bin").read_bytes()
    blob = json.dumps(_old_checkpoint_dict(params)).encode()
    assert data[8:12 + len(blob)] == struct.pack("<I", len(blob)) + blob

    dataset = load_dataset(bundle)
    assert (bundle / "grammar.json").read_text() == json.dumps(
        _old_grammar_dict(dataset.grammar)) + "\n"
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert list(manifest) == ["format", "version", "protocol", "modalities",
                              "vocab_sha256", "train_previous"]
    assert manifest["train_previous"] == dataset.train_previous.tolist()
    manifest["protocol"] = _old_protocol_dict(dataset.protocol)
    assert (bundle / "manifest.json").read_text() == json.dumps(
        manifest, indent=2) + "\n"
    assert config_to_json(dataset.protocol) == manifest["protocol"]
