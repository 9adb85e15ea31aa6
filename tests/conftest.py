import numpy as np
import pytest

from softact import (ActionVocab, ExperimentConfig, GrammarConfig,
                     ProtocolConfig, generate_dataset, parse_annotations)


@pytest.fixture
def toy_vocab() -> ActionVocab:
    """Four actions over two verbs and two nouns.

    ids: 0=(cut,onion) 1=(cut,carrot) 2=(wash,onion) 3=(wash,carrot)
    """
    return ActionVocab(
        verbs=("cut", "wash"),
        nouns=("onion", "carrot"),
        actions=((0, 0), (0, 1), (1, 0), (1, 1)),
    )


@pytest.fixture
def ab_vocab() -> ActionVocab:
    """Two actions A=(va,na) and B=(vb,nb), no shared tokens."""
    return ActionVocab(verbs=("va", "vb"), nouns=("na", "nb"),
                       actions=((0, 0), (1, 1)))


def make_annotations(vocab: ActionVocab,
                     videos: list[list[int]]) -> np.ndarray:
    """The (previous, next) pairs of per-video action-id sequences, written
    as annotation CSV text (video v is ``vid<v>``, step t at t seconds)
    and read back by parse_annotations."""
    lines = ["video_id,start_s,verb,noun"]
    for vid, ids in enumerate(videos):
        for t, k in enumerate(ids):
            v, n = vocab.actions[k]
            lines.append(f"vid{vid},{t},{vocab.verbs[v]},{vocab.nouns[n]}")
    return parse_annotations("\n".join(lines) + "\n", vocab)


def random_vocab(rng: np.random.Generator) -> ActionVocab:
    """A random small vocabulary (for property tests)."""
    nv = int(rng.integers(1, 6))
    nn = int(rng.integers(1, 6))
    letters = "abcdefgh"
    verbs = tuple(f"verb{letters[i]}" for i in range(nv))
    nouns = tuple(f"noun{letters[i]}" for i in range(nn))
    cells = [(v, n) for v in range(nv) for n in range(nn)]
    count = int(rng.integers(1, len(cells) + 1))
    chosen = rng.choice(len(cells), size=count, replace=False)
    actions = tuple(cells[i] for i in sorted(chosen.tolist()))
    used_v = sorted({v for v, _ in actions})
    used_n = sorted({n for _, n in actions})
    vmap = {v: i for i, v in enumerate(used_v)}
    nmap = {n: i for i, n in enumerate(used_n)}
    return ActionVocab(
        verbs=tuple(verbs[v] for v in used_v),
        nouns=tuple(nouns[n] for n in used_n),
        actions=tuple((vmap[v], nmap[n]) for v, n in actions),
    )


SMALL_PROTOCOL = ProtocolConfig(snippet_stride=0.25, encode_steps=3,
                                decode_steps=4, snippet_len=5)


def assert_same_features(a, b) -> None:
    """Two FeatureSets hold the same dims, targets and feature arrays."""
    assert a.dims == b.dims
    np.testing.assert_array_equal(a.targets, b.targets)
    assert len(a.features) == len(b.features)
    for x, y in zip(a.features, b.features):
        np.testing.assert_array_equal(x, y)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but trainable dataset shared by experiment/CLI tests."""
    grammar = GrammarConfig(num_verbs=3, num_nouns=3, action_density=1.0,
                            modalities=(("rgb", 6), ("flow", 5)), seed=7)
    return generate_dataset(grammar, SMALL_PROTOCOL, num_videos=24,
                            video_length=10, noise_sigma=0.4, seed=7)


@pytest.fixture
def fast_config() -> ExperimentConfig:
    return ExperimentConfig(epochs=3, batch_size=32, trials=2, hidden_size=8,
                            seed=0)
