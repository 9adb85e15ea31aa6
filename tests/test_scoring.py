"""The counting scorer behind every report: integer hit counts folded chunk
by chunk must give the bytes of the whole-array report they replaced, for
any chunking, with ties, with and without many-shot sets."""

import math
import pickle

import numpy as np
import pytest

from softact import (ActionVocab, HitCounts, ManyShotSets, MetricCell,
                     MetricsReport, ModelConfig, ProtocolConfig, Scorer,
                     aggregate_trials, build_report, evaluate_model,
                     init_params, many_shot_from_labels, report_to_csv,
                     score_model, softmax, topk_accuracy)
from softact.metrics import cohort_indicator

# ------------------------------------------- the whole-array reference


def ref_topk_hits(probs, labels, k):
    label_p = probs[np.arange(probs.shape[0]), labels]
    higher = (probs > label_p[:, None]).sum(axis=1)
    ids = np.arange(probs.shape[1])
    equal_lower = ((probs == label_p[:, None])
                   & (ids[None, :] < labels[:, None])).sum(axis=1)
    return higher + equal_lower < k


def ref_topk_accuracy(probs, labels, k):
    return float(ref_topk_hits(probs, labels, k).mean() * 100.0)


def ref_macro_precision_recall(preds, labels, restrict_to):
    precisions, recalls = [], []
    for c in sorted(restrict_to):
        tp = int(((preds == c) & (labels == c)).sum())
        fp = int(((preds == c) & (labels != c)).sum())
        fn = int(((preds != c) & (labels == c)).sum())
        precisions.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    precision = 100.0 * sum(precisions) / len(precisions)
    recall = 100.0 * sum(recalls) / len(recalls) if recalls else math.nan
    return precision, recall


def ref_build_report(trial_evals, protocol, vocab, many_shot=None):
    """build_report as it was before counting: every (N, S, K) array is
    scored whole, one metric call per task and step."""
    S = protocol.decode_steps
    mv, mn = cohort_indicator(vocab)
    verb_labels_of = np.array([v for v, _ in vocab.actions], dtype=np.int64)
    noun_labels_of = np.array([n for _, n in vocab.actions], dtype=np.int64)
    per_trial = {}
    for probs, labels in trial_evals:
        for s in range(S):
            p_act = probs[:, s, :]
            task_data = {
                "action": (p_act, labels),
                "verb": (p_act @ mv, verb_labels_of[labels]),
                "noun": (p_act @ mn, noun_labels_of[labels]),
            }
            for task, (p, y) in task_data.items():
                values = [(f"{task}_top1", ref_topk_accuracy(p, y, 1)),
                          (f"{task}_top5",
                           ref_topk_accuracy(p, y, min(5, p.shape[1])))]
                if many_shot is not None:
                    restrict = getattr(many_shot, task + "s")
                    if restrict:
                        prec, rec = ref_macro_precision_recall(
                            p.argmax(axis=1), y, restrict)
                        values += [(f"{task}_precision", prec),
                                   (f"{task}_recall", rec)]
                for name, value in values:
                    steps = per_trial.setdefault(name, [[] for _ in range(S)])
                    steps[s].append(value)
    cells = {name: tuple(MetricCell(*aggregate_trials(v)) for v in steps)
             for name, steps in per_trial.items()}
    return MetricsReport(anticipation_times=protocol.anticipation_times(),
                         cells=cells, trials=len(trial_evals))


# ---------------------------------------------------------------- inputs

PROTOCOL = ProtocolConfig(decode_steps=3)
N = 1100  # two full 512-row blocks and a partial one


@pytest.fixture(scope="module")
def vocab():
    """13 actions over 4 verbs and 5 nouns."""
    return ActionVocab(
        verbs=tuple(f"v{i}" for i in range(4)),
        nouns=tuple(f"n{i}" for i in range(5)),
        actions=tuple((v, n) for v in range(4) for n in range(5)
                      if (v + 2 * n) % 3),
    )


def trial_evals(vocab, ties: bool, trials: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = (N, PROTOCOL.decode_steps, vocab.K)
    evals = []
    for _ in range(trials):
        if ties:
            # multiples of 1/8: many exact ties, and every cohort sum is
            # exact whatever order a GEMM adds in
            probs = rng.integers(0, 4, size=shape) / 8.0
        else:
            probs = softmax(rng.normal(size=shape))
        evals.append((probs, rng.integers(0, vocab.K, size=N)))
    return evals


def many_shot_sets(vocab, seed: int = 1):
    labels = np.random.default_rng(seed).integers(0, vocab.K, size=N)
    return many_shot_from_labels(labels, vocab, threshold=85)


def counted(evals, vocab, many_shot, chunk: int) -> list[HitCounts]:
    out = []
    for probs, labels in evals:
        scorer = Scorer(PROTOCOL.decode_steps, vocab, many_shot)
        for start in range(0, len(labels), chunk):
            scorer.add(probs[start:start + chunk], labels[start:start + chunk])
        out.append(scorer.counts)
    return out


def assert_same_report(got: MetricsReport, want: MetricsReport) -> None:
    assert got.metric_names() == want.metric_names()
    assert report_to_csv({"m": got}) == report_to_csv({"m": want})
    for name in want.metric_names():
        for g, w in zip(got.cells[name], want.cells[name]):
            for a, b in ((g.mean, w.mean), (g.std, w.std)):
                assert a == b or (math.isnan(a) and math.isnan(b)), name


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("chunk", [1, 7, 512, N])
@pytest.mark.parametrize("ties", [True, False])
@pytest.mark.parametrize("shots", ["none", "counted", "one_or_none"])
def test_counts_give_the_whole_array_report(vocab, chunk, ties, shots):
    if shots == "counted":
        many_shot = many_shot_sets(vocab)
        # some classes are many-shot and some are not
        assert 0 < len(many_shot.actions) < vocab.K
    elif shots == "one_or_none":
        many_shot = ManyShotSets(actions=frozenset({2}), verbs=frozenset(),
                                 nouns=frozenset({0, 4}), threshold=1)
    else:
        many_shot = None
    evals = trial_evals(vocab, ties)
    want = ref_build_report(evals, PROTOCOL, vocab, many_shot)
    assert ("action_precision" in want.cells) == (many_shot is not None)
    got = build_report(counted(evals, vocab, many_shot, chunk), PROTOCOL,
                       vocab, many_shot)
    assert_same_report(got, want)
    assert_same_report(build_report(evals, PROTOCOL, vocab, many_shot), want)


def test_counts_survive_pickling(vocab):
    # what a --jobs worker sends back
    many_shot = many_shot_sets(vocab)
    evals = trial_evals(vocab, ties=True, trials=1)
    counts = counted(evals, vocab, many_shot, 512)
    clone = pickle.loads(pickle.dumps(counts))
    assert_same_report(build_report(clone, PROTOCOL, vocab, many_shot),
                       build_report(counts, PROTOCOL, vocab, many_shot))


@pytest.mark.parametrize("ties", [True, False])
def test_metric_wrappers_match_reference(ties):
    rng = np.random.default_rng(3)
    probs = (rng.integers(0, 4, size=(300, 9)) / 8.0 if ties
             else rng.random((300, 9)))
    labels = rng.integers(0, 8, size=300)  # class 8 is never a label
    for k in (1, 3, 5, 9):
        assert topk_accuracy(probs, labels, k) \
            == ref_topk_accuracy(probs, labels, k)
    # macro precision/recall: the one-step report of these predictions
    one_verb = ActionVocab(verbs=("v",),
                           nouns=tuple(f"n{k}" for k in range(9)),
                           actions=tuple((0, k) for k in range(9)))
    for restrict in ({0}, {1, 4, 8}, set(range(9)), {8}):
        many_shot = ManyShotSets(actions=frozenset(restrict),
                                 verbs=frozenset(), nouns=frozenset(),
                                 threshold=1)
        report = build_report([(probs[:, None, :], labels)],
                              ProtocolConfig(decode_steps=1), one_verb,
                              many_shot)
        got = (report.cell("action_precision", 0).mean,
               report.cell("action_recall", 0).mean)
        want = ref_macro_precision_recall(probs.argmax(axis=1), labels,
                                          restrict)
        assert got[0] == want[0]
        assert got[1] == want[1] or (math.isnan(got[1])
                                     and math.isnan(want[1]))


def test_score_model_matches_evaluate_then_report(tiny_dataset):
    ds = tiny_dataset
    params = init_params(ModelConfig(modalities=ds.modalities,
                                     num_classes=ds.K, hidden_size=8, seed=5))
    many_shot = many_shot_from_labels(ds.train.targets, ds.vocab, 3)
    counts = score_model(params, ds.test, ds.protocol, ds.vocab, many_shot)
    assert counts.samples == ds.test.num_samples
    probs = evaluate_model(params, ds.test, ds.protocol)
    assert_same_report(
        build_report([counts], ds.protocol, ds.vocab, many_shot),
        ref_build_report([(probs, ds.test.targets)], ds.protocol, ds.vocab,
                         many_shot))


def test_scorer_rejects_bad_input(vocab):
    scorer = Scorer(PROTOCOL.decode_steps, vocab)
    probs = np.full((4, PROTOCOL.decode_steps, vocab.K), 1.0 / vocab.K)
    with pytest.raises(ValueError, match="probs shape"):
        scorer.add(probs[:, :2], np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="different lengths"):
        scorer.add(probs, np.zeros(3, dtype=int))
    for bad in (-1, vocab.K):
        with pytest.raises(ValueError, match="outside"):
            scorer.add(probs, np.full(4, bad))
    with pytest.raises(ValueError, match="empty"):
        scorer.counts.metric_values()
    scorer.add(probs, np.arange(4))
    with pytest.raises(ValueError, match="many-shot"):
        build_report([scorer.counts], PROTOCOL, vocab, many_shot_sets(vocab))
    with pytest.raises(ValueError, match="trial 0: probs shape"):
        build_report([(probs[:, :2], np.arange(4))], PROTOCOL, vocab)
