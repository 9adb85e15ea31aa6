import csv
import io
import math

import numpy as np
import pytest

from softact import (ActionVocab, ManyShotSets, MetricsReport, ParseError,
                     ProtocolConfig, aggregate_trials, build_report,
                     many_shot_from_labels, parse_report_csv, report_to_csv,
                     report_to_plotdata, report_to_table, softmax,
                     topk_accuracy)
from softact.metrics import _label_ranks, cohort_indicator

from conftest import random_vocab


# ----------------------------------------------------------------- top-k


def test_topk_accuracy_hand_cases():
    probs = np.array([
        [0.7, 0.2, 0.1],
        [0.1, 0.3, 0.6],
        [0.5, 0.4, 0.1],
    ])
    labels = np.array([0, 1, 1])
    assert topk_accuracy(probs, labels, 1) == pytest.approx(100 / 3)
    assert topk_accuracy(probs, labels, 2) == pytest.approx(100.0)
    assert topk_accuracy(probs, labels, 3) == 100.0


def test_topk_accuracy_matches_topk_ids_on_ties():
    rng = np.random.default_rng(2)
    # coarse grid of probabilities forces plenty of exact ties
    probs = rng.integers(0, 4, size=(40, 6)).astype(np.float64)
    probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1)
    probs[probs.sum(axis=1) == 0] = 1 / 6
    labels = rng.integers(0, 6, size=40)
    # oracle: ids by descending probability, ties to the lower id
    order = [np.lexsort((np.arange(6), -probs[i])) for i in range(40)]
    for k in (1, 3, 5):
        want = np.array([labels[i] in order[i][:k]
                         for i in range(40)]).mean() * 100
        assert topk_accuracy(probs, labels, k) == pytest.approx(want)


def test_label_ranks_match_whole_array_tie_break():
    # the plain formulation: classes above the label plus equal classes of
    # lower id, counted over every row; NaN entries compare false
    def plain(probs, labels):
        label_p = probs[np.arange(probs.shape[0]), labels][:, None]
        ids = np.arange(probs.shape[1])
        return (probs > label_p).sum(axis=1) + \
            ((probs == label_p) & (ids < labels[:, None])).sum(axis=1)

    rng = np.random.default_rng(5)
    for trial in range(30):
        n, k = int(rng.integers(0, 50)), int(rng.integers(1, 40))
        raw = rng.random((n, k))
        for probs in (raw, np.round(raw, 1), raw[:, rng.integers(k, size=k)],
                      np.where(rng.random((n, k)) < 0.1, np.nan, raw)):
            labels = rng.integers(k, size=n)
            got = _label_ranks(probs, labels)
            want = plain(probs, labels)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_topk_accuracy_errors():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        topk_accuracy(probs, np.array([0]), 3)
    with pytest.raises(ValueError):
        topk_accuracy(probs, np.array([0, 1]), 1)
    with pytest.raises(ValueError):
        topk_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int), 1)
    with pytest.raises(ValueError):
        topk_accuracy(np.zeros(3), np.array([0]), 1)


def test_top1_ids_ties_to_lower(toy_vocab):
    # the report's top-1 prediction breaks ties to the lower id: predicted
    # 0 and 2 hit both labels (full recall); 1 and 3 would miss both
    protocol = ProtocolConfig(encode_steps=1, decode_steps=1)
    probs = np.array([[[0.4, 0.4, 0.1, 0.1]], [[0.1, 0.2, 0.35, 0.35]]])
    labels = np.array([0, 2])
    shots = many_shot_from_labels(labels, toy_vocab, threshold=1)
    report = build_report([(probs, labels)], protocol, toy_vocab, shots)
    assert report.cell("action_recall", 0).mean == 100.0
    assert report.cell("action_precision", 0).mean == 100.0


# ---------------------------------------------------------- marginalizing


def test_marginalize_uniform_toy(toy_vocab):
    mv, mn = cohort_indicator(toy_vocab)
    verb_p, noun_p = np.full(4, 0.25) @ mv, np.full(4, 0.25) @ mn
    np.testing.assert_array_equal(verb_p, [0.5, 0.5])
    np.testing.assert_array_equal(noun_p, [0.5, 0.5])


def test_marginalize_concentrated(toy_vocab):
    mv, mn = cohort_indicator(toy_vocab)
    p = np.array([0.6, 0.3, 0.1, 0.0])
    np.testing.assert_allclose(p @ mv, [0.9, 0.1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p @ mn, [0.7, 0.3], rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        np.full(3, 1 / 3) @ mv


def test_cohort_indicator_rows(toy_vocab):
    mv, mn = cohort_indicator(toy_vocab)
    np.testing.assert_array_equal(mv.sum(axis=1), 1.0)
    np.testing.assert_array_equal(mn.sum(axis=1), 1.0)
    assert mv[0, 0] == 1.0 and mn[1, 1] == 1.0


def test_cohort_indicator_and_many_shot_match_per_action_loops():
    # per-action reference loops; the indexing forms give the same values
    rng = np.random.default_rng(5)
    for _ in range(20):
        vocab = random_vocab(rng)
        V, N = len(vocab.verbs), len(vocab.nouns)
        mv, mn = np.zeros((vocab.K, V)), np.zeros((vocab.K, N))
        for k, (v, n) in enumerate(vocab.actions):
            mv[k, v] = 1.0
            mn[k, n] = 1.0
        got_v, got_n = cohort_indicator(vocab)
        assert np.array_equal(got_v, mv) and np.array_equal(got_n, mn)

        labels = rng.integers(0, vocab.K, size=int(rng.integers(0, 40)))
        action_counts = np.bincount(labels, minlength=vocab.K)
        verb_counts = np.zeros(V, dtype=np.int64)
        noun_counts = np.zeros(N, dtype=np.int64)
        for k, (v, n) in enumerate(vocab.actions):
            verb_counts[v] += action_counts[k]
            noun_counts[n] += action_counts[k]
        for threshold in (1, 2, 5):
            shots = many_shot_from_labels(labels, vocab, threshold)
            assert shots.verbs == set(np.flatnonzero(verb_counts >= threshold))
            assert shots.nouns == set(np.flatnonzero(noun_counts >= threshold))


# -------------------------------------------------------------- many-shot


def test_compute_many_shot(toy_vocab):
    # 3x action 0 (cut,onion), 2x action 3 (wash,carrot), 1x action 1
    labels = [0, 0, 0, 3, 3, 1]
    shots = many_shot_from_labels(labels, toy_vocab, threshold=2)
    assert shots.actions == {0, 3}
    assert shots.verbs == {0, 1}       # cut 4x, wash 2x
    assert shots.nouns == {0, 1}       # onion 3x, carrot 3x
    assert shots.threshold == 2
    strict = many_shot_from_labels(labels, toy_vocab, threshold=3)
    assert strict.actions == {0}
    assert strict.verbs == {0}
    assert strict.nouns == {0, 1}
    with pytest.raises(ValueError):
        many_shot_from_labels([4], toy_vocab, threshold=1)


def test_many_shot_high_threshold_empty(toy_vocab):
    shots = many_shot_from_labels([0, 1, 2], toy_vocab, threshold=100)
    assert shots.actions == frozenset()
    assert shots.verbs == frozenset()


# --------------------------------------------------------------- macro PR


def macro_cells(preds, labels, restrict_to, K=3):
    """The action precision and recall cells of a one-step, one-trial
    report whose top-1 predictions are ``preds``."""
    vocab = ActionVocab(verbs=("v",), nouns=tuple(f"n{k}" for k in range(K)),
                        actions=tuple((0, k) for k in range(K)))
    probs = np.eye(K)[preds][:, None, :]
    many_shot = ManyShotSets(actions=frozenset(restrict_to),
                             verbs=frozenset(), nouns=frozenset(),
                             threshold=1)
    report = build_report([(probs, np.asarray(labels))],
                          ProtocolConfig(decode_steps=1), vocab, many_shot)
    return (report.cell("action_precision", 0).mean,
            report.cell("action_recall", 0).mean)


def test_macro_precision_recall_perfect():
    prec, rec = macro_cells([0, 1, 1], [0, 1, 1], {0, 1})
    assert (prec, rec) == (100.0, 100.0)


def test_macro_precision_recall_hand_case():
    # class 0: tp=1 fp=0 -> P=1; tp=1 fn=1 -> R=1/2
    # class 1: tp=1 fp=1 -> P=1/2; tp=1 fn=0 -> R=1
    prec, rec = macro_cells([0, 1, 1], [0, 0, 1], {0, 1})
    assert prec == pytest.approx(75.0)
    assert rec == pytest.approx(75.0)


def test_macro_precision_recall_edge_cases():
    # class never predicted: precision contribution 0
    prec, rec = macro_cells([0, 0], [0, 1], {0, 1})
    assert prec == pytest.approx(25.0)
    assert rec == pytest.approx(50.0)
    # class absent from labels: dropped from recall; nan when all absent
    prec, rec = macro_cells([0, 2], [0, 0], {0, 2})
    assert prec == pytest.approx(50.0) and rec == pytest.approx(50.0)
    prec, rec = macro_cells([2, 2], [0, 0], {2})
    assert prec == 0.0 and math.isnan(rec)


# ------------------------------------------------------------ aggregation


def test_aggregate_trials():
    assert aggregate_trials([1.0, 2.0, 3.0]) == (2.0, 1.0)
    assert aggregate_trials([5.0]) == (5.0, 0.0)
    with pytest.raises(ValueError):
        aggregate_trials([])


# ---------------------------------------------------------------- reports


def random_trial_evals(vocab, protocol, trials=3, n=50, seed=0):
    rng = np.random.default_rng(seed)
    evals = []
    for _ in range(trials):
        probs = softmax(rng.normal(size=(n, protocol.decode_steps, vocab.K)))
        labels = rng.integers(0, vocab.K, size=n)
        evals.append((probs, labels))
    return evals


def test_build_report_time_columns(toy_vocab):
    protocol = ProtocolConfig()
    report = build_report(random_trial_evals(toy_vocab, protocol), protocol,
                          toy_vocab)
    assert report.anticipation_times == (2.0, 1.75, 1.5, 1.25, 1.0, 0.75,
                                         0.5, 0.25)
    assert report.trials == 3
    for metric in ("action_top1", "action_top5", "verb_top1", "verb_top5",
                   "noun_top1", "noun_top5"):
        assert len(report.cells[metric]) == 8
    single = ProtocolConfig(decode_steps=1, snippet_stride=1.0)
    r1 = build_report(random_trial_evals(toy_vocab, single), single, toy_vocab)
    assert r1.anticipation_times == (1.0,)


def test_build_report_top1_le_top5_and_coarsening(toy_vocab):
    protocol = ProtocolConfig(decode_steps=4)
    report = build_report(random_trial_evals(toy_vocab, protocol, seed=3),
                          protocol, toy_vocab)
    for s in range(4):
        for task in ("action", "verb", "noun"):
            assert report.cell(f"{task}_top1", s).mean \
                <= report.cell(f"{task}_top5", s).mean
        # marginalized verb/noun top-k can only help
        for k in ("top1", "top5"):
            assert report.cell(f"verb_{k}", s).mean \
                >= report.cell(f"action_{k}", s).mean
            assert report.cell(f"noun_{k}", s).mean \
                >= report.cell(f"action_{k}", s).mean


def test_build_report_includes_pr_only_with_many_shot(toy_vocab):
    protocol = ProtocolConfig(decode_steps=2)
    evals = random_trial_evals(toy_vocab, protocol, trials=2, seed=4)
    plain = build_report(evals, protocol, toy_vocab)
    assert "action_precision" not in plain.cells
    shots = many_shot_from_labels(list(range(4)) * 5, toy_vocab, threshold=5)
    with_pr = build_report(evals, protocol, toy_vocab, many_shot=shots)
    assert set(with_pr.cells) >= {"action_precision", "action_recall",
                                  "verb_precision", "noun_recall"}
    empty = many_shot_from_labels([0], toy_vocab, threshold=9)
    no_pr = build_report(evals, protocol, toy_vocab, many_shot=empty)
    assert "action_precision" not in no_pr.cells


def test_build_report_deterministic_and_shape_errors(toy_vocab):
    protocol = ProtocolConfig(decode_steps=2)
    evals = random_trial_evals(toy_vocab, protocol, trials=2, seed=5)
    a = build_report(evals, protocol, toy_vocab)
    b = build_report(evals, protocol, toy_vocab)
    assert a == b
    with pytest.raises(ValueError):
        build_report([], protocol, toy_vocab)
    bad = [(np.full((3, 5, 4), 0.25), np.zeros(3, dtype=int))]
    with pytest.raises(ValueError):
        build_report(bad, protocol, toy_vocab)


def test_report_csv_roundtrip(toy_vocab):
    protocol = ProtocolConfig(decode_steps=3)
    reports = {
        "onehot": build_report(random_trial_evals(toy_vocab, protocol, seed=6),
                               protocol, toy_vocab),
        "uniform": build_report(random_trial_evals(toy_vocab, protocol, seed=7),
                                protocol, toy_vocab),
    }
    text = report_to_csv(reports)
    parsed = parse_report_csv(text)
    assert list(parsed) == ["onehot", "uniform"]
    for name, report in reports.items():
        clone = parsed[name]
        assert clone.anticipation_times == report.anticipation_times
        assert clone.metric_names() == report.metric_names()
        for metric in report.metric_names():
            for s in range(3):
                assert clone.cell(metric, s).mean == pytest.approx(
                    report.cell(metric, s).mean, abs=1e-6)
                assert clone.cell(metric, s).std == pytest.approx(
                    report.cell(metric, s).std, abs=1e-6)
    # serializing the parsed reports reproduces the text exactly
    assert report_to_csv(parsed) == text


def test_parse_report_csv_errors():
    with pytest.raises(ParseError):
        parse_report_csv("nope,x@1,x@1_std\n")
    with pytest.raises(ParseError):
        parse_report_csv("method,action_top1@1\nx,50.0\n")
    with pytest.raises(ParseError):
        parse_report_csv("method,a@1,a@1_std\nx,oops,1.0\n")
    with pytest.raises(ParseError):
        parse_report_csv("method,a@1,a@1_std\nx,1.0\n")
    with pytest.raises(ParseError):
        parse_report_csv("method,a@1,a@1_std\n")
    with pytest.raises(ParseError, match="no metric columns"):
        parse_report_csv("method\nfoo\n")
    # a std column must follow its own mean column
    with pytest.raises(ParseError, match="'b@1_std'"):
        parse_report_csv("method,a@1,a@1_std,b@1_std\nx,1.0,0.5,9.0\n")
    with pytest.raises(ParseError, match="'a@1_std'"):
        parse_report_csv("method,a@1_std,a@1\nx,0.5,1.0\n")


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines",
                                  " padded ", "onehot"])
def test_report_csvs_round_trip_any_method_name(toy_vocab, name):
    protocol = ProtocolConfig(decode_steps=2)
    report = build_report(random_trial_evals(toy_vocab, protocol), protocol,
                          toy_vocab)
    reports = {name: report, "other": report}
    text = report_to_csv(reports)
    parsed = parse_report_csv(text)
    assert list(parsed) == [name, "other"]
    assert report_to_csv(parsed) == text
    rows = list(csv.reader(io.StringIO(report_to_plotdata(reports))))
    assert {row[0] for row in rows[1:]} == {name, "other"}
    if name == "onehot":  # a plain name keeps the hand-joined bytes
        cells = [report.cell(m, s) for m in report.metric_names()
                 for s in range(2)]
        fields = [f"{x:.6f}" for c in cells for x in (c.mean, c.std)]
        assert text.splitlines()[1] == ",".join([name, *fields])


def test_parse_report_csv_rejects_a_repeated_method():
    text = ("method,a@1,a@1_std\n"
            "x,1.0,0.0\n"
            "y,2.0,0.0\n"
            "\n"
            "x,3.0,0.0\n")
    with pytest.raises(ParseError, match="line 5: method 'x' is already on "
                                         "line 2"):
        parse_report_csv(text)


def test_report_table_and_plotdata(toy_vocab):
    protocol = ProtocolConfig(decode_steps=2)
    reports = {"onehot": build_report(random_trial_evals(toy_vocab, protocol),
                                      protocol, toy_vocab)}
    table = report_to_table(reports)
    assert "action_top5" in table and "onehot" in table
    assert "±" in table
    plot = report_to_plotdata(reports)
    lines = plot.strip().splitlines()
    assert lines[0] == "method,metric,anticipation_time,mean,std"
    n_metrics = len(reports["onehot"].metric_names())
    assert len(lines) == 1 + n_metrics * 2
    assert all(line.startswith("onehot,") for line in lines[1:])
