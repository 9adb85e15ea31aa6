"""What the benchmark's workloads rely on besides the traced layer names
(see test_bench_layers.py): ``sweep-k16`` times trials by patching
``softact.experiment.run_trial``, so ``run_comparison`` must call it once
per method and trial through that attribute, and ``train-k60`` reads the
(N, decode_steps, K) test probabilities ``run_trial`` returns."""

import numpy as np

import softact.experiment
from softact import ExperimentConfig, MethodSpec, run_comparison, run_trial


def test_run_comparison_calls_run_trial_through_the_module(tiny_dataset,
                                                          monkeypatch):
    calls = []
    original = softact.experiment.run_trial

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(softact.experiment, "run_trial", counting)
    methods = [MethodSpec("onehot", "onehot", 0.0),
               MethodSpec("uniform", "uniform", 0.1)]
    config = ExperimentConfig(epochs=1, batch_size=32, trials=2,
                              hidden_size=4)
    reports = run_comparison(tiny_dataset, methods, config)
    assert set(reports) == {"onehot", "uniform"}
    assert calls == [0, 1, 0, 1]


def test_run_trial_returns_test_probabilities(tiny_dataset, fast_config):
    ds = tiny_dataset
    result, probs = run_trial(ds, None, 0.0, 0, fast_config)
    assert result.best_epoch >= 1
    assert probs.shape == (ds.test.num_samples, ds.protocol.decode_steps,
                           ds.K)
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=0, atol=1e-12)
