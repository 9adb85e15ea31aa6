#!/usr/bin/env python3
"""Benchmark of the softact package: one workload, one seed, one result.

Run from the root of a checkout:

    python3 bench/run.py --workload train-k60 --seed 0 --seconds 32 --trace 0

The package is imported from ``src/`` and driven only through its public
functions; the workload's inputs are generated from ``--seed``. After a
timed set-up (median of seven), each workload runs a single-process closed
loop of passes (the next pass starts when the previous one returns) for
``--seconds`` and checks every pass's outputs. Timings are in reference
seconds: scaled by the host's speed, which a timer samples all through the
run (see ``HostSpeed``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` metrics of BENCHMARK.json. With
``--trace 1`` every second pass runs traced, and the metrics are the
``per_layer`` ones: layer totals from the traced passes, workload figures
from the untraced ones and the tracing overhead between them. The spans are written to ``.bench_work/trace-<workload>-seed<n>.json``.
Earlier lines carry the environment and the workload figures. See
bench/README.md for the workloads, the metrics and the layer table.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 7
SETUP_WEIGHTS = {"loop": 0.5, "text": 0.5}
MODALITIES = (("rgb", 16), ("flow", 16))


class Tally:
    """Operations attempted and failed: passes and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def run(self, operation):
        self.attempted += 1
        try:
            return operation()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class HostSpeed:
    """How fast the host runs, sampled every ``INTERVAL_S`` seconds with two
    fixed kernels that do not touch softact: ``loop``, small numpy
    operations in a Python loop, and ``text``, formatting floats as text
    and parsing them back.

    A shared host switches between fast and slow spells of seconds to
    minutes, and a slow spell slows interpreter-bound work more than numpy
    work. Timings are therefore reported in reference seconds: each pass's
    seconds x its ``scale``, where 1 / ``scale`` is the pass's slowdown, the
    kernels' mean time during the pass over their time on the reference host
    (``host_kernel_s`` in reference.json), weighted by ``weights``, which
    follow the workload's own mix of numpy and text work. A slower host
    moves the kernels and the pass alike and the scaled time not at all; a
    change to softact moves only the pass. The kernels' own time is kept
    off the clock (``clock``)."""

    INTERVAL_S = 0.1
    KERNELS = ("loop", "text")

    def __init__(self, reference_s: dict, weights: dict):
        rng = np.random.default_rng(0)
        self.reference_s, self.weights = reference_s, weights
        self.x = rng.standard_normal((64, 48))
        self.w = rng.standard_normal((48, 64)) * 0.1
        self.u = rng.standard_normal((16, 64)) * 0.1
        self.row = rng.random(900)
        self.samples = []  # (loop seconds, text seconds) per sample
        self.spent = 0.0
        for _ in range(3):  # warm-up
            self._loop()
            self._text()

    def _loop(self) -> None:
        h = np.zeros((64, 16))
        for _ in range(60):
            z = self.x @ self.w + h @ self.u
            h = np.tanh(z[:, :16]) / (1.0 + np.exp(-z[:, 16:32]))

    def _text(self) -> None:
        text = ",".join(f"{v:.17g}" for v in self.row)
        [float(v) for v in text.split(",")]

    def sample(self, *_) -> None:
        start = perf_counter()
        self._loop()
        middle = perf_counter()
        self._text()
        end = perf_counter()
        self.samples.append((middle - start, end - middle))
        self.spent += end - start

    def clock(self) -> float:
        """Seconds, less the time spent in the kernels."""
        return perf_counter() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host on a timer while the block runs. The handler
        runs in the main thread between bytecodes, never inside numpy."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def means(self, start: int = 0, stop: int | None = None) -> dict:
        """Each kernel's mean time over ``samples[start:stop]`` (all samples
        if that window is empty). The mean, not median, because a pass's
        time grows with the share of it spent in slow spells; a sample is
        capped at twice the kernel's median, so one preempted sample weighs
        no more than a slow spell."""
        if not self.samples:
            self.sample()
        window = self.samples[start:stop] or self.samples
        means = {}
        for k, name in enumerate(self.KERNELS):
            times = [sample[k] for sample in window]
            cap = 2 * statistics.median(times)
            means[name] = statistics.fmean(min(t, cap) for t in times)
        return means

    def scale(self, start: int = 0, stop: int | None = None,
              weights: dict | None = None) -> float:
        """1 / slowdown over ``samples[start:stop]``, with the workload's
        weights unless others are given."""
        weights = weights or self.weights
        means = self.means(start, stop)
        return 1.0 / sum(weights[name] * means[name] / self.reference_s[name]
                         for name in self.KERNELS)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class TrainK60:
    """One ``run_trial`` with the verb-noun prior on test_07's shape."""

    name = "train-k60"
    # Training is GEMMs and numpy calls, with no text.
    HOST_WEIGHTS = {"loop": 1.0, "text": 0.0}
    EPOCHS = 6
    ALPHA = 0.45

    def __init__(self, sa, seed: int, work: Path, speed: HostSpeed):
        reference = json.loads(REFERENCE.read_text())[self.name]
        # The data seed is one of the seeds whose validation score is
        # recorded, so every run can be checked against its reference.
        self.sa, self.seed = sa, seed % len(reference["seeds"])
        self.speed = speed
        self.first = None
        self.reference = (reference["seeds"].get(str(self.seed))
                          if reference["epochs"] == self.EPOCHS else None)

    def setup(self) -> None:
        sa = self.sa
        grammar = sa.GrammarConfig(10, 12, action_density=0.5,
                                   modalities=MODALITIES, seed=self.seed)
        self.dataset = sa.generate_dataset(grammar, sa.ProtocolConfig(),
                                           num_videos=130, video_length=23,
                                           noise_sigma=1.0, seed=self.seed)
        self.prior = sa.build_verb_noun_prior(self.dataset.vocab)
        self.config = sa.ExperimentConfig(epochs=self.EPOCHS, batch_size=256,
                                          trials=1, hidden_size=64,
                                          learning_rate=1e-3, seed=self.seed)

    def run_pass(self) -> dict:
        clock, epoch_ends = self.speed.clock, []

        def log(msg: str) -> None:
            if msg.startswith("epoch "):
                epoch_ends.append(clock())

        start = clock()
        result, probs = self.sa.run_trial(self.dataset, self.prior, self.ALPHA,
                                          0, self.config, log=log)
        wall = clock() - start
        starts = [start] + epoch_ends[:-1]
        return {"wall": wall, "result": result, "probs": probs,
                "epoch_s": [b - a for a, b in zip(starts, epoch_ends)]}

    def check(self, rec: dict, tally: Tally) -> None:
        result, probs = rec["result"], rec["probs"]
        ds = self.dataset
        tally.check(len(result.history) == self.EPOCHS
                    and all(math.isfinite(loss) for _, loss, _ in result.history),
                    "train-k60: an epoch loss is missing or not finite")
        tally.check(probs.shape == (ds.test.num_samples,
                                    ds.protocol.decode_steps, ds.K)
                    and math.isfinite(float(probs.sum())),
                    "train-k60: test probabilities have the wrong shape")
        got = (result.best_score, result.best_epoch)
        if self.first is None:
            self.first = got
            tally.check(self.reference is not None
                        and got == tuple(self.reference),
                        f"train-k60: val_top5_1s/best_epoch {got} differ "
                        f"from the reference {self.reference} of data seed "
                        f"{self.seed}")
        else:
            tally.check(got == self.first, f"train-k60: pass gave {got}, "
                                           f"first pass gave {self.first}")

    def summary(self, recs: list[dict]) -> tuple[dict, dict]:
        wall = _median([r["scale"] * r["wall"] for r in recs])
        n = self.dataset.train.num_samples
        epoch_s = [r["scale"] * s for r in recs for s in r["epoch_s"]]
        epoch = _median(epoch_s)
        figures = {
            "train_samples_per_s": self.EPOCHS * n / wall if wall else 0.0,
            "epoch_s_p50": epoch,
            "val_top5_1s": recs[0]["result"].best_score if recs else 0.0,
            "best_epoch": recs[0]["result"].best_epoch if recs else 0,
            "data_seed": self.seed,
            "passes": len(recs),
            "epochs_timed": len(epoch_s),
        }
        # Training samples per second of the median epoch (a training
        # sweep plus validation scoring), not of the whole trial.
        return {"pass_s_p50": wall,
                "samples_per_s": n / epoch if epoch else 0.0}, figures


class CliK1200:
    """``synth`` -> ``build-prior`` x3 -> ``eval`` -> ``report`` through
    ``softact.cli.main`` at K=1200."""

    name = "cli-k1200"
    # Mostly text: K x K CSV and JSON export and parsing, plus numpy.
    HOST_WEIGHTS = {"loop": 0.3, "text": 0.7}
    # kind, then the bundle file the kind is built from, if any
    PRIORS = (("vn", None, None), ("mix", "--embeddings", "embeddings.txt"),
              ("temporal", "--annotations", "annotations.csv"))
    TASKS = ("action", "verb", "noun")

    def __init__(self, sa, seed: int, work: Path, speed: HostSpeed):
        self.sa, self.seed, self.work, self.speed = sa, seed, work, speed
        self.data = work / "data"
        self.checkpoint = work / "model.bin"
        self.first_hashes = None

    def setup(self) -> None:
        sa = self.sa
        grammar = sa.gen_grammar(sa.GrammarConfig(
            40, 60, action_density=0.5, modalities=MODALITIES, seed=self.seed))
        self.K = grammar.vocab.K
        params = sa.init_params(sa.ModelConfig(
            modalities=MODALITIES, num_classes=self.K, hidden_size=64,
            seed=self.seed))
        sa.save_checkpoint(params, self.checkpoint)

    def commands(self) -> list[tuple[str, list[str]]]:
        data, work = str(self.data), self.work
        vocab = str(self.data / "vocab.json")
        cmds = [("synth", ["synth", "--out-dir", data, "--verbs", "40",
                           "--nouns", "60", "--density", "0.5", "--videos",
                           "400", "--video-length", "23", "--noise", "1.0",
                           "--seed", str(self.seed)])]
        for kind, flag, name in self.PRIORS:
            argv = ["build-prior", "--kind", kind, "--vocab", vocab,
                    "--out", str(work / f"prior_{kind}.csv")]
            if flag:
                argv += [flag, str(self.data / name)]
            cmds.append(("prior_" + kind, argv))
        cmds.append(("eval", ["eval", "--data", data, "--checkpoint",
                              str(self.checkpoint), "--split", "test",
                              "--out", str(work / "eval.csv")]))
        cmds.append(("report", ["report", "--runs", str(work / "eval.csv"),
                                "--format", "table"]))
        return cmds

    def run_pass(self) -> dict:
        times, codes, outputs = {}, {}, {}
        for label, argv in self.commands():
            out, err = io.StringIO(), io.StringIO()
            start = self.speed.clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[label] = self.sa.cli.main(argv)
            times[label] = self.speed.clock() - start
            outputs[label] = out.getvalue()
            if err.getvalue():
                print(f"{label}: {err.getvalue().strip()}", file=sys.stderr)
        sizes = re.search(r"K=(\d+), train=(\d+), val=(\d+), test=(\d+)",
                          outputs["synth"])
        return {"wall": sum(times.values()), "times": times, "codes": codes,
                "outputs": outputs,
                "K": int(sizes.group(1)) if sizes else None,
                "test": int(sizes.group(4)) if sizes else 0}

    def check(self, rec: dict, tally: Tally) -> None:
        for label, code in rec["codes"].items():
            tally.check(code == 0, f"cli-k1200: {label} exited with {code}")
        tally.check(rec["K"] == self.K and rec["test"] > 0,
                    "cli-k1200: synth did not report K and the split sizes")
        paths = [self.work / f"prior_{kind}.csv" for kind, _, _ in self.PRIORS]
        paths.append(self.work / "eval.csv")
        hashes = [_sha256(p) if p.is_file() else None for p in paths]
        if self.first_hashes is None:
            self.first_hashes = hashes
        else:
            tally.check(hashes == self.first_hashes,
                        "cli-k1200: a pass exported different priors or "
                        "eval CSV than the first pass")
        tally.check(self._eval_csv_ok(paths[-1]),
                    "cli-k1200: eval CSV does not parse or has top-1 > top-5")
        tally.check(bool(rec["outputs"]["report"].strip()),
                    "cli-k1200: report printed nothing")

    def final_check(self, tally: Tally) -> None:
        """Reload the exported priors, which every pass wrote with the same
        bytes. Done after the run because reloading a K x K CSV takes more
        memory than the commands it checks."""
        for kind, _, _ in self.PRIORS:
            path = self.work / f"prior_{kind}.csv"
            tally.check(self._row_stochastic(path),
                        f"cli-k1200: {path.name} is not row-stochastic")

    def _row_stochastic(self, path: Path) -> bool:
        try:
            rows = self.sa.load_prior(path).rows
        except (OSError, ValueError):
            return False
        return (rows.shape == (self.K, self.K) and bool(np.all(rows >= 0.0))
                and float(np.max(np.abs(rows.sum(axis=1) - 1.0))) <= 1e-9)

    def _eval_csv_ok(self, path: Path) -> bool:
        try:
            reports = self.sa.parse_report_csv(path.read_text())
        except (OSError, ValueError):
            return False
        if len(reports) != 1:
            return False
        report = next(iter(reports.values()))
        steps = len(report.anticipation_times)
        return all(report.cell(f"{task}_top1", s).mean
                   <= report.cell(f"{task}_top5", s).mean
                   for task in self.TASKS for s in range(steps))

    def summary(self, recs: list[dict]) -> tuple[dict, dict]:
        def med(*labels):
            return _median([r["scale"] * sum(r["times"][x] for x in labels)
                            for r in recs])

        eval_s = med("eval")
        figures = {
            "synth_s": med("synth"),
            "prior_export_s": med(*("prior_" + k for k, _, _ in self.PRIORS)),
            "eval_s": eval_s,
            "passes": len(recs),
        }
        # The median pass as the sum of each command's median: the commands'
        # noise is independent, so this varies less than the median of the sums.
        wall = sum(med(label) for label, _ in self.commands())
        test = recs[0]["test"] if recs else 0
        # Test samples scored per second of the eval command.
        return {"pass_s_p50": wall,
                "samples_per_s": test / eval_s if eval_s else 0.0}, figures


class SweepK16:
    """``run_comparison`` of all six default methods x a few seeds on a
    K=16 grammar: many short trials with tiny GEMMs."""

    name = "sweep-k16"
    # Tiny numpy calls, plus the text artifacts every trial writes.
    HOST_WEIGHTS = {"loop": 0.5, "text": 0.5}
    EPOCHS = 8
    TRIALS = 3

    def __init__(self, sa, seed: int, work: Path, speed: HostSpeed):
        self.sa, self.seed, self.speed = sa, seed, speed
        self.out = work / "sweep"
        self.first_report = None

    def setup(self) -> None:
        sa = self.sa
        grammar = sa.GrammarConfig(4, 4, action_density=1.0,
                                   modalities=(("rgb", 8), ("flow", 8)),
                                   seed=self.seed)
        protocol = sa.ProtocolConfig(snippet_stride=0.25, encode_steps=3,
                                     decode_steps=4, snippet_len=5)
        self.dataset = sa.generate_dataset(grammar, protocol, num_videos=80,
                                           video_length=6, noise_sigma=1.2,
                                           seed=self.seed)
        self.methods = self.sa.default_methods()
        self.config = sa.ExperimentConfig(
            epochs=self.EPOCHS, batch_size=64, trials=self.TRIALS,
            hidden_size=16, learning_rate=3e-3, seed=self.seed,
            many_shot_threshold=20)

    def run_pass(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        experiment = self.sa.experiment
        run_trial = experiment.run_trial
        clock, trial_s = self.speed.clock, []

        def timed_trial(*args, **kwargs):
            start = clock()
            try:
                return run_trial(*args, **kwargs)
            finally:
                trial_s.append(clock() - start)

        experiment.run_trial = timed_trial
        try:
            start = clock()
            reports = self.sa.run_comparison(self.dataset, self.methods,
                                             self.config, out_dir=self.out)
            wall = clock() - start
        finally:
            experiment.run_trial = run_trial
        return {"wall": wall, "trial_s": trial_s, "reports": reports}

    def check(self, rec: dict, tally: Tally) -> None:
        names = {m.name for m in self.methods}
        runs = sorted(self.out.glob("runs/*/alpha_*/seed_*"))
        tally.check(len(runs) == len(names) * self.TRIALS
                    and set(rec["reports"]) == names,
                    f"sweep-k16: {len(runs)} run directories")
        tally.check(all(self._reloads(run / "checkpoint.bin") for run in runs),
                    "sweep-k16: a checkpoint does not reload")
        report = self.out / "report.csv"
        try:
            text = report.read_text()
            listed = set(self.sa.parse_report_csv(text))
        except (OSError, ValueError):
            text, listed = None, set()
        tally.check(listed == names,
                    f"sweep-k16: report.csv lists {sorted(listed)}")
        if self.first_report is None:
            self.first_report = text
        else:
            tally.check(text == self.first_report,
                        "sweep-k16: report.csv differs from the first pass")

    def _reloads(self, path: Path) -> bool:
        try:
            params = self.sa.load_checkpoint(path)
        except (OSError, ValueError):
            return False
        return params.config.num_classes == self.dataset.K

    def summary(self, recs: list[dict]) -> tuple[dict, dict]:
        trial = _median([r["scale"] * s for r in recs for s in r["trial_s"]])
        n = self.EPOCHS * self.dataset.train.num_samples
        rate = n / trial if trial else 0.0
        sweep = _median([r["scale"] * r["wall"] for r in recs])
        figures = {"train_samples_per_s": rate, "trial_s_p50": trial,
                   "sweep_s": sweep, "passes": len(recs),
                   "trials_timed": sum(len(r["trial_s"]) for r in recs)}
        return {"pass_s_p50": sweep, "samples_per_s": rate}, figures


WORKLOADS = {w.name: w for w in (TrainK60, CliK1200, SweepK16)}
# Workload figures, each measured on the workloads that exercise it.
FIGURES = {"train_samples_per_s", "epoch_s_p50", "val_top5_1s", "synth_s",
           "prior_export_s", "eval_s", "trial_s_p50", "sweep_s"}


def measure_setup(workload, speed: HostSpeed) -> float:
    """Median of: a fresh interpreter importing softact, then the
    workload's input generation, in reference seconds. Set-up mixes
    imports and numpy about evenly, whatever the workload, so its scale
    weighs the two kernels equally."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import softact"
    first = len(speed.samples)
    times = []
    with speed.sampling():
        for _ in range(SETUP_REPEATS):
            start = speed.clock()
            subprocess.run([sys.executable, "-c", code], check=True,
                           timeout=120)
            workload.setup()
            times.append(speed.clock() - start)
    return statistics.median(times) * speed.scale(first, None, SETUP_WEIGHTS)


def closed_loop(workload, seconds: float, tally: Tally, speed: HostSpeed,
                tracer: Tracer | None = None) -> tuple[list, list]:
    """Run passes back to back for ``seconds``, checking each. A pass
    starts only if one as long as the last (with its check) still ends
    within ``seconds``, so a run does not overrun by up to a pass. Untraced
    passes run with ``speed`` sampling the host, and each record's
    ``scale`` is that of its own pass. With a tracer every second pass runs
    under it instead (only the pass, not its check), so traced and untraced
    passes see the same host load; a traced pass takes the scale of all the
    loop's samples. There is at least one pass of each kind. Returns
    (untraced, traced) records."""
    plain, traced = [], []
    loop_first = len(speed.samples)
    attempts = 0
    least = 1 if tracer is None else 2
    start = perf_counter()
    took = 0.0
    while attempts < least or perf_counter() - start + took <= seconds:
        began = perf_counter()
        attempts += 1
        under = tracer is not None and attempts % 2 == 0
        gc.collect()
        first = len(speed.samples)
        with tracer if under else speed.sampling():
            rec = tally.run(workload.run_pass)
        if rec is not None:
            rec["scale"] = None if under else speed.scale(first)
            print(f"{workload.name} pass {attempts}"
                  f"{' traced' if under else ''}: {rec['wall']:.3f} s",
                  file=sys.stderr)
            workload.check(rec, tally)
            (traced if under else plain).append(rec)
        took = perf_counter() - began
    for rec in traced:
        rec["scale"] = speed.scale(loop_first)
    return plain, traced


def source_files() -> list[Path]:
    return sorted((SRC / "softact").rglob("*.py"))


def code_size(sa) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in source_files())
    return {"softact.src_lines": lines, "softact.api_names": len(sa.__all__)}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """The checkout's commit, or None when it is not a git repository
    itself (git would otherwise report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_package():
    """Import softact from this checkout's src/, or exit with code 2."""
    if not (SRC / "softact" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'softact'} not found; run from a checkout "
                 "that holds the package source")
    sys.path.insert(0, str(SRC))
    import softact
    import softact.cli  # noqa: F401  (the CLI workload drives it)
    if Path(softact.__file__).resolve().parent != (SRC / "softact").resolve():
        sys.exit(f"error: imported softact from {softact.__file__}")
    return softact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sa = import_package()

    env = environment(args)
    print(json.dumps({"env": env}), flush=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        speed = HostSpeed(json.loads(REFERENCE.read_text())["host_kernel_s"],
                          WORKLOADS[args.workload].HOST_WEIGHTS)
        workload = WORKLOADS[args.workload](sa, args.seed, work, speed)
        setup_s = measure_setup(workload, speed)
        setup_samples = len(speed.samples)
        tracer = Tracer() if args.trace else None
        plain, traced = closed_loop(workload, args.seconds, tally, speed,
                                    tracer)
        ok = bool(plain and (traced or not args.trace))
        if not args.trace:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ok and hasattr(workload, "final_check"):
            workload.final_check(tally)
        e2e, figures = workload.summary(plain)
        host_ms = speed.means(setup_samples)
        figures.update(setup_repeats=SETUP_REPEATS,
                       setup_host_samples=setup_samples,
                       host_samples=len(speed.samples) - setup_samples,
                       host_scale_p50=_median([r["scale"] for r in plain]),
                       **{f"host_{name}_ms": 1e3 * host_ms[name]
                          for name in speed.KERNELS})
        if args.trace:
            figures["traced_passes"] = len(traced)
            values = {
                **tracer.layer_metrics(max(len(traced), 1)),
                **figures,
                **code_size(sa),
                "error_rate": tally.failed / tally.attempted,
                "trace.overhead_s": (workload.summary(traced)[0]["pass_s_p50"]
                                     - e2e["pass_s_p50"]),
            }
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                        {"env": env, "passes": len(traced)})
            wanted = declared["per_layer"]
            # Figures of the other workloads are not measured on this one.
            metrics = {m["name"]: values.get(m["name"], 0.0)
                       if m["name"] in FIGURES else values[m["name"]]
                       for m in wanted}
        else:
            metrics = {"setup_s": setup_s, **e2e, "peak_rss_mb": rss_mb}
            wanted = declared["end_to_end"]
            if set(metrics) != {m["name"] for m in wanted}:
                raise RuntimeError("end-to-end metrics differ from "
                                   "BENCHMARK.json")
        print(json.dumps({"figures": figures,
                          "error_rate": tally.failed / tally.attempted}),
              flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = ok and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
