#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 0-9 --out bench/results/baseline.json
    python3 bench/collect.py --workloads train-k60 --seeds 0-4 --trace-seed 0

Runs are sequential, one process at a time. For each workload and
end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
marked ``steady`` below a third of the metric's bound, ``WIDE`` above the
bound. ``--trace-seed`` adds one ``--trace 1`` run per workload for the
per-layer figures. ``--write-reference`` stores each data seed's train-k60
validation top-5 and best epoch in bench/reference.json, which later runs
must match exactly; while it records, a run that disagrees with the old
reference is kept instead of stopping the collection.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int,
             must_pass: bool = True) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if (proc.returncode != 0 and must_pass) or not lines \
            or "metrics" not in lines[-1]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    out = {"seed": seed, **lines[-1]}
    for line in lines[:-1]:
        out.update(line)
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default="")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    result = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            # A run being recorded as the reference may disagree with the
            # reference it replaces.
            run = run_once(workload, seed, args.seconds, 0,
                           must_pass=not args.write_reference)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in run["metrics"].items()), flush=True)
            runs.append(run)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values) if len(values) > 1 else {"median": values[0]}
            summary[name] = {**stats, "bound": bound, "values": values}
            s = stats.get("spread", 0.0)
            mark = ("steady" if s < bound / 3 else "ok" if s <= bound
                    else "WIDE")
            print(f"  {name:16s} median {stats['median']:.5g}  "
                  f"spread {s:.3f} (bound {bound}) {mark}")
        entry = {
            "env": runs[0]["env"],
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": summary,
            "figures": {k: [r["figures"][k] for r in runs]
                        for k in runs[0]["figures"]},
        }
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        result["workloads"][workload] = entry
        if args.write_reference and workload == "train-k60":
            path = BENCH / "reference.json"
            reference = json.loads(path.read_text())
            seeds_ref = reference["train-k60"]["seeds"]
            for r in runs:
                seeds_ref[str(r["figures"]["data_seed"])] = [
                    r["figures"]["val_top5_1s"], r["figures"]["best_epoch"]]
            reference["train-k60"]["seeds"] = dict(
                sorted(seeds_ref.items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(reference, indent=1) + "\n")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
