"""Run the benchmark over several seeds and judge its spread and its changes.

    python3 bench/prove.py --seeds 1-10 --out summary.json
    python3 bench/prove.py --seeds 1-10 --workloads sweep --trace
    python3 bench/prove.py --seeds 11-20 --against bench/baseline/BENCH_1.json

For every workload and end-to-end metric this prints the median of the runs,
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``) next to the metric's bound in
BENCHMARK.json.  ``--trace`` adds one traced run per workload.  ``--against``
compares the medians with a summary written earlier by this script and flags
every metric that got worse by more than its bound.  Runs go one after the
other, each in a fresh process, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# unscaled figures of the report lines that a summary keeps per run
REPORT_KEYS = ("op_p50_s", "op_tail_s", "ops_per_s", "shots_per_s", "fail_frac",
               "failures", "setup_samples_s")


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["report"] = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(": ")
        if sep:
            result["report"][key] = json.loads(value)
    return result


def compact(result: dict) -> dict:
    """What a summary keeps of one run: the result line and the unscaled figures."""
    report = result["report"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            **{k: report[k] for k in REPORT_KEYS if k in report}}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: those in BENCHMARK.json")
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--against", type=Path, help="summary to compare medians with")
    p.add_argument("--out", type=Path, help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    before = json.loads(args.against.read_text())["workloads"] if args.against else {}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    provenance = None
    ok = True
    for w in workloads:
        runs = [run_once(spec["command"], w, s, spec["run_seconds"], 0) for s in seeds]
        provenance = provenance or runs[0]["report"]["provenance"]
        entry = {"runs": [dict(compact(r), seed=s) for r, s in zip(runs, seeds)],
                 "metrics": {}}
        incorrect = [r for r in runs if not r["correct"]]
        print(f"{w}: {len(runs)} runs, ops {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}, incorrect {len(incorrect)}")
        ok &= not incorrect
        for name, bound in bounds.items():
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = {"median": med, "spread": rel, "bound": bound}
            flag = "" if name == "setup_s" or rel <= bound / 3 else \
                "  > bound/3" if rel <= bound else "  > BOUND"
            line = f"  {name:12s} median {med:12.6g}  spread {rel:6.3f}  bound {bound}{flag}"
            old = before.get(w, {}).get("metrics", {}).get(name)
            if old:
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                change = med / old["median"] - 1.0
                worse = change if better == "lower" else -change
                line += f"  vs {old['median']:.6g}: {change:+.3f}" + \
                    ("  WORSE THAN BOUND" if worse > bound else "")
                ok &= worse <= bound
            print(line)
            ok &= name == "setup_s" or rel <= bound
        if args.trace:
            traced = run_once(spec["command"], w, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = dict(compact(traced), seed=seeds[0],
                                   spans=traced["report"]["spans"])
            layers = {k: round(v["value"], 6) for k, v in traced["metrics"].items()}
            print(f"  traced (seed {seeds[0]}): {json.dumps(layers)}")
        summary["workloads"][w] = entry
    summary["provenance"] = provenance
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
