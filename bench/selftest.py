"""Self-test of the benchmark, in about a minute:

    python3 bench/selftest.py

1. A reduced-size run (``--smoke``) of every workload, untraced and traced,
   must be correct and emit exactly the metrics BENCHMARK.json names, each
   with its unit and a finite value.
2. Every output check must pass a right output and reject a deliberately
   wrong one, such as a sweep row with shift > inverse or an estimate off by
   twice its bound.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import checks
from run import Outcome, repeat_matches
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}")


def rejects(check, out: str, what: str) -> None:
    try:
        check(out)
    except checks.CheckFailed:
        return
    raise SystemExit(f"FAIL check accepted {what}")


def smoke_runs(spec: dict) -> None:
    for workload in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            what = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{what} exited {done.returncode}: {done.stderr[-400:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what} keys")
            expect(result["correct"] and result["attempted"] >= 1, f"{what} correct")
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{what} metrics {sorted(set(got) ^ set(units))}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{what} finite values")
            print(f"ok   {what}: {result['attempted']} ops")


def wrong_values() -> None:
    header = "eps,method,overhead,status\n"
    good_de = header + "0.1,shift,1.23456794,optimal\n0.1,inverse,1.5,optimal\n" \
                       "0.1,recover,1.2345679,optimal\n"
    sweep = lambda noise: lambda out: checks.check_sweep(  # noqa: E731
        out, noise=noise, grid=[0.1], methods=["shift", "inverse", "recover"])
    sweep("depolarizing")(good_de)
    rejects(sweep("amplitude-damping"),
            header + "0.1,shift,1.6,optimal\n0.1,inverse,1.5,optimal\n0.1,recover,1.4,optimal\n",
            "a sweep row with shift > inverse")
    rejects(sweep("depolarizing"), good_de.replace("1.23456794", "1.2356"),
            "a depolarizing shift off 1/(1-eps)^2")
    rejects(sweep("depolarizing"), good_de.replace("1.5,optimal", "1.5,max_iters"),
            "a cell that did not end optimal")
    rejects(sweep("depolarizing"), "\n".join(good_de.splitlines()[:3]), "a missing row")

    f, truth, delta, fail_prob = 1.2345679, 0.6, 0.01, 0.05
    shots = checks.planned_shots(delta, fail_prob, f)
    bound = checks.hoeffding_halfwidth(f, shots) + checks.CONTRACT_TOL
    estimate = lambda out: checks.check_estimate(  # noqa: E731
        out, f=f, truth=truth, delta=delta, fail_prob=fail_prob)
    estimate(f"shots: {shots}\nestimate: {truth + 0.5 * bound}\n")
    rejects(estimate, f"shots: {shots}\nestimate: {truth + 2 * bound}\n",
            "an estimate off by twice the bound")
    rejects(estimate, f"shots: {shots - 1}\nestimate: {truth}\n", "an unplanned shot count")

    exact = lambda out: checks.check_exact(out, k=3, truth=truth)  # noqa: E731
    exact(f"estimate: {truth}\nrenyi_3: {math.log(truth) / -2}\n")
    rejects(exact, f"estimate: {truth + 2e-9}\nrenyi_3: {math.log(truth) / -2}\n",
            "an exact estimate off by 2e-9")

    eps, purity, shots, trials = 0.1, 0.3, 4096, 60
    biased = (1 - eps) ** 2 * purity + 2 * eps * (1 - eps) / 4 + eps ** 2 / 4
    mit_bound = checks.hoeffding_halfwidth(1 / (1 - eps) ** 2, shots * trials)
    demo = ("exact tr[rho_A^2]: {p}\nanalytic biased value: {b}\n"
            "raw mean: {r} (se 0.002)\nmitigated mean: {m} (se 0.002)\n")
    hubbard = lambda out: checks.check_hubbard(  # noqa: E731
        out, eps=eps, n_qubits=2, purity=purity, shots=shots, trials=trials)
    hubbard(demo.format(p=purity, b=biased, r=biased, m=purity))
    rejects(hubbard, demo.format(p=purity, b=biased, r=biased, m=purity + 2 * mit_bound),
            "a mitigated mean off by twice the bound")
    raw_bound = checks.hoeffding_halfwidth(1.0, shots * trials)
    rejects(hubbard, demo.format(p=purity, b=biased, r=biased - 2 * raw_bound, m=purity),
            "a raw mean off by twice the bound")
    rejects(hubbard, demo.format(p=purity + 1e-6, b=biased, r=biased, m=purity),
            "a wrong exact purity")

    class Stub:
        repeat_check = True
    res = Outcome()
    op = Op("stub", [], lambda out: None)
    res.record(op, 0, "first\n", "", 0.1)
    expect(not repeat_matches(Stub, [op], lambda argv: (0, "second\n", ""), res),
           "repeat check accepted differing output")
    expect(res.failed == 1 and res.wrong == 1, "repeat mismatch counted as a failed op")
    print("ok   every check rejects its wrong value")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())["layers"]
    expect([m["name"] for m in layers] == [m["name"] for m in spec["per_layer"]],
           "layers.json and BENCHMARK.json name the same per-layer metrics")
    wrong_values()
    smoke_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
