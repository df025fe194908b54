"""End-to-end benchmark of the momentshift CLI.

    python3 bench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

Each op is one in-process call of ``momentshift.cli.main(argv)`` with stdout
captured, in a closed loop from one client: the next op starts when the
previous one ends.  The workloads (``workloads.py``) draw every input from
``--seed``; ops run in whole cycles until ``--seconds`` have passed, and every
op's output is checked against a reference (``checks.py``).  An op fails when
the CLI exits nonzero or its output fails the check; the failure is kept with
its reason (exit code and first line of stderr).

``--trace 0`` prints the end-to-end metrics.  Times in the result line are
rescaled to a reference machine speed (``calibration.py``): ``setup_s`` is
the median over three set-ups (this process and two fresh ones) of the time
from the first statement to the first timed op; ``op_p50_ref_s`` is the median
op time, a failed op counting as +inf; ``ops_per_ref_s`` is correct ops per
second of op time; ``peak_rss_mb`` is the process's ``ru_maxrss``.  The
unscaled wall-clock figures (median, tail percentile, ops and shots per
second, fail fraction with reasons) are printed on the report lines.

``--trace 1`` runs set-up under spans (``tracing.py``), then a fixed op list
in which every op runs once untraced and once traced, and prints the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the checkout that holds this file; without it the run exits 1
before measuring anything.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (set-up time counts from the first statement)
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibration
import tracing

sys.dont_write_bytecode = True   # every run compiles the package alike
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3                # set-ups per run whose median is setup_s

def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """The package under test, from this checkout's ``src/`` only."""
    if not (SRC / "momentshift" / "cli.py").is_file():
        sys.exit(f"error: {SRC}/momentshift not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import momentshift.cli
    return momentshift.cli


def make_runner(main):
    """``run(argv) -> (exit code, stdout, stderr)`` for one in-process CLI call."""
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:   # a crash is a failed op, recorded with its reason
                traceback.print_exc(file=err)
                rc = "crash"
        return rc, out.getvalue(), err.getvalue()
    return run


class Outcome:
    """Times, failures and check results of the ops a pass ran."""

    def __init__(self):
        self.times: list[float] = []     # wall seconds, inf for failed ops
        self.ref_times: list[float] = []  # rescaled to the reference speed
        self.wall = 0.0
        self.shots = 0
        self.failures: dict[str, int] = {}
        self.wrong = 0                   # exit 0 with output that fails its check
        self.outputs: list[str] = []

    def record(self, op, rc, out, err, dt, scale: float = 1.0) -> None:
        reason = None
        if rc != 0:
            lines = [l.strip() for l in err.splitlines() if l.strip()] or [""]
            # a crash's traceback ends with the exception; an error starts with it
            reason = f"exit {rc}: {lines[-1] if rc == 'crash' else lines[0]}"
        else:
            try:
                self.shots += op.check(out) or 0
            except Exception as exc:   # CheckFailed or unparsable output
                reason = f"check {op.kind}: {exc}"
                self.wrong += 1
        if reason:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        self.times.append(math.inf if reason else dt)
        self.ref_times.append(math.inf if reason else dt * scale)
        self.outputs.append(out)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(ops, run) -> Outcome:
    res = Outcome()
    t0 = perf_counter()
    for op in ops:
        t = perf_counter()
        rc, out, err = run(op.argv)
        dt = perf_counter() - t
        res.record(op, rc, out, err, dt)
    res.wall = perf_counter() - t0
    return res


def run_timed(wl, run, seconds: float) -> tuple[list, Outcome]:
    """Whole cycles of ops until ``seconds`` have passed.

    A calibration burst runs before the first op and after every op; an op's
    reference time uses the mean of the two bursts around it.
    """
    ops, res = [], Outcome()
    t0 = perf_counter()
    before = calibration.burst()
    while perf_counter() - t0 < seconds:
        for op in wl.cycle():
            t = perf_counter()
            rc, out, err = run(op.argv)
            dt = perf_counter() - t
            after = calibration.burst(dt)
            res.record(op, rc, out, err, dt, 2 * calibration.REFERENCE_S / (before + after))
            before = after
            ops.append(op)
    res.wall = perf_counter() - t0
    return ops, res


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten ops beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def setup_child(args) -> tuple[float, float]:
    """Set-up time, wall and rescaled, of a fresh process doing this run's set-up."""
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def provenance(args) -> dict:
    import hashlib
    import platform

    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 1),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
    }


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, read through its C API."""
    import ctypes

    import numpy as np

    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    """Report lines, then the result line with every metric BENCHMARK.json names."""
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    bad = sorted(k for k in units if not math.isfinite(metrics[k]))
    if bad:   # e.g. no median op time when more than half of the ops failed
        sys.exit(f"error: no finite value for {', '.join(bad)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))


def repeat_matches(wl, ops, run, res: Outcome) -> bool:
    """Re-run the first op with the same seed; stdout must match byte for byte."""
    if not wl.repeat_check or not ops:
        return True
    rc, out, err = run(ops[0].argv)
    if rc == 0 and out == res.outputs[0]:
        return True
    res.failures["repeat: output not byte-identical"] = 1
    res.times[0] = res.ref_times[0] = math.inf
    res.wrong += 1
    return False


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="do set-up, print its time and exit (set-up samples)")
    args = p.parse_args(argv)

    cli = import_program()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    run_plain = make_runner(cli.main)
    run = make_runner(tracer.span("cli", cli.main)) if tracer else run_plain
    try:
        if tracer:
            tracer.install()
        wl = WORKLOADS[args.workload](args.seed, workdir, run, smoke=args.smoke)
        wl.setup()
        warm = run_pass(wl.warmup(), run)
        setup_s = perf_counter() - T_START
        setup = (setup_s, setup_s * calibration.REFERENCE_S / calibration.burst(setup_s))
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        report = {"provenance": provenance(args)}
        if warm.failures:
            report["warmup_failures"] = warm.failures

        if not tracer:
            ops, res = run_timed(wl, run, args.seconds)
            correct = repeat_matches(wl, ops, run, res) and res.wrong == 0 and warm.wrong == 0
            samples = [setup] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
            kinds: dict[str, list[float]] = {}
            for op, t in zip(ops, res.times):
                kinds.setdefault(op.kind, []).append(t)
            op_s = sum(t for t in res.times if math.isfinite(t))
            metrics = {
                "setup_s": statistics.median(ref for _, ref in samples),
                "op_p50_ref_s": statistics.median(res.ref_times),
                "ops_per_ref_s": (len(ops) - res.failed)
                / sum(t for t in res.ref_times if math.isfinite(t)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            # wall-clock figures, unscaled; failed ops count as +inf
            report.update({
                "setup_samples_s": [wall for wall, _ in samples],
                "ops": len(ops), "timed_wall_s": res.wall,
                "op_p50_s": statistics.median(res.times),
                "op_tail_s": tail(res.times),
                "ops_per_s": (len(ops) - res.failed) / op_s if op_s else 0.0,
                "shots_per_s": res.shots / op_s if op_s else 0.0,
                "fail_frac": res.failed / len(ops),
                "failures": res.failures,
                "kind_p50_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
            })
            emit(report, correct, len(ops), res.failed, metrics, metric_units("end_to_end"))
            return 0

        # traced run: one fixed op list, so per-layer totals compare across
        # commits.  Each op runs untraced and traced, in alternating order, so
        # both see the same machine speed and the difference is the overhead.
        tracer.uninstall()
        n_cycles = max(1, round(args.seconds / 2 / wl.nominal_cycle_s))
        ops = [op for _ in range(n_cycles) for op in wl.cycle()]
        plain, traced = Outcome(), Outcome()
        cpu_s = 0.0
        for i, op in enumerate(ops):
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_now:
                    tracer.op = str(i)
                    tracer.install()
                cpu0 = resource.getrusage(resource.RUSAGE_SELF)
                t = perf_counter()
                rc, out, err = (run if traced_now else run_plain)(op.argv)
                dt = perf_counter() - t
                cpu1 = resource.getrusage(resource.RUSAGE_SELF)
                if traced_now:
                    tracer.uninstall()
                    traced.record(op, rc, out, err, dt)
                else:
                    cpu_s += cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
                    plain.record(op, rc, out, err, dt)
        ok = [i for i, (a, b) in enumerate(zip(plain.times, traced.times))
              if math.isfinite(a) and math.isfinite(b)]
        plain_s = sum(plain.times[i] for i in ok)
        traced_s = sum(traced.times[i] for i in ok)
        metrics = tracing.layer_metrics(tracer)
        op_cli = [s.end - s.start for s in tracer.spans if s.name == "cli" and s.op != "setup"]
        op_self = sum(t for s, t in zip(tracer.spans, tracer.self_times())
                      if s.name == "cli" and s.op != "setup")
        metrics.update({
            "process.cpu_util": cpu_s / sum(t for t in plain.times if math.isfinite(t)),
            "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0,
            "trace.coverage_frac": 1.0 - op_self / sum(op_cli) if op_cli else 0.0,
        })
        op_time = sum(op_cli)
        rows = tracing.table(tracer)
        for row in rows.values():
            row["share_of_op_time"] = row["ops_self_s"] / op_time if op_time else 0.0
        report.update({"ops": len(ops), "untraced_op_s": plain_s, "traced_op_s": traced_s,
                       "failures": traced.failures, "spans": rows})
        correct = traced.wrong == 0 and plain.wrong == 0 and warm.wrong == 0
        emit(report, correct, len(ops), traced.failed, metrics, metric_units("per_layer"))
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
