"""Command-line surface: synthesis, overhead sweeps, estimation, invariant
verification, and the Fermi-Hubbard demonstration.

Exit codes: 0 success, 1 usage, file or format error or failed verification,
2 infeasible / moment unrecoverable.  All floats are printed with 12 significant
digits; every randomized command takes a --seed and is bit-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .channels import amplitude_damping, depolarizing
from .estimator import plan_shots, renyi_entropy, run_protocol, run_to_csv, save_run
from .hubbard import demo_model, fig4_experiment, model_reduced_state
from .operators import Operator, check_memory, matrix_from_json, random_density_matrix
from .protocols import (ad_second_moment, contract_residual, de_kth_moment, exact_expectation,
                        inverse_overhead, load_protocol, optimal_shift, protocol_to_json,
                        save_protocol, spectral_overheads)
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

INFEASIBLE_MSG = "noise channel not invertible or moment unrecoverable"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _noise_channel(model: str, eps: float, n: int):
    if model == "depolarizing":
        return depolarizing(eps, 2 ** n)
    if model == "amplitude-damping":
        if n != 1:
            raise ValueError("amplitude damping is a single-qubit model (n=1)")
        return amplitude_damping(eps)
    raise ValueError(f"unknown noise model {model!r}")


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _analytic_protocol(model: str, eps: float, k: int, n: int):
    """Closed-form retriever when the (model, k, n) triple has one."""
    if eps >= 1.0:
        return None
    if model == "depolarizing":
        return de_kth_moment(eps, k, 2 ** n)
    if model == "amplitude-damping" and k == 2 and n == 1:
        return ad_second_moment(eps)
    return None


def cmd_synthesize(args) -> int:
    protocol = None if args.force_sdp else _analytic_protocol(
        args.noise, args.eps, args.k, args.n)
    if protocol is not None:
        status, residual, iterations = "analytic", 0.0, 0
    else:
        noise = _noise_channel(args.noise, args.eps, args.n)
        protocol = optimal_shift(noise, args.k)
        if protocol is None:
            print(f"status: infeasible\n{INFEASIBLE_MSG}")
            return EXIT_INFEASIBLE
        status, residual, iterations = "optimal", contract_residual(protocol, noise), 0
    print(f"f: {_fmt(protocol.f)}")
    print(f"t: {_fmt(protocol.t)}")
    print(f"status: {status}")
    print(f"residual: {_fmt(residual)}")
    print(f"iterations: {iterations}")
    if args.out:
        save_protocol(protocol, args.out)
        print(f"protocol written to {args.out}")
    else:
        print(json.dumps(protocol_to_json(protocol)))
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    try:
        if ":" not in spec:
            return [float(x) for x in spec.split(",")]
        start, stop, num = spec.split(":")
        start, stop, num = float(start), float(stop), int(num)
        if num < 1:
            raise ValueError
    except ValueError:
        raise ValueError("--eps-grid takes start:stop:num or comma-separated numbers, "
                         f"got {spec!r}") from None
    return [float(x) for x in np.linspace(start, stop, num)]


def cmd_overhead_sweep(args) -> int:
    methods = args.methods.split(",")
    for m in methods:
        if m not in ("shift", "inverse", "recover"):
            return _fail(f"unknown method {m!r}", EXIT_USAGE)
    rows = []
    for eps in _parse_grid(args.eps_grid):
        # no cell is solved: shift and recover read one pulled-back spectrum, inverse a closed form
        noise = _noise_channel(args.noise, eps, 1)
        values = {"inverse": inverse_overhead(args.noise, eps, args.k)}
        if {"shift", "recover"} & set(methods):
            values["shift"], values["recover"] = spectral_overheads(noise, args.k) or (None, None)
        rows += [(eps, m, values[m], "infeasible" if values[m] is None else "optimal")
                 for m in methods]
    if args.format == "json":
        doc = [{"eps": eps, "method": method, "overhead": value, "status": status}
               for eps, method, value, status in rows]
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
            print(f"sweep written to {args.out}")
        else:
            print(json.dumps(doc))
        return EXIT_OK
    table = [["eps", "method", "overhead", "status"]] + [
        [_fmt(eps), method, "NaN" if value is None else _fmt(value), status]
        for eps, method, value, status in rows]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        print(f"sweep written to {args.out}")
    else:
        print("\n".join(",".join(row) for row in table))
    return EXIT_OK


def _load_state(args, protocol) -> Operator:
    d = protocol.copy_dim
    # the state, its noisy copy and the eigenvalues of its moments (tracemalloc: 65 d^2
    # bytes for `estimate --exact` at d = 1024); a JSON file parses at about 200 d^2
    named = args.state in ("random", "maxmixed", "hubbard")
    check_memory((80 if named else 200) * d * d, f"a state of dimension {d}")
    if args.state == "random":
        return random_density_matrix(d, args.state_seed)
    if args.state == "maxmixed":
        return Operator(np.eye(d) / d)
    if args.state == "hubbard":
        rho = model_reduced_state(demo_model(), (0, 1))[0]
        if rho.dim != d:
            raise ValueError(f"hubbard subsystem dim {rho.dim} != protocol copy dim {d}")
        return rho
    with open(args.state) as fh:
        rho = Operator(matrix_from_json(json.load(fh)))
    if not (rho.is_hermitian(1e-9) and abs(rho.trace() - 1.0) <= 1e-9
            and rho.min_eigenvalue() >= -1e-9):
        raise ValueError(f"{args.state} is not a density matrix (Hermitian, unit trace, PSD)")
    return rho


# the options only a sampled estimate reads, with its defaults; --exact refuses each one given
SAMPLING_OPTIONS = {"shots": None, "out": None, "seed": 0, "format": "json", "delta": 0.05,
                    "fail_prob": 0.05}


def cmd_estimate(args) -> int:
    """Evaluate or sample, write the run record, then print the report; a run refused or
    failed at any step prints nothing on stdout."""
    given = [name for name in SAMPLING_OPTIONS if getattr(args, name) is not None]
    if args.exact and given:
        return _fail("--exact draws no shots and writes no run, so it takes no "
                     f"--{given[0].replace('_', '-')}", EXIT_USAGE)
    for name, default in SAMPLING_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    protocol = load_protocol(args.protocol)
    if args.renyi not in (None, protocol.k):
        return _fail(f"--renyi {args.renyi} needs tr[rho^{args.renyi}], but the protocol "
                     f"retrieves tr[rho^{protocol.k}]", EXIT_USAGE)
    noise = _noise_channel(args.noise, args.eps, args.n)
    if noise.in_dim != protocol.copy_dim:
        return _fail(f"noise dim {noise.in_dim} != protocol copy dim "
                     f"{protocol.copy_dim}", EXIT_USAGE)
    rho = _load_state(args, protocol)
    if args.exact:
        zeta = exact_expectation(protocol, rho, noise)
        est, report = protocol.f * zeta - protocol.t, [f"zeta: {_fmt(zeta)}"]
    else:
        shots, report = args.shots, []
        if shots is None:
            shots = plan_shots(args.delta, args.fail_prob, protocol.f)
            report.append(f"planned shots: {shots} (delta={_fmt(args.delta)}, "
                          f"fail_prob={_fmt(args.fail_prob)}, f={_fmt(protocol.f)})")
        run = run_protocol(protocol, rho, noise, shots, args.seed)
        est = run.estimate
        report += [f"shots: {run.shots}", f"zeta_bar: {_fmt(run.zeta_bar)}"]
    report.append(f"estimate: {_fmt(est)}")
    if args.renyi:
        report.append(f"renyi_{args.renyi}: {_fmt(renyi_entropy(est, args.renyi))}")
    if args.out:
        (run_to_csv if args.format == "csv" else save_run)(run, args.out)
        report.append(f"run written to {args.out}")
    print("\n".join(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failed += 0 if passed else 1
    report = {"suite": args.suite,
              "checks": [{"name": n, "passed": bool(p), "detail": d}
                         for n, p, d in results],
              "failed": failed}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_USAGE


def cmd_hubbard_demo(args) -> int:
    try:
        subsystem = [int(x) for x in args.subsystem.split(",")]
    except ValueError:
        raise ValueError("--subsystem takes comma-separated qubit indices, "
                         f"got {args.subsystem!r}") from None
    res = fig4_experiment(args.eps, subsystem=subsystem, shots=args.shots,
                          trials=args.trials, seed=args.seed)
    se_raw, se_mit = res.std_errors()
    print(f"exact tr[rho_A^2]: {_fmt(res.exact_purity)}")
    print(f"analytic biased value: {_fmt(res.biased_value())}")
    print(f"raw mean: {_fmt(res.raw_mean)} (se {_fmt(se_raw)})")
    print(f"mitigated mean: {_fmt(res.mitigated_mean)} (se {_fmt(se_mit)})")
    if args.out:
        with open(args.out + ".csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial_index", "method", "estimate"])
            for trial, method, est in res.records():
                w.writerow([trial, method, _fmt(est)])
        with open(args.out + ".json", "w") as fh:
            json.dump(res.summary(), fh, indent=1)
        print(f"written to {args.out}.csv and {args.out}.json")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing does not change it."""
    p = _Parser(prog="momentshift",
                description="Retrieve density-matrix moments from noisy states")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # each subcommand's parser, by name

    def common(sp, *flags, fmt="json"):
        shared = {"--format": dict(choices=("json", "csv"), default=fmt),
                  "--seed": dict(type=int, default=0)}
        sp.add_argument("--out", default=None, help="output file path")
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("synthesize", help="build a retrieval protocol")
    sp.add_argument("--noise", required=True,
                    choices=("depolarizing", "amplitude-damping"))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--k", type=_at_least(2), default=2, help="moment order")
    sp.add_argument("--n", type=_at_least(1), default=1, help="qubits per copy")
    sp.add_argument("--force-sdp", action="store_true",
                    help="skip closed forms and always build the least-overhead retriever "
                         "from the spectrum of the pulled-back observable")
    common(sp)
    sp.set_defaults(fn=cmd_synthesize)

    sp = sub.add_parser("overhead-sweep", help="overhead vs noise level table")
    sp.add_argument("--noise", required=True,
                    choices=("depolarizing", "amplitude-damping"))
    sp.add_argument("--k", type=_at_least(2), default=2)
    sp.add_argument("--eps-grid", default="0:0.3:7",
                    help="start:stop:num or comma-separated values")
    sp.add_argument("--methods", default="shift,inverse,recover")
    common(sp, "--format", fmt="csv")
    sp.set_defaults(fn=cmd_overhead_sweep)

    sp = sub.add_parser("estimate", help="finite-shot or exact estimation")
    sp.add_argument("--protocol", required=True, help="protocol JSON file")
    sp.add_argument("--noise", required=True,
                    choices=("depolarizing", "amplitude-damping"))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n", type=_at_least(1), default=1)
    sp.add_argument("--state", default="random",
                    help="random | maxmixed | hubbard | path to density-matrix JSON")
    sp.add_argument("--state-seed", type=_at_least(0), default=0)
    # a sampled run's options default to None, so --exact can tell a given one
    sampling = SAMPLING_OPTIONS
    sp.add_argument("--delta", type=float, default=None,
                    help=f"error bound of the shot plan (default {sampling['delta']})")
    sp.add_argument("--fail-prob", type=float, default=None,
                    help=f"failure probability of the shot plan (default {sampling['fail_prob']})")
    sp.add_argument("--shots", type=int, default=None, help="shots, instead of the plan")
    sp.add_argument("--format", choices=("json", "csv"), default=None,
                    help=f"run record format (default {sampling['format']})")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"shot seed (default {sampling['seed']})")
    sp.add_argument("--exact", action="store_true",
                    help="exact evaluation, no sampling; takes no sampling option")
    sp.add_argument("--renyi", type=_at_least(2), default=None,
                    help="also print the Renyi entropy of this order")
    common(sp)
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("verify", help="run module invariant suites")
    sp.add_argument("--suite", default="all",
                    choices=("all", "sdp", "protocols", "moments", "hubbard"))
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("hubbard-demo", help="mitigated vs raw purity estimation")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--shots", type=int, default=4096)
    sp.add_argument("--trials", type=int, default=60)
    sp.add_argument("--subsystem", default="0,1",
                    help="comma-separated qubit indices of subsystem A")
    common(sp, "--seed")
    sp.set_defaults(fn=cmd_hubbard_demo)
    return p


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass when argv opens with a subcommand: its
    parser alone reads the rest, and the top-level parser refuses what that leaves over."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no argv, an unknown command or a leading option
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.out == "":  # every command takes --out; "" would be taken for no path
        return _fail("--out needs a file path, got an empty one", EXIT_USAGE)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
