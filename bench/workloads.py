"""The benchmark's workloads: inputs drawn from a seed, the CLI argv of every
op, and the check each op's output must pass.

An op is one in-process call of ``momentshift.cli.main(argv)``.  A workload
writes its input files (states, protocol files) into its work directory during
set-up; the program sees only argv and those files.  Ops come in cycles: a
cycle holds one op of each kind, so a run made of whole cycles has the same
mix of kinds on every seed.  Estimate and exact have an odd number of kinds,
which keeps the median op inside one kind instead of on the boundary between
two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SWEEP_GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]   # CLI default 0:0.3:7 without 0
DEFECT_EPS = 0.2       # depolarizing recover point that fails at the parent commit
ESTIMATE_DELTA = 0.01
# Planned shots grow as f^2, and f with eps: one fixed noise level keeps the
# work of an estimate op the same on every seed.
ESTIMATE_EPS = "0.1"
ESTIMATE_FAIL_PROB = 0.05
STATES_PER_DIM = 8


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], int | None]   # returns shots simulated, if any


def _eps(rng: np.random.Generator) -> str:
    """A noise level drawn from the seed, as the exact text passed in argv."""
    return f"{rng.uniform(0.05, 0.3):.4f}"


def _random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    rank = int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class Workload:
    """Set-up writes inputs; ``cycle`` draws the next cycle of timed ops."""

    name = ""
    repeat_check = False      # re-run one op and require byte-identical stdout
    nominal_cycle_s = 1.0     # sizes the fixed op list of a traced run

    def __init__(self, seed: int, workdir: Path, run_cli: Callable, smoke: bool = False):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.run_cli = run_cli
        self.smoke = smoke
        self.states: dict[int, list[tuple[str, np.ndarray]]] = {}

    def setup_cli(self, argv: list[str]) -> str:
        """Run a set-up command; set-up cannot go on if it fails."""
        rc, out, err = self.run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {' '.join(argv)} exited {rc}: "
                               f"{err.strip().splitlines()[:1]}")
        return out

    def write_states(self, dims: list[int]) -> None:
        for d in dims:
            pool = []
            for i in range(STATES_PER_DIM):
                rho = _random_state(self.rng, d)
                path = self.dir / f"state_d{d}_{i}.json"
                path.write_text(json.dumps(
                    [[[z.real, z.imag] for z in row] for row in rho.tolist()]))
                pool.append((str(path), rho))
            self.states[d] = pool

    def pick_state(self, d: int) -> tuple[str, np.ndarray]:
        pool = self.states[d]
        return pool[int(self.rng.integers(len(pool)))]

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One op of each kind, run untimed so that lazy caches fill."""
        return self.cycle()

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class Sweep(Workload):
    """overhead-sweep at k=3: the only workload that runs the conic solver."""

    name = "sweep"
    nominal_cycle_s = 35.0

    def setup(self) -> None:
        self.k = "2" if self.smoke else "3"

    def _op(self, noise: str, grid: list[float], methods: str = "shift,inverse,recover") -> Op:
        model = "depolarizing" if noise == "DE" else "amplitude-damping"
        argv = ["overhead-sweep", "--noise", model, "--k", self.k,
                "--eps-grid", ",".join(f"{e:g}" for e in grid), "--methods", methods]
        return Op(f"sweep.{noise}", argv, lambda out: checks.check_sweep(
            out, noise=model, grid=grid, methods=methods.split(",")))

    def _points(self, n: int, exclude: float | None = None) -> list[float]:
        pool = [e for e in SWEEP_GRID if e != exclude]
        return sorted(float(x) for x in self.rng.choice(pool, size=n, replace=False))

    def warmup(self) -> list[Op]:
        # shift and recover are multi-second solves whose only lazy state is
        # the per-dimension HermitianBasis; the inverse program warms that
        # and the k-copy code paths in a few milliseconds.
        return [self._op(noise, self._points(1), "inverse") for noise in ("DE", "AD")]

    def cycle(self) -> list[Op]:
        n = 1 if self.smoke else 2
        with_defect = sorted(self._points(n - 1, DEFECT_EPS) + [DEFECT_EPS])
        return [self._op("DE", with_defect),
                self._op("AD", self._points(n)),
                self._op("DE", self._points(n, DEFECT_EPS))]


class Estimate(Workload):
    """Sampled estimation with Hoeffding-planned shots on seven protocol files."""

    name = "estimate"
    repeat_check = True
    nominal_cycle_s = 0.25

    def setup(self) -> None:
        from momentshift.protocols import de_second_moment, save_protocol

        self.write_states([2, 4])
        self.protocols = []   # (kind, path, noise, eps, n, doc)

        def add(kind: str, noise: str, n: int, argv: list[str] | None) -> None:
            eps = ESTIMATE_EPS
            path = self.dir / f"{kind}.json"
            if argv is None:   # the twelve-unitary twirl has no CLI path
                save_protocol(de_second_moment(float(eps)), path)
            else:
                self.setup_cli(["synthesize", "--noise", noise, "--eps", eps,
                                "--n", str(n), *argv, "--out", str(path)])
            doc = json.loads(path.read_text())
            self.protocols.append((kind, str(path), noise, eps, n, doc))

        de, ad = "depolarizing", "amplitude-damping"
        add("twirl", de, 1, None)
        add("ad.measure", ad, 1, ["--k", "2"])
        add("de.choi.n1", de, 1, ["--k", "2"])
        add("de.choi.n2", de, 2, ["--k", "2"])
        add("sdp.ad.k2", ad, 1, ["--k", "2", "--force-sdp"])
        add("sdp.ad.k3", ad, 1, ["--k", "3", "--force-sdp"])
        add("sdp.de.k3", de, 1, ["--k", "3", "--force-sdp"])

    def cycle(self) -> list[Op]:
        delta = 0.05 if self.smoke else ESTIMATE_DELTA
        ops = []
        for i in self.rng.permutation(len(self.protocols)):
            kind, path, noise, eps, n, doc = self.protocols[i]
            state_path, rho = self.pick_state(doc["copy_dim"])
            truth = checks.moment(rho, doc["k"])
            argv = ["estimate", "--protocol", path, "--noise", noise, "--eps", eps,
                    "--n", str(n), "--state", state_path, "--delta", str(delta),
                    "--fail-prob", str(ESTIMATE_FAIL_PROB),
                    "--seed", str(int(self.rng.integers(2 ** 31)))]
            ops.append(Op(kind, argv, lambda out, f=doc["f"], truth=truth:
                          checks.check_estimate(out, f=f, truth=truth, delta=delta,
                                                fail_prob=ESTIMATE_FAIL_PROB)))
        return ops


class Hubbard(Workload):
    """hubbard-demo at its default 4096 shots x 60 trials."""

    name = "hubbard"
    repeat_check = True
    nominal_cycle_s = 1.7

    def setup(self) -> None:
        self.shots, self.trials = (512, 4) if self.smoke else (4096, 60)
        self.psi = checks.hubbard_ground_vector()
        self.purity: dict[tuple[int, int], float] = {}

    def cycle(self) -> list[Op]:
        pairs = list(combinations(range(6), 2))
        pair = pairs[int(self.rng.integers(len(pairs)))]
        if pair not in self.purity:
            self.purity[pair] = checks.reduced_purity(self.psi, list(pair))
        eps = _eps(self.rng)
        argv = ["hubbard-demo", "--eps", eps, "--subsystem", f"{pair[0]},{pair[1]}",
                "--seed", str(int(self.rng.integers(2 ** 31)))]
        if self.smoke:
            argv += ["--shots", str(self.shots), "--trials", str(self.trials)]
        return [Op("hubbard", argv, lambda out: checks.check_hubbard(
            out, eps=float(eps), n_qubits=2, purity=self.purity[pair],
            shots=self.shots, trials=self.trials))]


class Exact(Workload):
    """Dense estimate --exact: the recursive retriever up to k = 5."""

    name = "exact"
    nominal_cycle_s = 0.25

    def setup(self) -> None:
        self.write_states([2, 4])
        self.protocols = []   # (kind, path, eps, n, k)
        orders = [(1, 2), (2, 2), (1, 3), (1, 4)] + ([] if self.smoke else [(1, 5)])
        for n, k in orders:
            eps = _eps(self.rng)
            path = self.dir / f"de_n{n}_k{k}.json"
            self.setup_cli(["synthesize", "--noise", "depolarizing", "--eps", eps,
                            "--n", str(n), "--k", str(k), "--out", str(path)])
            self.protocols.append((f"n{n}.k{k}", str(path), eps, n, k))

    def cycle(self) -> list[Op]:
        ops = []
        for i in self.rng.permutation(len(self.protocols)):
            kind, path, eps, n, k = self.protocols[i]
            state_path, rho = self.pick_state(2 ** n)
            argv = ["estimate", "--protocol", path, "--noise", "depolarizing",
                    "--eps", eps, "--n", str(n), "--state", state_path,
                    "--exact", "--renyi", str(k)]
            ops.append(Op(kind, argv, lambda out, k=k, truth=checks.moment(rho, k):
                          checks.check_exact(out, k=k, truth=truth)))
        return ops


WORKLOADS = {w.name: w for w in (Sweep, Estimate, Hubbard, Exact)}
