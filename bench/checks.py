"""Output checks for the benchmark's ops, with references computed here.

Every check takes the stdout of one CLI call and raises ``CheckFailed`` with a
one-line reason when the output is wrong.  References (tr[rho^k], the
Fermi-Hubbard reduced purity) are computed in this file with plain numpy, not
through the package under test, so a defect in the package cannot make its
own check pass.
"""

from __future__ import annotations

import math

import numpy as np

# Failure probability of the Hoeffding acceptance bound.  At 1e-6 a correct
# sampler fails a check about once per million ops, so a change to the random
# streams cannot flip a check.
CHECK_FAIL_PROB = 1e-6
# SDP-made retrievers meet the moment contract to solver precision only.
CONTRACT_TOL = 1e-6
EXACT_TOL = 1e-9          # ROADMAP contract for dense evaluation
SWEEP_ORDER_TOL = 1e-6    # shift <= recover <= inverse
SWEEP_SHIFT_TOL = 1e-4    # depolarizing shift overhead vs 1/(1-eps)^2


class CheckFailed(Exception):
    """An op printed output that contradicts its reference."""


def parse_fields(out: str) -> dict[str, str]:
    """``key: value`` lines of CLI output, keyed by the text before ': '."""
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _number(fields: dict[str, str], key: str) -> float:
    if key not in fields:
        raise CheckFailed(f"output has no {key!r} line")
    return float(fields[key].split()[0])


def moment(rho: np.ndarray, k: int) -> float:
    return float(np.real(np.trace(np.linalg.matrix_power(rho, k))))


def hoeffding_halfwidth(f: float, samples: int, fail_prob: float = CHECK_FAIL_PROB) -> float:
    """Deviation bound of f times a mean of ``samples`` values in [-1, 1]."""
    return f * math.sqrt(2.0 * math.log(2.0 / fail_prob) / samples)


def planned_shots(delta: float, fail_prob: float, f: float) -> int:
    return math.ceil(f * f * (2.0 / delta ** 2) * math.log(2.0 / fail_prob))


def check_estimate(out: str, *, f: float, truth: float, delta: float,
                   fail_prob: float) -> int:
    """Sampled estimate within the Hoeffding bound; returns the shots spent."""
    fields = parse_fields(out)
    shots = int(_number(fields, "shots"))
    want = planned_shots(delta, fail_prob, f)
    if shots != want:
        raise CheckFailed(f"spent {shots} shots, the Hoeffding plan needs {want}")
    est = _number(fields, "estimate")
    bound = hoeffding_halfwidth(f, shots) + CONTRACT_TOL
    if not abs(est - truth) <= bound:
        raise CheckFailed(f"estimate {est:.6g} off tr[rho^k]={truth:.6g} "
                          f"by more than {bound:.3g}")
    return shots


def check_exact(out: str, *, k: int, truth: float) -> None:
    fields = parse_fields(out)
    est = _number(fields, "estimate")
    if not abs(est - truth) <= EXACT_TOL:
        raise CheckFailed(f"exact estimate {est!r} off tr[rho^{k}]={truth!r} "
                          f"by {abs(est - truth):.3g} > {EXACT_TOL}")
    renyi = _number(fields, f"renyi_{k}")
    want = math.log(truth) / (1 - k)
    if not abs(renyi - want) <= 10 * EXACT_TOL:
        raise CheckFailed(f"renyi_{k} {renyi!r} != {want!r}")


def check_hubbard(out: str, *, eps: float, n_qubits: int, purity: float,
                  shots: int, trials: int) -> int:
    """Exact, raw and mitigated purities; returns the shots simulated."""
    fields = parse_fields(out)
    exact = _number(fields, "exact tr[rho_A^2]")
    if not abs(exact - purity) <= EXACT_TOL:
        raise CheckFailed(f"exact purity {exact!r} != reference {purity!r}")
    d = 2 ** n_qubits
    biased = (1 - eps) ** 2 * purity + 2 * eps * (1 - eps) / d + eps ** 2 / d
    printed_biased = _number(fields, "analytic biased value")
    if not abs(printed_biased - biased) <= EXACT_TOL:
        raise CheckFailed(f"biased value {printed_biased!r} != {biased!r}")
    samples = shots * trials
    raw = _number(fields, "raw mean")
    if not abs(raw - biased) <= hoeffding_halfwidth(1.0, samples):
        raise CheckFailed(f"raw mean {raw:.6g} off biased value {biased:.6g}")
    mitigated = _number(fields, "mitigated mean")
    bound = hoeffding_halfwidth(1.0 / (1 - eps) ** 2, samples)
    if not abs(mitigated - purity) <= bound:
        raise CheckFailed(f"mitigated mean {mitigated:.6g} off purity {purity:.6g} "
                          f"by more than {bound:.3g}")
    return 2 * samples


def check_sweep(out: str, *, noise: str, grid: list[float], methods: list[str]) -> None:
    """Every cell solved, depolarizing shift closed form, shift <= recover <= inverse.

    A cell is solved when the program ends ``optimal`` or the CLI used a
    closed form (``analytic``, the k = 2 shift).
    """
    lines = out.strip().splitlines()
    if not lines or lines[0] != "eps,method,overhead,status":
        raise CheckFailed("sweep output has no CSV header")
    table: dict[tuple[float, str], float] = {}
    for line in lines[1:]:
        eps_s, method, value_s, status = line.split(",")
        if status not in ("optimal", "analytic"):
            raise CheckFailed(f"eps={eps_s} {method} ended {status}")
        table[(float(eps_s), method)] = float(value_s)
    want = {(eps, m) for eps in grid for m in methods}
    if set(table) != want:
        raise CheckFailed(f"sweep rows {sorted(table)} != requested {sorted(want)}")
    for eps in grid:
        shift, recover, inverse = (table.get((eps, m)) for m in ("shift", "recover", "inverse"))
        if noise == "depolarizing" and shift is not None and \
                not abs(shift - 1.0 / (1.0 - eps) ** 2) <= SWEEP_SHIFT_TOL:
            raise CheckFailed(f"eps={eps} depolarizing shift {shift!r} != 1/(1-eps)^2")
        chain = [v for v in (shift, recover, inverse) if v is not None]
        if any(a > b + SWEEP_ORDER_TOL for a, b in zip(chain, chain[1:])):
            raise CheckFailed(f"eps={eps} violates shift <= recover <= inverse: {chain}")


# ---------------------------------------------------------------------------
# Fermi-Hubbard reference: three sites, Jordan-Wigner with site-major modes,
# spin up before spin down, Gaussian on-site potentials (the demo model).

_HUBBARD = dict(sites=3, tunneling=2.0, repulsion=3.0,
                lam={"up": 3.0, "down": 0.1}, m={"up": 3.0, "down": 3.0},
                sigma={"up": 1.0, "down": 1.0})


def _annihilators(n: int) -> list[np.ndarray]:
    z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for p in range(n):
        factors = [z] * p + [lower] + [np.eye(2)] * (n - p - 1)
        out = np.array([[1.0]])
        for fac in factors:
            out = np.kron(out, fac)
        ops.append(out)
    return ops


def hubbard_ground_vector() -> np.ndarray:
    model = _HUBBARD
    n = 2 * model["sites"]
    a = _annihilators(n)
    num = [x.T @ x for x in a]
    mode = {(site, spin): 2 * (site - 1) + (spin == "down")
            for site in range(1, model["sites"] + 1) for spin in ("up", "down")}
    h = np.zeros((2 ** n, 2 ** n))
    for site in range(1, model["sites"] + 1):
        for spin in ("up", "down"):
            p = mode[site, spin]
            if site < model["sites"]:
                q = mode[site + 1, spin]
                h -= model["tunneling"] * (a[p].T @ a[q] + a[q].T @ a[p])
            v = -model["lam"][spin] * math.exp(
                -0.5 * (site - model["m"][spin]) ** 2 / model["sigma"][spin] ** 2)
            h += v * num[p]
        h += model["repulsion"] * num[mode[site, "up"]] @ num[mode[site, "down"]]
    _, vecs = np.linalg.eigh(h)
    return vecs[:, 0]


def reduced_purity(psi: np.ndarray, keep: list[int], n: int = 6) -> float:
    amp = np.moveaxis(psi.reshape((2,) * n), keep, list(range(len(keep))))
    amp = amp.reshape(2 ** len(keep), -1)
    rho = amp @ amp.conj().T
    return float(np.real(np.trace(rho @ rho)))
