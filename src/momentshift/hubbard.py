"""Three-site Fermi-Hubbard chain: exact ground state and the purity
estimation experiment under depolarizing noise.

Fermionic modes map to qubits by the Jordan-Wigner transformation with
site-major ordering, spin-up before spin-down within each site:
mode(site j, spin s) = 2*(j-1) + (0 if s is up else 1).  This ordering
defines which qubits form a subsystem; the default subsystem for the purity
experiment is site 1, i.e. qubits (0, 1).

The experiment treats the reduced state's noise as a single global
depolarizing channel on the n-qubit subsystem (dimension 2^n), matching the
retriever construction used to mitigate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import exp

import numpy as np

from .channels import depolarizing
from .estimator import _check_shots, _distributions, _run_means, derive_seed
from .operators import I2, PAULI_Z, Operator, check_memory, partial_trace
from .protocols import de_kth_moment, identity_protocol

_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
DEGENERACY_GAP_TOL = 1e-10  # a smaller spectral gap marks the ground state degenerate


@dataclass(frozen=True)
class HubbardModel:
    sites: int = 3
    tunneling: float = 2.0
    repulsion: float = 3.0
    lambda_up: float = 3.0
    lambda_down: float = 0.1
    m_up: float = 3.0
    m_down: float = 3.0
    sigma_up: float = 1.0
    sigma_down: float = 1.0

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("need at least one site")
        if self.sigma_up <= 0 or self.sigma_down <= 0:
            raise ValueError("Gaussian widths must be positive")

    @property
    def n_qubits(self) -> int:
        return 2 * self.sites

    def local_potential(self, site: int, spin: str) -> float:
        """Gaussian on-site energy for 1-indexed site and spin 'up'/'down'."""
        lam, m, sig = ((self.lambda_up, self.m_up, self.sigma_up) if spin == "up"
                       else (self.lambda_down, self.m_down, self.sigma_down))
        return -lam * exp(-0.5 * (site - m) ** 2 / sig ** 2)


def demo_model() -> HubbardModel:
    return HubbardModel()


def mode_index(site: int, spin: str) -> int:
    return 2 * (site - 1) + (0 if spin == "up" else 1)


def annihilation_operator(mode: int, n_modes: int) -> Operator:
    """Jordan-Wigner a_p = Z^(x p) (x) |0><1| (x) I^(x rest)."""
    ops = [PAULI_Z] * mode + [_SIGMA_MINUS] + [I2] * (n_modes - mode - 1)
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return Operator(out, (2,) * n_modes)


def build_hamiltonian(model: HubbardModel) -> Operator:
    n = model.n_qubits
    dim = 2 ** n
    # n annihilators and their adjoints, H and up to three products at a time
    check_memory((2 * n + 4) * 16 * dim * dim, f"Hamiltonian on {n} qubits")
    a = [annihilation_operator(p, n).entries for p in range(n)]
    adag = [m.conj().T for m in a]
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(1, model.sites):
        for spin in ("up", "down"):
            p, q = mode_index(i, spin), mode_index(i + 1, spin)
            h -= model.tunneling * (adag[p] @ a[q] + adag[q] @ a[p])
    for i in range(1, model.sites + 1):
        n_up = adag[mode_index(i, "up")] @ a[mode_index(i, "up")]
        n_dn = adag[mode_index(i, "down")] @ a[mode_index(i, "down")]
        h += model.repulsion * (n_up @ n_dn)
        h += model.local_potential(i, "up") * n_up
        h += model.local_potential(i, "down") * n_dn
    return Operator(h, (2,) * n)


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: Operator           # pure density matrix
    degeneracy_gap: float
    degenerate: bool


def ground_state(h: Operator) -> GroundStateResult:
    if not h.is_hermitian(1e-9):
        raise ValueError("Hamiltonian must be Hermitian")
    vals, vecs = np.linalg.eigh(h.entries)
    psi = vecs[:, 0]
    gap = float(vals[1] - vals[0]) if vals.size > 1 else np.inf
    return GroundStateResult(energy=float(vals[0]),
                             state=Operator(np.outer(psi, psi.conj()), h.subsystem_dims),
                             degeneracy_gap=gap,
                             degenerate=bool(gap < DEGENERACY_GAP_TOL))


@lru_cache(maxsize=None)
def model_ground_state(model: HubbardModel) -> GroundStateResult:
    """Ground state of the model's Hamiltonian, computed on the first call per model."""
    return ground_state(build_hamiltonian(model))


def reduced_state(g: GroundStateResult, subsystem: list[int]) -> Operator:
    return partial_trace(g.state, subsystem)


@lru_cache(maxsize=None)
def model_reduced_state(model: HubbardModel,
                        subsystem: tuple[int, ...]) -> tuple[Operator, float]:
    """The model's ground state reduced to ``subsystem``, and its purity tr[rho_A^2],
    computed on the first call per (model, subsystem); the state is read-only."""
    rho_a = reduced_state(model_ground_state(model), subsystem)
    return rho_a, float(np.trace(rho_a.entries @ rho_a.entries).real)


@dataclass
class Fig4Result:
    exact_purity: float
    eps: float
    subsystem: tuple[int, ...]
    shots: int
    trials: int
    seed: int
    raw_estimates: np.ndarray
    mitigated_estimates: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def raw_mean(self) -> float:
        return float(self.raw_estimates.mean())

    @property
    def mitigated_mean(self) -> float:
        return float(self.mitigated_estimates.mean())

    def std_errors(self) -> tuple[float, float]:
        t = self.trials
        return (float(self.raw_estimates.std(ddof=1) / np.sqrt(t)),
                float(self.mitigated_estimates.std(ddof=1) / np.sqrt(t)))

    def biased_value(self) -> float:
        """Analytic mean of the unmitigated estimator, tr[(noisy rho_A)^2]."""
        d = 2 ** len(self.subsystem)
        e = self.eps
        p = self.exact_purity
        return (1 - e) ** 2 * p + 2 * e * (1 - e) / d + e ** 2 / d

    def records(self) -> list[tuple[int, str, float]]:
        out = []
        for i, v in enumerate(self.raw_estimates):
            out.append((i, "raw", float(v)))
        for i, v in enumerate(self.mitigated_estimates):
            out.append((i, "mitigated", float(v)))
        return out

    def summary(self) -> dict:
        se_raw, se_mit = self.std_errors()
        return {
            "exact": self.exact_purity,
            "biased_value": self.biased_value(),
            "means": {"raw": self.raw_mean, "mitigated": self.mitigated_mean},
            "std_errors": {"raw": se_raw, "mitigated": se_mit},
            "params": self.params,
        }


def fig4_experiment(eps: float, subsystem: list[int] | None = None,
                    shots: int = 4096, trials: int = 60,
                    seed: int = 0, model: HubbardModel | None = None) -> Fig4Result:
    """Mitigated vs unmitigated purity estimation on the model's ground state.

    Per trial, both estimators consume the same number of shots of the
    depolarized reduced state: the raw one measures the moment observable
    directly, the mitigated one first applies the n-qubit depolarizing
    retriever and rescales/shifts.
    """
    _check_shots(shots)
    if trials < 2:
        raise ValueError(f"trials must be at least 2 for a standard error, got {trials}")
    # per trial, its seeds and their scrambles, its outcome counts, their weighted values
    # and its estimate (64 bytes, from tracemalloc)
    check_memory(64 * trials, f"{trials} trials of {shots} shots")
    model = model or demo_model()
    subsystem = list(subsystem) if subsystem is not None else [0, 1]
    n = len(subsystem)
    g = model_ground_state(model)
    rho_a, exact = model_reduced_state(model, tuple(subsystem))
    d = 2 ** n
    noise = depolarizing(eps, d)
    protocols = (identity_protocol(2, d), de_kth_moment(eps, 2, d))  # raw, mitigated

    # The outcome distributions are fixed; trials differ only in their seeds.
    seeds = derive_seed(seed, np.arange(trials)[:, None], np.arange(2))
    laws = _distributions(protocols, rho_a, noise)
    raw, mit = (p.f * _run_means(*law, shots, s) - p.t
                for p, law, s in zip(protocols, laws, seeds.T))
    return Fig4Result(
        exact_purity=exact, eps=eps, subsystem=tuple(subsystem),
        shots=shots, trials=trials, seed=seed,
        raw_estimates=raw, mitigated_estimates=mit,
        params={"model": {"sites": model.sites, "J": model.tunneling,
                          "U": model.repulsion,
                          "lambda": [model.lambda_up, model.lambda_down],
                          "m": [model.m_up, model.m_down],
                          "sigma": [model.sigma_up, model.sigma_down]},
                "eps": eps, "shots": shots, "trials": trials, "seed": seed,
                "ground_energy": g.energy, "degenerate": g.degenerate},
    )
