"""Named invariant suites behind the ``verify`` CLI command.

Each check returns (name, passed, detail).  The protocols suite gates every
closed-form retriever, and the sdp suite every spectral k = 2 optimum, on one
exact number: ``protocols.contract_residual``, the norm of the copy-permutation
average of the contract's residual operator, which bounds the contract error of
every state.  The other checks cover H_k up to k = 5, the Q-matrix condition up
to k = 100, complete positivity of the recursion, the Choi link the inverse
program compiles, strong duality of the inverse program (each ``gmin`` primal
against its solve's dual objective), the closed form ``protocols.inverse_overhead``
that ``overhead-sweep`` prints against each ``gmin`` solve, and the Hubbard model.
The suites are a quick health gate over product code, cheaper than the acceptance
tests.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, amplitude_damping, depolarizing, is_invertible
from .moments import cycle_traces, moment_observable
from .operators import partial_trace, random_density_matrix, tensor_product
from .protocols import (ad_second_moment, contract_residual, de_kth_moment, de_second_moment,
                        de_second_moment_nqubit, inverse_overhead, optimal_shift, q_matrices)
from .sdp.problem import HermitianBasis
from .sdp.programs import build_gmin, noise_link_adjoint
from .sdp.solver import solve
from .hubbard import annihilation_operator, build_hamiltonian, ground_state, demo_model

EPS_GRID = (0.05, 0.1, 0.2, 0.3)


def checks_moments() -> list[tuple[str, bool, str]]:
    out = []
    worst = 0.0
    for k in range(2, 6):
        h = moment_observable(k, 2)
        for seed in range(100 if k == 2 else 20):
            rho = random_density_matrix(2, seed)
            joint = rho
            for _ in range(k - 1):
                joint = tensor_product(joint, rho)
            truth = np.trace(np.linalg.matrix_power(rho.entries, k)).real
            t = cycle_traces(joint.entries, k, 2)  # tr[S_k^j X]; S_k^dag = S_k^(k-1)
            for value in (t[1], t[-1], np.trace(h.entries @ joint.entries)):
                worst = max(worst, abs(value.real - truth))
    out.append(("cyclic_trace_identity_k2_5", worst < 1e-10, f"max err {worst:.2e}"))

    bound_ok = True
    for k in range(2, 6):
        w = np.linalg.eigvalsh(moment_observable(k, 2).entries)
        bound_ok &= bool(w.min() >= -1 - 1e-12 and w.max() <= 1 + 1e-12)
    out.append(("observable_eigenvalue_bound", bound_ok, "H spectrum within [-1, 1]"))
    return out


def checks_sdp() -> list[tuple[str, bool, str]]:
    out = []
    gap_worst = closed_worst = residual_worst = 0.0
    ordering_ok = True
    detail = []
    for name, model, mk in (("DE", "depolarizing", lambda e: depolarizing(e, 2)),
                            ("AD", "amplitude-damping", amplitude_damping)):
        for eps in EPS_GRID:
            noise = mk(eps)
            shift = optimal_shift(noise, 2)
            residual_worst = max(residual_worst, contract_residual(shift, noise))
            g1, gmin = solve(build_gmin(noise)), inverse_overhead(model, eps, 1)
            gap_worst = max(gap_worst, abs(g1.objective_value - g1.diagnostics["dual_objective"]))
            closed_worst = max(closed_worst, abs(g1.objective_value - gmin))
            ordering_ok &= shift.f <= gmin ** 2
            detail.append(f"{name}{eps}: f={shift.f:.6f}")
    out.append(("strong_duality_gap_gmin", gap_worst < 1e-4, f"max gap {gap_worst:.2e}"))
    out.append(("gmin_closed_form", closed_worst <= 1e-6, f"max err {closed_worst:.2e}"))
    out.append(("shift_below_inverse_k2", ordering_ok, "; ".join(detail[:4])))
    out.append(("sdp_protocol_contract_k2", residual_worst <= 1e-12,
                f"max residual {residual_worst:.2e}"))

    noise = depolarizing(1.0, 2)
    sol = solve(build_gmin(noise))
    out.append(("noninvertible_infeasible",
                optimal_shift(noise, 2) is None and sol.status == "infeasible",
                f"no spectral optimum; gmin status {sol.status}"))
    out.append(("invertibility_rank_test",
                (not is_invertible(noise)) and is_invertible(depolarizing(0.5, 2)),
                "rank(M_N) signature"))
    return out


def checks_protocols() -> list[tuple[str, bool, str]]:
    out = []
    worst = 0.0
    for k in range(3, 101):
        q, qt = q_matrices(k)
        om = np.exp(2j * np.pi / k)
        pows = om ** np.arange(k)
        for mat, sign in ((q, 1.0), (qt, -1.0)):
            if mat.min() < -1e-12:
                worst = np.inf
            res = np.abs(mat @ pows - sign * np.exp(2j * np.pi * np.arange(k - 1) / (k - 1)))
            worst = max(worst, float(res.max()))
    out.append(("q_condition_k3_100", worst < 1e-9, f"max residual {worst:.2e}"))

    worst = 0.0
    for eps in (0.1, 0.3):
        cases = [(de_second_moment(eps), depolarizing(eps, 2)),
                 (ad_second_moment(eps), amplitude_damping(eps)),
                 (de_second_moment_nqubit(eps, 2), depolarizing(eps, 4))]
        cases += [(de_kth_moment(eps, k, d), depolarizing(eps, d))
                  for k in range(3, 6) for d in (2, 3, 4) if d ** k <= 256]
        for proto, noise in cases:
            worst = max(worst, contract_residual(proto, noise))
    out.append(("contract_certificate", worst <= 1e-12, f"max residual {worst:.2e}"))

    min_eig = min(de_kth_moment(0.2, k, 2).realization.choi().min_eigenvalue() for k in (3, 4))
    out.append(("recursive_retriever_cp_k3_4", min_eig > -1e-8,
                f"choi min eig {min_eig:.2e}"))

    # tr[L^dag(Y) J_B] = tr[Y J_(B o A)] over a basis of Y, L the link with the noise A
    after, before = depolarizing(0.2, 2), amplitude_damping(0.3)
    y = HermitianBasis(4).basis_batch(0, 16)
    j_kraus = Channel(2, 2, kraus=[a @ b for a in after.kraus for b in before.kraus]).choi()
    link = np.einsum("nij,ji->n", noise_link_adjoint(before)(y), after.choi().entries)
    err = float(np.max(np.abs(link - np.einsum("nij,ji->n", y, j_kraus.entries))))
    out.append(("choi_link_product_convention", err < 1e-10, f"err {err:.2e}"))
    return out


def checks_hubbard() -> list[tuple[str, bool, str]]:
    out = []
    n = 6
    ops = [annihilation_operator(p, n).entries for p in range(n)]
    worst = 0.0
    for p in range(n):
        for q in range(n):
            anti = ops[p] @ ops[q].conj().T + ops[q].conj().T @ ops[p]
            ref = np.eye(2 ** n) if p == q else 0.0
            worst = max(worst, float(np.max(np.abs(anti - ref))))
    out.append(("canonical_anticommutation", worst < 1e-12, f"max err {worst:.2e}"))

    h = build_hamiltonian(demo_model())
    g = ground_state(h)
    variational = True
    for seed in range(20):
        psi = random_density_matrix(64, seed, rank=1)
        e = float(np.trace(h.entries @ psi.entries).real)
        if e < g.energy - 1e-9:
            variational = False
    out.append(("ground_energy_variational", variational, f"E0 = {g.energy:.6f}"))

    rho_a = partial_trace(g.state, [0, 1])
    purity = float(np.trace(rho_a.entries @ rho_a.entries).real)
    out.append(("reduced_purity_in_range", 0.0 < purity <= 1.0, f"tr[rho_A^2] = {purity:.6f}"))
    return out


SUITES = {
    "moments": checks_moments,
    "sdp": checks_sdp,
    "protocols": checks_protocols,
    "hubbard": checks_hubbard,
}


def run_suite(suite: str) -> list[tuple[str, bool, str]]:
    if suite == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite]()
