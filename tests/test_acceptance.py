"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from momentshift.channels import (
    amplitude_damping,
    depolarizing,
    is_invertible,
    tensor_power,
)
from momentshift.estimator import derive_seed, plan_shots, run_protocol
from momentshift.hubbard import fig4_experiment
from momentshift.moments import moment_observable, permutation_eigenprojectors
from momentshift.operators import Operator, PAULI_X, PAULI_Y, PAULI_Z, random_density_matrix
from momentshift.protocols import (
    ad_second_moment,
    de_kth_moment,
    de_second_moment,
    de_second_moment_nqubit,
    exact_expectation,
    q_matrices,
)
from momentshift.sdp.programs import build_fmin, build_gmin, gmin_power
from momentshift.sdp.solver import solve
from momentshift.estimator import renyi_entropy
from conftest import true_moment
from oracles import DualCertificate, check_certificate, cyclic_permutation, transfer_maps

EPS_GRID = (0.05, 0.1, 0.2, 0.3)

MODELS = {
    "DE": lambda eps: depolarizing(eps, 2),
    "AD": amplitude_damping,
}


def _report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fmin_k2_solutions():
    out = {}
    for name, mk in MODELS.items():
        for eps in EPS_GRID:
            t0 = time.time()
            sol = solve(build_fmin(mk(eps), 2))
            out[(name, eps)] = (sol, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def gmin_values():
    """Single-copy and two-copy inverse overheads on the grid."""
    single, double = {}, {}
    for name, mk in MODELS.items():
        for eps in EPS_GRID:
            single[(name, eps)] = solve(build_gmin(mk(eps))).objective_value
            double[(name, eps)] = solve(
                build_gmin(tensor_power(mk(eps), 2))).objective_value
    return single, double


@pytest.fixture(scope="module")
def fmin_ad_k3():
    return {eps: solve(build_fmin(amplitude_damping(eps), 3)).objective_value
            for eps in EPS_GRID}


@pytest.fixture(scope="module")
def fig4_result():
    return fig4_experiment(0.1, shots=8192, trials=100, seed=20240501)


def test_criterion_1_closed_form_overheads(fmin_k2_solutions):
    worst = 0.0
    slowest = 0.0
    for (name, eps), (sol, wall) in fmin_k2_solutions.items():
        assert sol.status == "optimal", (name, eps)
        worst = max(worst, abs(sol.scalar("f") - 1 / (1 - eps) ** 2))
        slowest = max(slowest, wall)
    _report(1, worst <= 1e-4 and slowest < 10.0,
            f"max |f - 1/(1-eps)^2| = {worst:.2e}, slowest solve {slowest:.2f}s")


def test_criterion_2_shift_distances(fmin_k2_solutions):
    worst = 0.0
    for (name, eps), (sol, _) in fmin_k2_solutions.items():
        s = (1 - eps) ** 2
        expect = (1 - s) / (2 * s) if name == "DE" else -eps ** 2 / s
        worst = max(worst, abs(sol.scalar("t") - expect))
    _report(2, worst <= 1e-4, f"max shift-distance error {worst:.2e}")


def test_criterion_3_qpd_overheads(gmin_values):
    single, double = gmin_values
    worst = 0.0
    worst_mult = 0.0
    for (name, eps), g2 in double.items():
        expect = ((1 + eps / 2) ** 2 / (1 - eps) ** 2 if name == "DE"
                  else (1 + eps) ** 2 / (1 - eps) ** 2)
        worst = max(worst, abs(g2 - expect))
        worst_mult = max(worst_mult, abs(g2 - gmin_power(single[(name, eps)], 2)))
    _report(3, worst <= 1e-4 and worst_mult <= 1e-3,
            f"two-copy value error {worst:.2e}, multiplicativity gap {worst_mult:.2e}")


def test_criterion_4_dual_certificates():
    worst = 0.0
    all_feasible = True
    xyz = (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
           + np.kron(PAULI_Z, PAULI_Z))
    for eps in EPS_GRID:
        cert = DualCertificate(M=Operator(np.eye(4) / 4 - xyz / 12),
                               K=Operator(-xyz / (6 * (1 - eps) ** 2)))
        feasible, obj = check_certificate(cert, depolarizing(eps, 2), 2)
        all_feasible &= feasible
        worst = max(worst, abs(obj - 1 / (1 - eps) ** 2))

        psim = np.array([0, 1, -1, 0]) / np.sqrt(2)
        m = 0.5 * np.outer(psim, psim)
        m[3, 3] += 0.5
        k = np.zeros((4, 4))
        k[0, 0], k[3, 3] = -eps, -1.0
        k[1, 1] = k[2, 2] = (1 + eps) / 2
        k[1, 2] = k[2, 1] = (eps - 1) / 2
        cert = DualCertificate(M=Operator(m),
                               K=Operator(k / (2 * (1 - eps) ** 2)))
        feasible, obj = check_certificate(cert, amplitude_damping(eps), 2)
        all_feasible &= feasible
        worst = max(worst, abs(obj - 1 / (1 - eps) ** 2))
    _report(4, all_feasible and worst <= 1e-9,
            f"all feasible, max objective error {worst:.2e}")


def test_criterion_5_overhead_ordering(fmin_k2_solutions, gmin_values, fmin_ad_k3):
    single, _ = gmin_values
    ok = True
    detail = []
    for name in MODELS:
        for eps in EPS_GRID:
            f2 = fmin_k2_solutions[(name, eps)][0].objective_value
            g2 = gmin_power(single[(name, eps)], 2)
            ok &= f2 <= g2 + 1e-6
            f3 = (1 / (1 - eps) ** 3 if name == "DE" else fmin_ad_k3[eps])
            g3 = gmin_power(single[(name, eps)], 3)
            ok &= f3 <= g3 + 1e-6
            if eps == 0.2:
                detail.append(f"{name}: f3={f3:.4f} <= g3={g3:.4f}")
    _report(5, ok, "f <= g for k=2,3 on the grid (" + "; ".join(detail) + ")")


def test_criterion_6_exact_recovery_contract():
    t0 = time.time()
    cases = []
    for eps in (0.1, 0.3):
        cases.append((de_second_moment(eps), depolarizing(eps, 2), 2))
        cases.append((ad_second_moment(eps), amplitude_damping(eps), 2))
        cases.append((de_second_moment_nqubit(eps, 1), depolarizing(eps, 2), 2))
        cases.append((de_second_moment_nqubit(eps, 2), depolarizing(eps, 4), 2))
        for k in (3, 4, 5):
            cases.append((de_kth_moment(eps, k, 2), depolarizing(eps, 2), k))
    worst = 0.0
    for proto, noise, k in cases:
        for seed in range(100):
            rho = random_density_matrix(proto.copy_dim, seed)
            z = exact_expectation(proto, rho, noise)
            worst = max(worst, abs(proto.f * z - proto.t - true_moment(rho, k)))
    wall = time.time() - t0
    _report(6, worst <= 1e-9 and wall < 60.0,
            f"max contract violation {worst:.2e} over {100 * len(cases)} states "
            f"({wall:.1f}s)")


def test_criterion_7_transfer_machinery():
    q_worst = 0.0
    for k in range(3, 101):
        q, qt = q_matrices(k)
        om = np.exp(2j * np.pi / k) ** np.arange(k)
        tgt = np.exp(2j * np.pi / (k - 1)) ** np.arange(k - 1)
        if min(q.min(), qt.min()) < -1e-12:
            q_worst = np.inf
        q_worst = max(q_worst, float(np.abs(q @ om - tgt).max()),
                      float(np.abs(qt @ om + tgt).max()))
    t_worst = 0.0
    for k in range(3, 6):
        tm = transfer_maps(k, 2)
        hk = moment_observable(k, 2).entries
        tgt = np.kron(moment_observable(k - 1, 2).entries, np.eye(2) / 2)
        t_worst = max(t_worst, float(np.abs(tm.forward.apply(hk) - tgt).max()),
                      float(np.abs(tm.forward_neg.apply(hk) + tgt).max()))
    s_worst = 0.0
    for k in range(2, 6):
        spec = permutation_eigenprojectors(k, 2)
        om = np.exp(2j * np.pi / k)
        rec = sum(om ** (-m) * spec.projectors[m].entries for m in range(k))
        s_worst = max(s_worst, float(np.abs(rec - cyclic_permutation(k, 2).entries).max()))
    _report(7, q_worst < 1e-9 and t_worst < 1e-9 and s_worst < 1e-12,
            f"Q residual {q_worst:.2e} (k<=100), transfer {t_worst:.2e} (k<=5), "
            f"spectral {s_worst:.2e} (k<=5)")


def test_criterion_8_noninvertibility_signature():
    noise = depolarizing(1.0, 2)
    rank_flag = not is_invertible(noise)
    sol = solve(build_fmin(noise, 2))
    _report(8, rank_flag and sol.status == "infeasible",
            f"rank test non-invertible, solver status {sol.status}")


def test_criterion_9_statistical_validity():
    t0 = time.time()
    delta, fail_prob = 0.05, 0.05
    proto = de_second_moment(0.1)
    noise = depolarizing(0.1, 2)
    rho = Operator(np.eye(2) / 2)
    shots = plan_shots(delta, fail_prob, proto.f)
    hits = 0
    for r in range(200):
        run = run_protocol(proto, rho, noise, shots, seed=derive_seed(7, r))
        hits += abs(run.estimate - 0.5) <= delta
    wall = time.time() - t0
    _report(9, hits >= 183 and wall < 300.0,
            f"{hits}/200 runs within delta at {shots} planned shots ({wall:.1f}s)")


def test_criterion_10_overhead_sweep_shape(fmin_ad_k3, gmin_values):
    single, _ = gmin_values
    eps_grid = sorted(fmin_ad_k3)
    shift = [1.0] + [fmin_ad_k3[e] for e in eps_grid]
    inverse = [1.0] + [gmin_power(single[("AD", e)], 3) for e in eps_grid]
    monotone = all(b > a - 1e-7 for a, b in zip(shift, shift[1:])) and \
        all(b > a - 1e-7 for a, b in zip(inverse, inverse[1:]))
    separated = all(s < i for s, i in zip(shift[1:], inverse[1:]))
    _report(10, monotone and separated,
            f"shift {[f'{x:.3f}' for x in shift]} below inverse "
            f"{[f'{x:.3f}' for x in inverse]}, both increasing")


def test_criterion_11_hubbard_demo(fig4_result):
    res = fig4_result
    se_raw, se_mit = res.std_errors()
    raw_ok = abs(res.raw_mean - res.biased_value()) <= 3 * se_raw
    mit_ok = abs(res.mitigated_mean - res.exact_purity) <= 3 * se_mit
    sep = abs(res.mitigated_mean - res.raw_mean) / min(se_raw, se_mit)
    _report(11, raw_ok and mit_ok and sep >= 5.0,
            f"raw {res.raw_mean:.5f} vs biased {res.biased_value():.5f} "
            f"(se {se_raw:.5f}), mitigated {res.mitigated_mean:.5f} vs exact "
            f"{res.exact_purity:.5f} (se {se_mit:.5f}), separation {sep:.1f} se")


def test_criterion_12_renyi_postprocessing(fig4_result):
    res = fig4_result
    _, se_mit = res.std_errors()
    delta = 3 * se_mit
    h2_est = renyi_entropy(res.mitigated_mean, 2)
    h2_true = -np.log(res.exact_purity)
    tol = abs(delta / res.exact_purity)
    _report(12, abs(h2_est - h2_true) <= tol,
            f"|H2 - (-ln purity)| = {abs(h2_est - h2_true):.5f} <= {tol:.5f}")
