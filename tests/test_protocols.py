import base64
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import (Channel, amplitude_damping, apply_copywise, channel_matrix,
                                  depolarizing, is_invertible, noisy_copies)
from momentshift.moments import moment_observable, permutation_eigenprojectors
from momentshift.estimator import _h_spectrum
from momentshift.operators import Operator, random_density_matrix
from momentshift.protocols import (
    CycleMap,
    MeasurePrepare,
    RetrievalProtocol,
    ad_second_moment,
    contract_residual,
    de_kth_moment,
    de_second_moment,
    de_second_moment_nqubit,
    exact_expectation,
    _chain,
    _gram,
    _recursion_matrix,
    _shift_weights,
    identity_protocol,
    is_trace_preserving,
    load_protocol,
    optimal_shift,
    output_traces,
    protocol_from_json,
    protocol_to_json,
    q_matrices,
    recover_overhead,
    save_protocol,
)
from momentshift.sdp.programs import build_fmin, build_info_recover
from momentshift.sdp.solver import solve
from conftest import true_moment
from oracles import (DualCertificate, check_certificate, cyclic_permutation,
                     dense_exact_expectation, dense_is_trace_preserving, dense_output_traces,
                     from_sdp_solution, identity_channel, recovery_map,
                     recursion_matrix_per_order, transfer_maps, weyl_depolarizing)


class TestTwirlProtocol:
    def test_unitaries_exactly_unitary(self):
        mu = de_second_moment(0.1).realization
        assert isinstance(mu, Channel)
        assert len(mu.kraus) == 12
        # Kraus operators sqrt(p_j) U_j with p_j = 1/12
        probabilities = [np.trace(e.conj().T @ e).real / 4 for e in mu.kraus]
        assert_allclose(probabilities, np.full(12, 1 / 12))
        for u in (np.sqrt(12) * e for e in mu.kraus):
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_choi_closed_form(self):
        from momentshift.operators import PAULI_X, PAULI_Y, PAULI_Z
        mu = de_second_moment(0.2).realization
        xyz = (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
               + np.kron(PAULI_Z, PAULI_Z))
        closed = np.kron(np.eye(4), np.eye(4)) / 4 + np.kron(xyz, xyz) / 12
        assert np.max(np.abs(mu.choi().entries - closed)) < 1e-12

    def test_eps_zero_is_twirl_preserving(self):
        p = de_second_moment(0.0)
        assert p.f == 1.0 and p.t == 0.0
        rho = random_density_matrix(2, 3)
        z = exact_expectation(p, rho, depolarizing(0.0, 2))
        assert abs(z - true_moment(rho, 2)) < 1e-12

    def test_scalar_values_at_01(self):
        p = de_second_moment(0.1)
        assert abs(p.f - 1.234568) < 1e-6
        assert abs(p.t - 0.117284) < 1e-6

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
    def test_defining_contract(self, eps):
        p = de_second_moment(eps)
        noise = depolarizing(eps, 2)
        for seed in range(20):
            rho = random_density_matrix(2, seed)
            z = exact_expectation(p, rho, noise)
            assert abs(p.f * z - p.t - true_moment(rho, 2)) < 1e-12

    def test_rejects_eps_one(self):
        with pytest.raises(ValueError):
            de_second_moment(1.0)


class TestAmplitudeDampingProtocol:
    def test_outcome_values_order(self):
        p = ad_second_moment(0.2)
        mb = p.realization
        assert isinstance(mb, MeasurePrepare)
        assert mb.values == (0.6, 0.6, -1.0, 1.0)
        # basis order |00>, |Psi+>, |Psi->, |11>; effects are |b><b|
        assert_allclose(mb.effects[0], np.diag([1, 0, 0, 0]))
        assert_allclose(mb.effects[3], np.diag([0, 0, 0, 1]))
        assert_allclose(mb.effects[1][1, 2], mb.effects[1][1, 1])
        assert_allclose(mb.effects[2][1, 2], -mb.effects[2][1, 1])

    def test_outcome_values_are_state_expectations(self):
        p = ad_second_moment(0.35)
        h = moment_observable(2, 2).entries
        for sigma, val in zip(p.realization.outputs,
                              p.realization.values):
            assert abs(np.trace(h @ sigma).real - val) < 1e-12
            assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12
            assert abs(np.trace(sigma) - 1) < 1e-12

    def test_values_need_complete_projective_effects(self):
        mp = ad_second_moment(0.2).realization
        with pytest.raises(ValueError):
            MeasurePrepare(mp.effects[:3], mp.outputs[:3], mp.values[:3])

    def test_scalars(self):
        p = ad_second_moment(0.2)
        assert abs(p.f - 1.5625) < 1e-12
        assert abs(p.t + 0.0625) < 1e-12

    def test_eps_zero(self):
        p = ad_second_moment(0.0)
        assert p.realization.values == (1.0, 1.0, -1.0, 1.0)
        rho = random_density_matrix(2, 9, rank=1)
        z = exact_expectation(p, rho, amplitude_damping(0.0))
        assert abs(p.f * z - p.t - 1.0) < 1e-12

    @pytest.mark.parametrize("eps", [0.2, 0.4])
    def test_defining_contract(self, eps):
        p = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        for seed in range(20):
            rho = random_density_matrix(2, seed)
            z = exact_expectation(p, rho, noise)
            assert abs(p.f * z - p.t - true_moment(rho, 2)) < 1e-12

    def test_choi_trace_preserving_cp(self):
        j = ad_second_moment(0.3).realization.choi()
        assert j.min_eigenvalue() > -1e-12
        from momentshift.operators import partial_trace
        marg = partial_trace(Operator(j.entries, (4, 4)), [0])
        assert_allclose(marg.entries, np.eye(4), atol=1e-12)

    def test_choi_closed_form(self):
        # |00><00| x s_a + |Psi+><Psi+| x s_a + |Psi-><Psi-| x s_3 + |11><11| x s_4
        eps = 0.25
        h = moment_observable(2, 2).entries
        eye4 = np.eye(4)
        b00 = np.array([1, 0, 0, 0.0])
        b11 = np.array([0, 0, 0, 1.0])
        pp = np.array([0, 1, 1, 0]) / np.sqrt(2)
        pm = np.array([0, 1, -1, 0]) / np.sqrt(2)
        sa = ((1 + 2 * eps) * eye4 + (1 - 4 * eps) * h) / 6
        jref = (np.kron(np.outer(b00, b00), sa) + np.kron(np.outer(pp, pp), sa)
                + np.kron(np.outer(pm, pm), (eye4 - h) / 2)
                + np.kron(np.outer(b11, b11), (eye4 + h) / 6))
        j = ad_second_moment(eps).realization.choi()
        assert np.max(np.abs(j.entries - jref)) < 1e-14


class TestNQubitProtocol:
    def test_n1_matches_twirl_choi(self):
        a = de_second_moment_nqubit(0.2, 1).realization.choi()
        b = de_second_moment(0.2).realization.choi()
        assert np.max(np.abs(a.entries - b.entries)) < 1e-12

    def test_shift_value_n2(self):
        p = de_second_moment_nqubit(0.1, 2)
        assert abs(p.t - 0.19 / (4 * 0.81)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_defining_contract(self, n):
        eps = 0.1
        d = 2 ** n
        p = de_second_moment_nqubit(eps, n)
        noise = depolarizing(eps, d)
        for seed in range(10):
            rho = random_density_matrix(d, seed)
            z = exact_expectation(p, rho, noise)
            assert abs(p.f * z - p.t - true_moment(rho, 2)) < 1e-10

    def test_defining_contract_n4(self):
        eps, d = 0.1, 16
        p = de_second_moment_nqubit(eps, 4)
        noise = depolarizing(eps, d)
        for seed in range(3):
            rho = random_density_matrix(d, seed)
            z = exact_expectation(p, rho, noise)
            assert abs(p.f * z - p.t - true_moment(rho, 2)) < 1e-10

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_k2_retriever_keeps_the_swap_test_weights(self, d):
        # C(X) and X have the same H_2 Born weights: the k = 2 depolarizing retriever is the
        # swap test on the two noisy copies, rescaled by f and shifted by t
        c = de_kth_moment(0.2, 2, d).realization
        projectors = permutation_eigenprojectors(2, d).projectors
        rng = np.random.default_rng(d)
        for _ in range(5):
            a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            x = a @ a.conj().T / np.trace(a @ a.conj().T).real
            y = c.apply(x)
            for pm in projectors:
                assert abs(np.trace(pm.entries @ (y - x))) <= 1e-13

    def test_cap(self):
        # nothing large is built at construction; the dense Choi matrix is refused
        with pytest.raises(ValueError):
            de_second_moment_nqubit(0.1, 7).realization.choi()


class TestQMatrices:
    def test_k3_exact(self):
        q, qt = q_matrices(3)
        assert_allclose(q, [[1, 0, 0], [0, 1, 1]], atol=1e-14)
        assert_allclose(qt, [[0, 1, 1], [1, 0, 0]], atol=1e-14)
        om = np.exp(2j * np.pi / 3)
        assert abs(om + om ** 2 - (-1)) < 1e-14

    @pytest.mark.parametrize("k", [4, 7, 10, 33, 100])
    def test_condition_residual(self, k):
        q, qt = q_matrices(k)
        om_k = np.exp(2j * np.pi / k)
        om_k1 = np.exp(2j * np.pi / (k - 1))
        for mat, sign in ((q, 1.0), (qt, -1.0)):
            assert mat.min() >= -1e-12
            assert mat.shape == (k - 1, k)
            for l in range(k - 1):
                lhs = sum(mat[l, m] * om_k ** m for m in range(k))
                assert abs(lhs - sign * om_k1 ** l) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_matrices(2)
        with pytest.raises(ValueError):
            q_matrices(101)


class TestTransferMaps:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_observable_transfer(self, k):
        tm = transfer_maps(k, 2)
        hk = moment_observable(k, 2).entries
        tgt = np.kron(moment_observable(k - 1, 2).entries, np.eye(2) / 2)
        assert np.max(np.abs(tm.forward.apply(hk) - tgt)) < 1e-9
        assert np.max(np.abs(tm.forward_neg.apply(hk) + tgt)) < 1e-9

    def test_maps_completely_positive(self):
        tm = transfer_maps(3, 2)
        assert tm.forward.choi().min_eigenvalue() > -1e-12
        assert tm.forward_neg.choi().min_eigenvalue() > -1e-12

    def test_adjoint_pairing(self):
        tm = transfer_maps(3, 2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = np.trace(b.conj().T @ tm.forward.apply(a))
        rhs = np.trace(tm.forward.adjoint_apply(b.conj().T) @ a)
        assert abs(lhs - rhs) < 1e-10

    def test_requires_k3(self):
        with pytest.raises(ValueError):
            transfer_maps(2, 2)


class TestRecoveryMaps:
    def test_k3_single_stage(self):
        r = recovery_map(3, 2, 2)
        h3 = moment_observable(3, 2).entries
        tgt = -np.kron(moment_observable(2, 2).entries, np.eye(2) / 2)
        assert np.max(np.abs(r.apply(h3) - tgt)) < 1e-10
        # the one stage is the sign-flipping transfer map
        x = random_density_matrix(8, 4).entries
        assert_allclose(r.apply(x), transfer_maps(3, 2).forward_neg.apply(x), atol=1e-14)

    @pytest.mark.parametrize("k,l", [(4, 2), (5, 2), (5, 3)])
    def test_composition_identity(self, k, l):
        r = recovery_map(k, l, 2)
        hk = moment_observable(k, 2).entries
        tgt = -np.kron(moment_observable(l, 2).entries,
                       np.eye(2 ** (k - l)) / 2 ** (k - l))
        assert np.max(np.abs(r.apply(hk) - tgt)) < 1e-10

    def test_choi_psd(self):
        assert recovery_map(4, 2, 2).choi().min_eigenvalue() > -1e-12

    def test_index_range(self):
        with pytest.raises(ValueError):
            recovery_map(3, 3, 2)


class TestRecursiveProtocol:
    def test_k2_reduces_to_pairwise(self):
        p2 = de_kth_moment(0.3, 2, 2)
        ref = de_second_moment(0.3)
        assert abs(p2.f - ref.f) < 1e-15
        assert abs(p2.t - ref.t) < 1e-15
        assert np.max(np.abs(p2.realization.choi().entries
                             - ref.realization.choi().entries)) < 1e-12

    def test_shift_distance_recursion_k3(self):
        # tr[(noisy rho)^3] expansion with tr[I] = d fixes the constant term
        eps, d = 0.2, 2
        f3 = 1 / (1 - eps) ** 3
        t2 = (1 - (1 - eps) ** 2) / (d * (1 - eps) ** 2)
        t3 = f3 * (eps ** 3 / d ** 2 + 3 * (1 - eps) * eps ** 2 / d ** 2
                   - 3 * (1 - eps) ** 2 * eps / d * t2)
        p = de_kth_moment(eps, 3, d)
        assert abs(p.t - t3) < 1e-14
        assert abs(p.f - f3) < 1e-14

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_defining_contract(self, k):
        eps = 0.2
        p = de_kth_moment(eps, k, 2)
        noise = depolarizing(eps, 2)
        for seed in range(8):
            rho = random_density_matrix(2, seed)
            z = exact_expectation(p, rho, noise)
            assert abs(p.f * z - p.t - true_moment(rho, k)) < 1e-9

    def test_overhead_normalization(self):
        for k in (2, 3, 5, 10):
            assert abs(de_kth_moment(0.15, k, 2).f * 0.85 ** k - 1) < 1e-12

    def test_completely_positive(self):
        for k in (3, 4):
            j = de_kth_moment(0.2, k, 2).realization.choi()
            assert j.min_eigenvalue() >= -1e-12

    def test_qudit_d3(self):
        eps = 0.15
        p = de_kth_moment(eps, 3, 3)
        noise = depolarizing(eps, 3)
        rho = random_density_matrix(3, 1)
        z = exact_expectation(p, rho, noise)
        assert abs(p.f * z - p.t - true_moment(rho, 3)) < 1e-9


# Dense oracle: the transfer maps from the S_k eigenprojectors as effect/output
# pairs, applied on the leading copies, and the recursion composed stage by stage.


@lru_cache(maxsize=None)
def _dense_transfer(k, d, negative):
    q = q_matrices(k)[1 if negative else 0]
    pk = permutation_eigenprojectors(k, d).projectors
    pk1 = permutation_eigenprojectors(k - 1, d).projectors
    effects = [pk[-m % k].entries / np.trace(pk[-m % k].entries).real for m in range(k)]
    outputs = [np.kron(sum(q[l, m] * pk1[-l % (k - 1)].entries for l in range(k - 1)),
                       np.eye(d) / d) for m in range(k)]
    return effects, outputs


def _dense_two_term(d):
    g = d * moment_observable(2, d).entries - np.eye(d * d)  # d SWAP - I
    return [np.eye(d * d), g], [np.eye(d * d) / d ** 2, g / (d ** 2 * (d ** 2 - 1))]


def _leading(pair, x, rest, adjoint):
    """(T (x) id_rest)(x) for T = sum_m tr[effects_m .] outputs_m, or its adjoint."""
    effects, outputs = pair[::-1] if adjoint else pair
    n = effects[0].shape[0]
    x4 = x.reshape(n, rest, n, rest)
    return sum(np.kron(f, np.einsum("ab,bcad->cd", e, x4)) for e, f in zip(effects, outputs))


def _dense_recovery(k, l, d, x, rest=1, adjoint=False):
    stages = [(_dense_transfer(k, d, True), 1)]
    stages += [(_dense_transfer(j, d, False), d ** (k - j)) for j in range(k - 1, l, -1)]
    for pair, r in (stages[::-1] if adjoint else stages):
        x = _leading(pair, x, r * rest, adjoint)
    return x


def _dense_recursion(eps, k, d, x, rest=1, adjoint=False):
    """C_k = id + sum_l c_l R_l^dag o (C_l (x) id), or its adjoint, on the leading k copies."""
    if k == 2:
        return _leading(_dense_two_term(d), x, rest, adjoint)
    out = x.astype(complex)
    for l in range(2, k):
        c = comb(k, l) * eps ** (k - l)
        if adjoint:
            z = _dense_recursion(eps, l, d, _dense_recovery(k, l, d, x, rest),
                                 rest * d ** (k - l), True)
        else:
            z = _dense_recovery(k, l, d, _dense_recursion(eps, l, d, x, rest * d ** (k - l)),
                                rest, True)
        out += c * z
    return out


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]


class TestDenseOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_transfer_and_recovery_maps(self, k, d):
        x, y = _random_pair(d ** k, k + 10 * d)
        tm = transfer_maps(k, d)
        for negative, r in ((False, tm.forward), (True, tm.forward_neg)):
            pair = _dense_transfer(k, d, negative)
            assert_allclose(r.apply(x), _leading(pair, x, 1, False), rtol=0, atol=1e-12)
            assert_allclose(r.adjoint_apply(y), _leading(pair, y, 1, True), rtol=0, atol=1e-12)
        for l in range(2, k):
            r = recovery_map(k, l, d)
            assert_allclose(r.apply(x), _dense_recovery(k, l, d, x), rtol=0, atol=1e-12)
            assert_allclose(r.adjoint_apply(y), _dense_recovery(k, l, d, y, adjoint=True),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_recursion(self, k, d):
        x, y = _random_pair(d ** k, k + 10 * d)
        r = de_kth_moment(0.15, k, d).realization
        assert_allclose(r.apply(x), _dense_recursion(0.15, k, d, x), rtol=0, atol=1e-12)
        assert_allclose(r.adjoint_apply(y), _dense_recursion(0.15, k, d, y, adjoint=True),
                        rtol=0, atol=1e-12)


class TestFromSdpSolution:
    def test_depolarizing_agrees_with_analytic(self):
        eps = 0.1
        sol = solve(build_fmin(depolarizing(eps, 2), 2))
        p = from_sdp_solution(sol, 2)
        ref = de_second_moment(eps)
        assert abs(p.f - ref.f) < 1e-4
        assert abs(p.t - ref.t) < 1e-4
        noise = depolarizing(eps, 2)
        for seed in range(5):
            rho = random_density_matrix(2, seed)
            za = exact_expectation(p, rho, noise)
            zb = exact_expectation(ref, rho, noise)
            assert abs(p.f * za - p.t - (ref.f * zb - ref.t)) < 1e-4

    def test_identity_channel(self):
        sol = solve(build_fmin(identity_channel(2), 2))
        p = from_sdp_solution(sol, 2)
        assert abs(p.f - 1.0) < 1e-4
        assert abs(p.t) < 1e-4
        rho = random_density_matrix(2, 2)
        z = exact_expectation(p, rho, identity_channel(2))
        assert abs(p.f * z - p.t - true_moment(rho, 2)) < 1e-5

    def test_amplitude_damping_cross_implementation(self):
        eps = 0.3
        sol = solve(build_fmin(amplitude_damping(eps), 2))
        p = from_sdp_solution(sol, 2)
        ref = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        for seed in range(5):
            rho = random_density_matrix(2, seed)
            est_sdp = p.f * exact_expectation(p, rho, noise) - p.t
            est_ref = ref.f * exact_expectation(ref, rho, noise) - ref.t
            assert abs(est_sdp - est_ref) < 1e-4

    def test_rejects_non_optimal(self):
        sol = solve(build_fmin(depolarizing(1.0, 2), 2))
        with pytest.raises(ValueError):
            from_sdp_solution(sol, 2)

    def test_contract_at_solver_tolerance(self):
        eps = 0.2
        sol = solve(build_fmin(amplitude_damping(eps), 2))
        p = from_sdp_solution(sol, 2)
        assert isinstance(p.realization, Channel)
        assert is_trace_preserving(p.realization)
        noise = amplitude_damping(eps)
        worst = 0.0
        for seed in range(100):
            rho = random_density_matrix(2, seed)
            z = exact_expectation(p, rho, noise)
            worst = max(worst, abs(p.f * z - p.t - true_moment(rho, 2)))
        assert worst < 1e-5


def _random_qubit_channel(seed: int, p: float = 0.2) -> Channel:
    """A random unitary with weight 1 - p, mixed with a random channel of two Kraus
    operators: invertible, and neither unital nor phase covariant."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    noise = Channel(2, 2, kraus=[np.sqrt(1 - p) * u, np.sqrt(p) * v[:2], np.sqrt(p) * v[2:]],
                    label=f"random{seed}")
    assert is_invertible(noise)
    return noise


def _sweep_noises():
    """The overhead-sweep grid of both models and three random qubit channels."""
    for eps in (0.05, 0.1, 0.2, 0.3):
        yield amplitude_damping(eps)
        yield depolarizing(eps, 2)
    for seed in range(2):
        yield _random_qubit_channel(seed)


class TestSpectralOptimum:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_the_admm_programs(self, k):
        for noise in _sweep_noises():
            shift = solve(build_fmin(noise, k))
            recover = solve(build_info_recover(noise, moment_observable(k, 2)))
            assert (shift.status, recover.status) == ("optimal", "optimal"), noise.label
            assert abs(optimal_shift(noise, k).f - shift.objective_value) <= 1e-6, noise.label
            assert abs(recover_overhead(noise, k) - recover.objective_value) <= 1e-6, \
                noise.label

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_amplitude_damping_table(self, eps):
        noise = amplitude_damping(eps)
        for k in (2, 4, 6):
            assert abs(optimal_shift(noise, k).f - 1 / (1 - eps) ** k) <= 1e-12
        assert abs(optimal_shift(noise, 3).f - (1 + eps) / (1 - eps) ** 2) <= 1e-12

    def test_every_protocol_meets_the_contract(self):
        cases = [(noise, k) for noise in _sweep_noises() for k in (2, 3, 4)]
        cases += [(amplitude_damping(0.2), 5), (depolarizing(0.1, 4), 3),
                  (depolarizing(0.1, 3), 3)]
        worst = max(contract_residual(optimal_shift(noise, k), noise) for noise, k in cases)
        assert worst <= 1e-13

    @pytest.mark.parametrize("noise,k", [(amplitude_damping(0.2), 2),
                                         (amplitude_damping(0.2), 3),
                                         (depolarizing(0.1, 2), 3)], ids=["AD_k2", "AD_k3",
                                                                          "DE_k3"])
    def test_closed_form_dual_certifies_f(self, noise, k):
        # N^(x k)(K) = alpha (P_min - P_max), M = alpha (P_max^T - lam P_min^T), alpha =
        # 1/(1 - lam), over A's extreme eigenvectors: the dual operator is
        # alpha [P_max^T (x) (I - H_k) + P_min^T (x) (H_k - lam I)] >= 0, value f
        g = np.linalg.inv(channel_matrix(noise))
        a = apply_copywise(g.conj().T, moment_observable(k, 2).entries[None], k)[0]
        vecs = np.linalg.eigh(a)[1]
        p_min, p_max = (np.outer(vecs[:, i], vecs[:, i].conj()) for i in (0, -1))
        lam = np.cos(2 * np.pi * (k // 2) / k)
        alpha = 1 / (1 - lam)
        k_op = apply_copywise(g, alpha * (p_min - p_max)[None], k)[0]
        cert = DualCertificate(M=Operator(alpha * (p_max.T - lam * p_min.T)), K=Operator(k_op))
        feasible, value = check_certificate(cert, noise, k)
        assert feasible
        assert abs(value - optimal_shift(noise, k).f) <= 1e-12

    def test_realization_is_a_trace_preserving_two_outcome_map(self, tmp_path):
        noise = amplitude_damping(0.1)
        p = optimal_shift(noise, 3)
        assert p.kind == "measure_prepare" and p.realization.values is None
        assert len(p.realization.effects) == 2 and is_trace_preserving(p.realization)
        h = moment_observable(3, 2).entries
        assert_allclose([np.trace(h @ o).real for o in p.realization.outputs], [1, -0.5],
                        atol=1e-15)
        save_protocol(p, tmp_path / "p.json")
        loaded = load_protocol(tmp_path / "p.json")
        assert (loaded.kind, loaded.f, loaded.t) == (p.kind, p.f, p.t)
        assert _bits(list(loaded.realization.effects)) == _bits(list(p.realization.effects))

    def test_non_invertible_noise_has_no_optimum(self):
        assert optimal_shift(depolarizing(1.0, 2), 2) is None
        assert recover_overhead(amplitude_damping(1.0), 3) is None


def _closed_forms():
    """Every closed-form constructor with its noise over the eps grid, k <= 5,
    d in {2, 3, 4} and d^k <= 1024."""
    for eps in (0.0, 0.05, 0.1, 0.2, 0.3):
        yield de_second_moment(eps), depolarizing(eps, 2)
        yield ad_second_moment(eps), amplitude_damping(eps)
        yield de_second_moment_nqubit(eps, 2), depolarizing(eps, 4)
        for k in range(2, 6):
            for d in (2, 3, 4):
                if d ** k <= 1024:
                    yield de_kth_moment(eps, k, d), depolarizing(eps, d)


class TestContractResidual:
    def test_closed_forms_meet_the_contract(self):
        worst = max(contract_residual(p, noise) for p, noise in _closed_forms())
        assert worst <= 1e-13

    def test_bounds_every_state_of_a_solver_protocol(self):
        noise = amplitude_damping(0.2)
        p = from_sdp_solution(solve(build_fmin(noise, 3)), 3)
        bound = contract_residual(p, noise)
        assert 1e-10 < bound < 1e-6  # solver precision, not rounding
        for seed in range(50):
            rho = random_density_matrix(2, seed, rank=1 + seed % 2)
            err = abs(p.f * exact_expectation(p, rho, noise) - p.t
                      - true_moment(rho, 3))
            assert err <= bound + 1e-15

    def test_mixed_state_error_detected(self):
        # Y = c (S - I) at k = 2 vanishes on the symmetric subspace, yet a mixed state
        # errs by c (tr[rho^2] - 1): only the copy-permutation average of Y sees it
        c, t = 0.3, 0.1
        p = RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=t, realization=CycleMap(
            2, 2, [(2, 0), (2, 1)], [(2, 0), (2, 1)], np.diag([(t - c) / 2, (1 + c) / 4])))
        noise = depolarizing(0.0, 2)
        bound = contract_residual(p, noise)
        assert bound >= 0.5
        for seed in range(3):
            rho = random_density_matrix(2, seed)
            err = abs(p.f * exact_expectation(p, rho, noise) - p.t - true_moment(rho, 2))
            assert 0.05 < err <= bound

    def test_shifted_t_detected(self):
        p = de_second_moment(0.1)
        shifted = replace(p, t=p.t + 1e-9)
        assert contract_residual(shifted, depolarizing(0.1, 2)) == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("p,noise", [
        (de_second_moment(0.1), depolarizing(0.2, 2)),
        (ad_second_moment(0.2), amplitude_damping(0.1)),
        (de_kth_moment(0.1, 3, 2), depolarizing(0.2, 2)),
    ], ids=["twirl", "ad_measure", "recursive_k3"])
    def test_wrong_noise_level_detected(self, p, noise):
        assert contract_residual(p, noise) > 1e-2

    def test_mismatched_noise_dimension_refused(self):
        with pytest.raises(ValueError, match="noise dimension 3 != protocol copy dim 2"):
            contract_residual(de_kth_moment(0.1, 3, 2), depolarizing(0.1, 3))


class TestExactExpectation:
    def test_pure_state(self):
        p = de_second_moment(0.1)
        rho = Operator([[1, 0], [0, 0]])
        z = exact_expectation(p, rho, depolarizing(0.1, 2))
        assert abs(p.f * z - p.t - 1.0) < 1e-12

    def test_maximally_mixed(self):
        p = de_second_moment(0.1)
        rho = Operator(np.eye(2) / 2)
        z = exact_expectation(p, rho, depolarizing(0.1, 2))
        assert abs(p.f * z - p.t - 0.5) < 1e-12

    def test_bloch_state_purity(self):
        # purity (1 + |r|^2)/2 = 0.58 for Bloch radius 0.4
        from momentshift.operators import PAULI_X
        p = ad_second_moment(0.2)
        rho = Operator((np.eye(2) + 0.4 * PAULI_X) / 2)
        z = exact_expectation(p, rho, amplitude_damping(0.2))
        assert abs(p.f * z - p.t - 0.58) < 1e-10

    def test_dimension_mismatch(self):
        p = de_second_moment(0.1)
        with pytest.raises(ValueError):
            exact_expectation(p, random_density_matrix(8, 0), depolarizing(0.1, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_dense_observable(self, k, d):
        # the dense oracle's trace read equals tr[H_k C(x)] with the dense H_k, C = id
        rng = np.random.default_rng(10 * k + d)
        x = rng.normal(size=(d ** k, d ** k)) + 1j * rng.normal(size=(d ** k, d ** k))
        h = moment_observable(k, d).entries
        z = dense_exact_expectation(identity_protocol(k, d), Operator(x))
        assert abs(z - np.sum(h * x.T).real) < 1e-10
        # and Re tr[S_k C(rho)] for each kind of realization: a recursive map
        # everywhere, a Kraus channel, a Choi channel and the AD measurement at k = d = 2
        s = cyclic_permutation(k, d).entries
        rho = random_density_matrix(d ** k, 10 * k + d)
        protocols = [de_kth_moment(0.1, k, d)]
        if (k, d) == (2, 2):
            twirl = de_second_moment(0.1)
            choi = Channel(4, 4, choi=twirl.realization.choi())
            protocols += [twirl, replace(twirl, realization=choi), ad_second_moment(0.2)]
        for p in protocols:
            dense = np.trace(s @ p.realization.apply(rho.entries)).real
            assert abs(dense_exact_expectation(p, rho) - dense) < 1e-10


class TestMomentPath:
    """Copy-cycle retrievers read off the moments of one noisy copy, against the dense
    oracle: the retriever applied to the joint state of Kraus-form noisy copies."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_dense_oracle(self, k, d):
        eps = 0.15
        p, noise = de_kth_moment(eps, k, d), depolarizing(eps, d)
        weights = _h_spectrum(k)[1].T
        for seed in range(3):
            rho = random_density_matrix(d, 100 * k + 10 * d + seed)
            joint = noisy_copies(rho, weyl_depolarizing(eps, d), k)
            moment, dense = output_traces(p, rho, noise), dense_output_traces(p, joint)
            assert_allclose(moment, dense, rtol=0, atol=1e-12)
            assert abs(exact_expectation(p, rho, noise) - dense_exact_expectation(p, joint)) \
                < 1e-12
            # the unnormalized Born probabilities of H_k's outcomes
            assert_allclose(moment.real @ weights, dense.real @ weights, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_trace_preservation_verdict(self, k, d):
        r = de_kth_moment(0.15, k, d).realization
        assert is_trace_preserving(r) == dense_is_trace_preserving(r) == (k == 2)
        eye = np.eye(d ** k)
        dense = np.linalg.norm(r.adjoint_apply(eye) - eye)  # Frobenius norm
        assert abs(r.unit_error() - dense) <= 1e-9 * max(1.0, dense)

    def test_no_joint_state_at_ten_qubits(self):
        # the purity retriever on ten-qubit copies: the joint state alone would need 16 TiB
        eps, p = 0.1, de_second_moment_nqubit(0.1, 10)
        rho = random_density_matrix(1024, 0)
        assert is_trace_preserving(p.realization)
        assert abs(p.f * exact_expectation(p, rho, depolarizing(eps, 1024)) - p.t
                   - true_moment(rho, 2)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("k", range(2, 8))
def test_recursion_matrix_bytes_match_per_order_build(k, d):
    u, labels = _recursion_matrix(0.17, k, d)
    ref, ref_labels = recursion_matrix_per_order(0.17, k, d)
    assert (u.dtype, u.shape, labels) == (ref.dtype, ref.shape, ref_labels)
    assert u.tobytes() == ref.tobytes()


def test_eps_free_tables_are_frozen_and_shared():
    # the transfer chains, Gram matrices and product-trace weights are built once per
    # (k, d) and shared by every eps: a write to any of them must fail, and a second eps
    # must build the U_k bytes that a fresh process builds
    k, d = 5, 3
    first = de_kth_moment(0.11, k, d).realization
    tables = [*_chain(k, d), *(_gram(s, d) for s in range(2, k + 1)),
              _shift_weights(k, d, first.outputs)[1]]
    assert len(_chain(k, d)) == k - 2
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0.0
    second = de_kth_moment(0.23, k, d).realization
    script = ("import sys; from momentshift.protocols import de_kth_moment; "
              "sys.stdout.write(de_kth_moment(0.23, 5, 3).realization.matrix.tobytes().hex())")
    package_root = Path(sys.modules["momentshift"].__file__).parent.parent
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(package_root)}, check=True)
    assert second.matrix.tobytes() == bytes.fromhex(fresh.stdout)
    assert first.matrix.tobytes() != second.matrix.tobytes()


class TestSerialization:
    @pytest.mark.parametrize("proto", [
        de_second_moment(0.15),
        ad_second_moment(0.25),
        de_second_moment_nqubit(0.1, 2),
        de_kth_moment(0.2, 3, 2),
        RetrievalProtocol(2, 2, 1.0, 0.0, Channel(4, 4, kraus=[np.eye(4)]), "identity"),
    ])
    def test_round_trip(self, tmp_path, proto):
        path = tmp_path / "proto.json"
        save_protocol(proto, path)
        loaded = load_protocol(path)
        assert loaded.kind == proto.kind
        assert loaded.k == proto.k
        assert loaded.copy_dim == proto.copy_dim
        assert loaded.f == pytest.approx(proto.f, abs=1e-15)
        assert loaded.t == pytest.approx(proto.t, abs=1e-15)
        d = proto.copy_dim ** proto.k
        x = random_density_matrix(d, 0)
        assert_allclose(loaded.realization.apply(x.entries),
                        proto.realization.apply(x.entries), atol=1e-12)

    def test_written_text_is_the_json_document(self, tmp_path):
        sol = solve(build_fmin(amplitude_damping(0.2), 2))
        for proto in (from_sdp_solution(sol, 2), de_kth_moment(0.2, 3, 2)):
            path = tmp_path / "proto.json"
            save_protocol(proto, path)
            assert path.read_bytes() == json.dumps(protocol_to_json(proto)).encode()

    def test_every_built_realization_has_a_kind(self):
        sol = solve(build_fmin(amplitude_damping(0.2), 2))
        kinds = [p.kind for p in (de_second_moment(0.1), ad_second_moment(0.2),
                                  de_kth_moment(0.1, 3, 2), from_sdp_solution(sol, 2),
                                  identity_protocol(2, 2))]
        assert kinds == ["channel", "measure_prepare", "recursive", "channel", "cycle_map"]

    def test_identity_protocol_has_no_file_form(self, tmp_path):
        path = tmp_path / "identity.json"
        with pytest.raises(ValueError, match="'identity': a cycle_map realization has no file form"):
            save_protocol(identity_protocol(3, 2), path)
        assert not path.exists()

    def test_schema_fields(self):
        doc = protocol_to_json(ad_second_moment(0.2))
        assert doc["schema_version"] == 2
        assert {"kind", "k", "copy_dim", "f", "t", "data"} <= set(doc)

    def test_unknown_schema_rejected(self):
        doc = protocol_to_json(de_second_moment(0.1))
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            protocol_from_json(doc)

    @pytest.mark.parametrize("version, message", [
        (3, "unsupported protocol schema 3"),
        (True, "protocol field 'schema_version' is not an integer"),
        (1.0, "protocol field 'schema_version' is not an integer"),
        (None, "protocol file lacks the field 'schema_version'"),
    ], ids=["3", "true", "float", "missing"])
    def test_schema_version_is_a_json_integer(self, version, message):
        doc = protocol_to_json(de_second_moment(0.1))
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        with pytest.raises(ValueError) as err:
            protocol_from_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("version", [1, 2])
    def test_both_schemas_load(self, version):
        doc = json.loads(json.dumps(protocol_to_json(ad_second_moment(0.2))))
        doc["schema_version"] = version
        assert protocol_from_json(doc).f == ad_second_moment(0.2).f

    @pytest.mark.parametrize("build", [
        lambda: de_second_moment(0.15),
        lambda: _sdp_protocol(2),
        lambda: _sdp_protocol(3),
        lambda: ad_second_moment(0.25),
    ], ids=["twirl_kraus", "sdp_choi_k2", "sdp_choi_k3", "ad_measure_prepare"])
    def test_matrices_round_trip_bit_equal(self, tmp_path, build):
        # .tobytes() compares bits: a -0.0 or a subnormal that comes back changed fails
        proto, path = build(), tmp_path / "proto.json"
        save_protocol(proto, path)
        written = _file_matrices(proto.realization)
        assert written and _bits(_file_matrices(load_protocol(path).realization)) == \
            _bits(written)

    @pytest.mark.parametrize("name", ["twirl.json", "ad_measure.json", "de_choi_n1.json",
                                      "sdp_ad_k2.json"])
    def test_v1_file_rewritten_loads_bit_equal(self, tmp_path, name):
        v1 = load_protocol(V1 / name)
        save_protocol(v1, tmp_path / name)
        assert json.loads((tmp_path / name).read_text())["schema_version"] == 2
        assert _bits(_file_matrices(load_protocol(tmp_path / name).realization)) == \
            _bits(_file_matrices(v1.realization))

    @pytest.mark.parametrize("build", [
        lambda: de_second_moment(0.15),
        lambda: _sdp_protocol(2),
        lambda: ad_second_moment(0.25),
        lambda: RetrievalProtocol(2, 2, 1.0, 0.0, MeasurePrepare(
            [np.diag(e) for e in np.eye(4)], [np.eye(4) / 4] * 4)),
    ], ids=["twirl_kraus", "sdp_choi_k2", "ad_measure_prepare", "measure_prepare_no_values"])
    def test_round_trip_in_memory(self, build):
        # the document itself loads, not only the text json.dumps makes of it
        proto = build()
        doc = protocol_to_json(proto)
        loaded = protocol_from_json(doc)
        assert (loaded.kind, loaded.f, loaded.t) == (proto.kind, proto.f, proto.t)
        assert _bits(_file_matrices(loaded.realization)) == \
            _bits(_file_matrices(proto.realization))
        if isinstance(proto.realization, MeasurePrepare):
            values = proto.realization.values
            assert doc["data"]["values"] == (None if values is None else list(values))
            assert loaded.realization.values == values

    def test_k3_choi_is_written_as_an_object(self, tmp_path):
        save_protocol(_sdp_protocol(3), tmp_path / "sdp_k3.json")
        choi = json.loads((tmp_path / "sdp_k3.json").read_text())["data"]["choi"]
        assert set(choi) == {"shape", "base64"} and choi["shape"] == [64, 64]
        entries = _sdp_protocol(3).realization.choi().entries  # row-major little-endian
        assert base64.b64decode(choi["base64"]) == entries.astype("<c16").tobytes()


V1 = Path(__file__).parent / "data" / "protocols_v1"


@lru_cache(maxsize=None)
def _sdp_protocol(k: int) -> RetrievalProtocol:
    return from_sdp_solution(solve(build_fmin(amplitude_damping(0.1), k)), k)


def _file_matrices(r) -> list[np.ndarray]:
    """Every matrix the file form of a Channel or MeasurePrepare realization stores."""
    if isinstance(r, MeasurePrepare):
        return list(r.effects) + list(r.outputs)
    return list(r.kraus) if r.kraus is not None else [r.choi().entries]


def _bits(matrices: list[np.ndarray]) -> list[tuple]:
    return [(m.dtype.str, m.shape, m.tobytes()) for m in matrices]


def _adjoint_maps():
    rng = np.random.default_rng(5)
    kraus = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(3)]
    choi = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    choi += choi.conj().T  # Hermitian: the map preserves Hermiticity, as channels do
    return {
        "kraus_channel": Channel(2, 3, kraus=kraus),
        "choi_channel": Channel(2, 3, choi=Operator(choi, (2, 3))),
        "ad_second_moment": ad_second_moment(0.2).realization,
        "de2_qudit_4": de_kth_moment(0.1, 2, 4).realization,
        "transfer_4": transfer_maps(4, 2).forward,
        "recovery_4_2": recovery_map(4, 2),
        "recovery_5_3": recovery_map(5, 3),
        "recursive_k3_d2": de_kth_moment(0.1, 3, 2).realization,
        "recursive_k4_d2": de_kth_moment(0.1, 4, 2).realization,
        "recursive_k5_d2": de_kth_moment(0.1, 5, 2).realization,
        "recursive_k3_d3": de_kth_moment(0.1, 3, 3).realization,
    }


class TestAdjoint:
    @pytest.mark.parametrize("name", sorted(_adjoint_maps()))
    def test_adjoint_identity(self, name):
        # <Y, r(X)> = <r^dag(Y), X> for the Hilbert-Schmidt inner product
        r = _adjoint_maps()[name]
        in_dim, out_dim = r.in_dim, r.out_dim
        rng = np.random.default_rng(7)
        x = rng.normal(size=(in_dim, in_dim)) + 1j * rng.normal(size=(in_dim, in_dim))
        y = rng.normal(size=(out_dim, out_dim)) + 1j * rng.normal(size=(out_dim, out_dim))
        lhs = np.vdot(y, r.apply(x))
        rhs = np.vdot(r.adjoint_apply(y), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("k,d", [(3, 2), (4, 2), (5, 2), (3, 3)])
    def test_recursive_not_trace_preserving(self, k, d):
        assert not is_trace_preserving(de_kth_moment(0.1, k, d).realization)

    def test_recursive_adjoint_unit_spectrum_k3(self):
        r = de_kth_moment(0.1, 3, 2).realization
        w = np.linalg.eigvalsh(r.adjoint_apply(np.eye(8)))
        assert_allclose([w.min(), w.max()], [1.15, 1.30], atol=1e-12)
