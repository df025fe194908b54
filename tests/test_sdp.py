import dataclasses
import json
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import (
    Channel,
    amplitude_damping,
    depolarizing,
    tensor_power,
)
from momentshift.moments import cyclic_shift_index, moment_observable
from momentshift.operators import (
    Operator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    partial_trace,
    tensor_product,
)
from momentshift.sdp.problem import (
    BlockVar,
    Constraint,
    ConstraintTerm,
    DualCertificate,
    HermitianBasis,
    ScalarVar,
    SdpProblem,
)
from momentshift.sdp.programs import (
    build_fmin,
    build_gmin,
    build_info_recover,
    check_certificate,
    copy_sectors,
    gmin_power,
)
from momentshift.sdp import solver
from momentshift.sdp.solver import solve
from oracles import dual_fmin, identity_channel

H2 = moment_observable(2, 2)


def _trace_map(batch):
    return np.real(np.einsum("naa->n", batch))


class TestHermitianBasis:
    def test_round_trip(self):
        basis = HermitianBasis(5)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = m + m.conj().T
        assert_allclose(basis.from_coords(basis.to_coords(h)), h, atol=1e-14)

    def test_isometry(self):
        basis = HermitianBasis(4)
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m + m.conj().T
        assert_allclose(np.linalg.norm(basis.to_coords(h)),
                        np.linalg.norm(h), atol=1e-12)

    def test_basis_batch_orthonormal(self):
        basis = HermitianBasis(3)
        b = basis.basis_batch(0, 9)
        gram = np.einsum("aij,bji->ab", b.conj().transpose(0, 2, 1), b).real
        assert_allclose(gram, np.eye(9), atol=1e-14)


class TestSolverToy:
    def test_min_trace_density(self):
        # the objective names scalars only: tr X is stated through t with tr X - t = 0
        p = SdpProblem(
            blocks=[BlockVar("X", 3)],
            scalars=[ScalarVar("t")],
            objective={"t": 1.0},
            constraints=[Constraint(terms=(ConstraintTerm("X", block_map=_trace_map),),
                                    target=1.0),
                         Constraint(terms=(ConstraintTerm("X", block_map=_trace_map),
                                           ConstraintTerm("t", scalar_coeff_op=-np.eye(1))),
                                    target=0.0)],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-6
        assert sol.block("X").min_eigenvalue() > -1e-8

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem(blocks=[], scalars=[ScalarVar("a")], objective={"b": 1.0},
                       constraints=[])

    def test_block_objective_rejected(self):
        with pytest.raises(ValueError, match="'X' is not a declared scalar"):
            SdpProblem(blocks=[BlockVar("X", 2)], scalars=[], objective={"X": np.eye(2)},
                       constraints=[])

    def test_constraint_free_program_is_optimal(self):
        # no equality rows: the affine projection is the identity through the SVD path
        p = SdpProblem(blocks=[BlockVar("X", 2)], scalars=[ScalarVar("x", lower=0.5)],
                       objective={"x": 1.0}, constraints=[])
        sol = solve(p)
        assert (sol.status, sol.diagnostics["rows"]) == ("optimal", 0)
        assert abs(sol.objective_value - 0.5) < 1e-9
        assert abs(sol.diagnostics["dual_objective"] - 0.5) < 1e-9
        assert sol.block("X").min_eigenvalue() > -1e-12

    def test_determinism(self):
        p1 = solve(build_fmin(depolarizing(0.1, 2), 2))
        p2 = solve(build_fmin(depolarizing(0.1, 2), 2))
        assert p1.iterations == p2.iterations
        assert p1.objective_value == p2.objective_value


class TestFmin:
    def test_identity_channel(self):
        sol = solve(build_fmin(identity_channel(2), 2))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-5
        assert abs(sol.scalar("t")) < 1e-5

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_depolarizing_values(self, eps):
        sol = solve(build_fmin(depolarizing(eps, 2), 2))
        s = (1 - eps) ** 2
        assert abs(sol.scalar("f") - 1 / s) < 1e-4
        assert abs(sol.scalar("t") - (1 - s) / (2 * s)) < 1e-4

    def test_amplitude_damping_values(self):
        eps = 0.2
        sol = solve(build_fmin(amplitude_damping(eps), 2))
        assert abs(sol.scalar("f") - 1.5625) < 1e-4
        assert abs(sol.scalar("t") + 0.0625) < 1e-4

    def test_full_depolarizing_infeasible(self):
        sol = solve(build_fmin(depolarizing(1.0, 2), 2))
        assert sol.status == "infeasible"

    def test_solution_block_properties(self):
        sol = solve(build_fmin(depolarizing(0.2, 2), 2))
        j = sol.block("J")
        f = sol.scalar("f")
        marg = partial_trace(Operator(j.entries, (4, 4)), [0])
        assert np.max(np.abs(marg.entries - f * np.eye(4))) < 1e-6
        assert j.min_eigenvalue() > -1e-7


class TestStatuses:
    # `infeasible` is found only by the least-squares check of A x = b, before the loop
    @pytest.mark.parametrize("build", [
        lambda: build_fmin(depolarizing(1.0, 2), 2),
        lambda: build_fmin(depolarizing(1.0, 2), 3),
        lambda: build_fmin(amplitude_damping(1.0), 2),
        lambda: build_gmin(depolarizing(1.0, 2)),
    ], ids=["DE1.0_k2", "DE1.0_k3", "AD1.0_k2", "gmin_DE1.0"])
    def test_infeasible_carries_the_least_squares_residual(self, build):
        sol = solve(build())
        assert (sol.status, sol.iterations) == ("infeasible", 0)
        assert sol.diagnostics["reason"] == "equality constraints inconsistent"
        assert sol.diagnostics["linear_residual"] > 1e-7

    def test_psd_trace_minus_one_is_not_optimal(self):
        # the accelerated scaled dual runs off to ~1e15, where A w - b rounds b away
        # and the affine point equals the cone point X = 0 with zero residuals
        p = SdpProblem(blocks=[BlockVar("X", 2)], scalars=[], objective={},
                       constraints=[Constraint(terms=(ConstraintTerm("X", block_map=_trace_map),),
                                               target=-1.0)])
        sol = solve(p)
        assert (sol.status, sol.iterations) == ("max_iters", solver.DEFAULT_MAX_ITERS)

    def test_nonnegative_scalar_equal_to_minus_one_runs_to_max_iters(self):
        p = SdpProblem(blocks=[], scalars=[ScalarVar("x", lower=0.0)], objective={},
                       constraints=[Constraint(terms=(ConstraintTerm(
                           "x", scalar_coeff_op=np.eye(1)),), target=-1.0)])
        sol = solve(p)
        assert (sol.status, sol.iterations) == ("max_iters", solver.DEFAULT_MAX_ITERS)
        assert sol.diagnostics["reason"] == "max_iters"


class TestDuality:
    @pytest.mark.parametrize("mk,eps", [
        (lambda e: depolarizing(e, 2), 0.05), (lambda e: depolarizing(e, 2), 0.3),
        (amplitude_damping, 0.1), (amplitude_damping, 0.2),
    ])
    def test_gap(self, mk, eps):
        # the dual optimum max -tr[K H_2] is -v of the separately solved oracle program
        primal = solve(build_fmin(mk(eps), 2))
        dual = solve(dual_fmin(mk(eps), 2))
        assert primal.status == dual.status == "optimal"
        assert abs(primal.objective_value + dual.objective_value) < 1e-4
        assert abs(primal.objective_value - primal.diagnostics["dual_objective"]) <= 1e-6

    @pytest.mark.parametrize("build", [
        *(partial(build_fmin, mk(eps), 2) for mk in (lambda e: depolarizing(e, 2),
                                                     amplitude_damping)
          for eps in (0.05, 0.1, 0.2, 0.3)),
        partial(build_fmin, amplitude_damping(0.2), 3),
        partial(build_fmin, depolarizing(0.1, 2), 3),
        partial(build_gmin, amplitude_damping(0.2)),
        partial(build_info_recover, tensor_power(amplitude_damping(0.2), 3),
                moment_observable(3, 2)),
    ], ids=[*(f"{n}{e}_k2" for n in ("DE", "AD") for e in (0.05, 0.1, 0.2, 0.3)),
            "AD0.2_k3", "DE0.1_k3", "gmin_AD0.2", "recover_AD0.2_k3"])
    def test_dual_objective_read_off_the_solve(self, build):
        sol = solve(build())
        assert sol.status == "optimal"
        assert abs(sol.objective_value - sol.diagnostics["dual_objective"]) <= 1e-6

    def test_simplified_coupling_matches_literal(self):
        # the dual builder contracts tr_A[(K^T x I x H)(J^TB x I)] to
        # (N(K))^T x H; cross-check against the literal expression
        eps = 0.15
        noise = amplitude_damping(eps)
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k_op = Operator(m + m.conj().T)
        nk = tensor_power(noise, 2)
        jtb = Operator(nk.choi().entries.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(16, 16))
        eye = Operator(np.eye(4))
        left = tensor_product(tensor_product(Operator(k_op.entries.T), eye), H2)
        right = tensor_product(jtb, eye)
        literal = partial_trace(Operator(left.entries @ right.entries, (4, 4, 4)), [1, 2])
        from momentshift.channels import apply
        pushed = apply(nk, k_op).entries.T
        simplified = np.kron(pushed, H2.entries)
        assert_allclose(literal.entries, simplified, atol=1e-11)


class TestCertificates:
    def test_depolarizing_certificate(self):
        eps = 0.1
        xyz = (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
               + np.kron(PAULI_Z, PAULI_Z))
        cert = DualCertificate(
            M=Operator(np.eye(4) / 4 - xyz / 12),
            K=Operator(-xyz / (6 * (1 - eps) ** 2)),
        )
        feasible, obj = check_certificate(cert, depolarizing(eps, 2), 2)
        assert feasible
        assert abs(obj - 1 / 0.81) < 1e-9

    def test_amplitude_damping_certificate(self):
        eps = 0.2
        psim = np.array([0, 1, -1, 0]) / np.sqrt(2)
        m = 0.25 * 2 * np.outer(psim, psim)
        m[3, 3] += 0.5
        k = np.zeros((4, 4))
        k[0, 0] = -eps
        k[3, 3] = -1.0
        k[1, 1] = k[2, 2] = (1 + eps) / 2
        k[1, 2] = k[2, 1] = (eps - 1) / 2
        cert = DualCertificate(M=Operator(m), K=Operator(k / (2 * (1 - eps) ** 2)))
        feasible, obj = check_certificate(cert, amplitude_damping(eps), 2)
        assert feasible
        assert abs(obj - 1.5625) < 1e-9

    def test_zero_certificate(self):
        cert = DualCertificate(M=Operator(np.zeros((4, 4))),
                               K=Operator(np.zeros((4, 4))))
        feasible, obj = check_certificate(cert, amplitude_damping(0.3), 2)
        assert feasible
        assert obj == 0.0


class TestGmin:
    def test_identity(self):
        sol = solve(build_gmin(identity_channel(2)))
        assert abs(sol.objective_value - 1.0) < 1e-5

    def test_depolarizing_single_copy(self):
        eps = 0.1
        sol = solve(build_gmin(depolarizing(eps, 2)))
        assert abs(sol.objective_value - (1 + eps / 2) / (1 - eps)) < 1e-5

    def test_amplitude_damping_two_copies(self):
        eps = 0.2
        sol = solve(build_gmin(tensor_power(amplitude_damping(eps), 2)))
        assert abs(sol.objective_value - (1 + eps) ** 2 / (1 - eps) ** 2) < 1e-4

    def test_power_identity(self):
        assert gmin_power(1.5, 3) == pytest.approx(3.375)

    def test_eigh_failure_falls_back_to_real_embedding(self, monkeypatch):
        problem = build_gmin(depolarizing(0.1, 2))
        reference = solve(problem)
        eigh = np.linalg.eigh
        shapes = []

        def fails_once(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fails_once)
        sol = solve(problem)
        assert shapes[1] == (2 * shapes[0][0], 2 * shapes[0][0])
        assert sol.status == "optimal"
        assert abs(sol.objective_value - reference.objective_value) < 1e-6

    def test_multiplicativity(self):
        eps = 0.1
        g1 = solve(build_gmin(depolarizing(eps, 2))).objective_value
        g2 = solve(build_gmin(tensor_power(depolarizing(eps, 2), 2))).objective_value
        assert abs(g2 - g1 ** 2) < 1e-3


class TestInfoRecover:
    def test_identity_channel(self):
        sol = solve(build_info_recover(identity_channel(2), Operator(PAULI_Z)))
        assert abs(sol.objective_value - 1.0) < 1e-5

    def test_sandwich(self):
        eps = 0.1
        noise = depolarizing(eps, 2)
        rec = solve(build_info_recover(noise, Operator(PAULI_Z))).objective_value
        g = solve(build_gmin(noise)).objective_value
        assert 1.0 - 1e-6 <= rec <= g + 1e-6

    def test_between_shift_and_inverse_k3(self):
        # the three-method comparison at one grid point
        eps = 0.2
        noise = amplitude_damping(eps)
        h3 = moment_observable(3, 2)
        shift = solve(build_fmin(noise, 3)).objective_value
        rec = solve(build_info_recover(tensor_power(noise, 3),
                                       h3)).objective_value
        inverse = gmin_power(solve(build_gmin(noise)).objective_value, 3)
        assert shift <= rec + 1e-5 <= inverse + 1e-5


class TestOverheadOrdering:
    @pytest.mark.parametrize("mk", [lambda e: depolarizing(e, 2), amplitude_damping])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_k2(self, mk, eps):
        noise = mk(eps)
        f = solve(build_fmin(noise, 2)).objective_value
        g1 = solve(build_gmin(noise)).objective_value
        assert f <= gmin_power(g1, 2) + 1e-6


def _dense_twin(problem):
    """The same program with J declared without sectors (one dense block)."""
    j = problem.blocks[0]
    return dataclasses.replace(problem, blocks=[dataclasses.replace(j, sectors=None)])


def _assert_matches_dense(problem):
    sol, dense = solve(problem), solve(_dense_twin(problem))
    assert sol.status == dense.status == "optimal"
    assert sol.iterations == dense.iterations
    assert abs(sol.scalar("f") - dense.scalar("f")) <= 1e-10
    assert abs(sol.scalar("t") - dense.scalar("t")) <= 1e-10
    assert np.abs(sol.block("J").entries - dense.block("J").entries).max() <= 1e-9


def _sector_matrix(sector, dim):
    q = np.zeros((dim, sector.size), dtype=complex)
    q[sector.rows] = sector.q
    return q


def _string_charges(k, d):
    digits = [np.arange(d ** k) // d ** (k - 1 - i) % d for i in range(k)]
    return sum(np.array([bin(v).count("1") for v in range(d)])[x] for x in digits)


class TestSymmetrySectors:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("eps", [0.1, 0.2])
    @pytest.mark.parametrize("mk", [amplitude_damping, lambda e: depolarizing(e, 2)],
                             ids=["AD", "DE"])
    def test_sector_solve_matches_dense(self, mk, eps, k):
        problem = build_fmin(mk(eps), k)
        assert problem.blocks[0].sectors is not None
        _assert_matches_dense(problem)

    @pytest.mark.parametrize("k,d", [(2, 2), (3, 2), (4, 2), (2, 4)])
    def test_columns_orthonormal_complete_and_labelled(self, k, d):
        dim = d ** (2 * k)
        p = cyclic_shift_index(k, d)
        cycle = np.zeros((dim, dim))
        cycle[(p[:, None] * d ** k + p).reshape(-1), np.arange(dim)] = 1.0
        n = _string_charges(k, d)
        charge = (n[:, None] - n).reshape(-1)
        sectors = copy_sectors(k, d, True)
        assert sum(s.size for s in sectors) == dim
        q = np.hstack([_sector_matrix(s, dim) for s in sectors])
        assert_allclose(q.conj().T @ q, np.eye(dim), atol=1e-12)
        labels = set()
        for s in sectors:
            qs = _sector_matrix(s, dim)
            phase = np.vdot(qs[:, 0], cycle @ qs[:, 0])
            assert abs(phase ** k - 1) < 1e-12
            assert_allclose(cycle @ qs, phase * qs, atol=1e-12)
            support = np.abs(qs).max(axis=1) > 0
            assert len(set(charge[support])) == 1
            labels.add((round(np.angle(phase) * k / (2 * np.pi)) % k, charge[support][0]))
        assert len(labels) == len(sectors)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_moment_observable_has_both_symmetries(self, d):
        # the sectors of build_fmin rest on these; they are not checked at build time
        for k in range(2, 6):
            h = moment_observable(k, d).entries
            p = cyclic_shift_index(k, d)
            assert np.array_equal(h[np.ix_(p, p)], h)
            n = _string_charges(k, d)
            assert not h[n[:, None] != n].any()

    def test_qubit_k3_sector_sizes(self):
        sizes = sorted(s.size for s in copy_sectors(3, 2, True))
        assert sizes == [1, 1] + [2] * 6 + [5] * 6 + [6, 6, 8]
        assert sum(m * m for m in sizes) == 312
        assert build_fmin(amplitude_damping(0.1), 3).blocks[0].size == 312

    @pytest.mark.parametrize("kraus", [
        [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * PAULI_X],
        [np.sqrt(0.8) * np.eye(2),
         np.sqrt(0.2) * np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2))
                                     + 1j * np.random.default_rng(8).standard_normal((2, 2)))[0]],
    ], ids=["bit_flip", "random_unitary_mixture"])
    def test_non_covariant_noise_gets_cycle_only_sectors(self, kraus):
        problem = build_fmin(Channel(2, 2, kraus=kraus), 2)
        assert problem.blocks[0].sectors == copy_sectors(2, 2, False)
        _assert_matches_dense(problem)

    def test_batched_eigh_failure_falls_back_to_real_embedding(self, monkeypatch):
        problem = build_fmin(amplitude_damping(0.2), 2)
        reference = solve(problem)
        eigh = np.linalg.eigh
        shapes = []

        def fails_once(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fails_once)
        sol = solve(problem)
        g, m, _ = shapes[0]
        assert shapes[1] == (g, 2 * m, 2 * m)
        assert sol.iterations == reference.iterations
        assert abs(sol.objective_value - reference.objective_value) < 1e-12

    def test_diagnostics_recorded(self):
        sol = solve(build_fmin(amplitude_damping(0.2), 2))
        diag = sol.diagnostics
        assert diag["reason"] == "tolerance reached"
        assert (diag["coordinates"], diag["rows"]) == (40, 32)
        assert sorted(diag["sector_sizes"]["J"]) == [1, 1, 2, 2, 2, 2, 2, 4]
        assert all(diag[key] >= 0.0 for key in ("compile_s", "factor_s", "iterate_s"))
        assert json.loads(json.dumps(diag)) == diag
        capped = solve(build_fmin(amplitude_damping(0.2), 2), max_iters=10)
        assert capped.diagnostics["reason"] == "max_iters"


class TestAcceleration:
    # closed forms: 1/(1-eps)^2 for both noises at k = 2, (1+eps)/(1-eps)^2 for AD at k = 3
    @pytest.mark.parametrize("noise,k,most,optimum", [
        (amplitude_damping(0.2), 2, 75, 1.5625),
        (amplitude_damping(0.2), 3, 85, 1.875),
        (depolarizing(0.1, 2), 3, 35, 1 / 0.81),
    ], ids=["AD0.2_k2", "AD0.2_k3", "DE0.1_k3"])
    def test_few_iterations_to_the_closed_form(self, noise, k, most, optimum):
        sol = solve(build_fmin(noise, k))  # the plain loop took 375, 425 and 175
        assert sol.status == "optimal"
        assert sol.iterations <= most
        assert abs(sol.objective_value - optimum) <= 2e-8
        diag = sol.diagnostics
        assert 0 < diag["accelerated_steps"] + diag["safeguard_rejections"] <= sol.iterations

    def test_without_memory_the_plain_loop_runs(self, monkeypatch):
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)
        sol = solve(build_fmin(amplitude_damping(0.2), 2))
        assert sol.iterations == 375
        assert abs(sol.objective_value - 1.5624995827) < 1e-10
        assert (sol.diagnostics["accelerated_steps"],
                sol.diagnostics["safeguard_rejections"]) == (0, 0)

    def test_no_iteration_returns_the_start(self):
        sol = solve(build_fmin(amplitude_damping(0.2), 2), max_iters=0)
        assert (sol.status, sol.iterations, sol.scalar("f")) == ("max_iters", 0, 0.0)

    def test_safeguard_rejection_recovers(self):
        # at AD 0.1, k = 3 an accelerated point overshoots; the loop goes back to the
        # plain image of the last accepted point and still lands on 1.1/0.81
        sol = solve(build_fmin(amplitude_damping(0.1), 3))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.1 / 0.81) <= 2e-8
        diag = sol.diagnostics
        assert diag["safeguard_rejections"] >= 1
        assert sol.block("J").min_eigenvalue() > -1e-12  # a cone image, not the step
