import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import depolarizing, noisy_copies
from momentshift.estimator import _BLOCK, _h_distribution, derive_seed, run_choi_map
from momentshift.hubbard import (
    HubbardModel,
    annihilation_operator,
    build_hamiltonian,
    fig4_experiment,
    ground_state,
    mode_index,
    model_ground_state,
    demo_model,
    reduced_state,
)
from momentshift.moments import cycle_traces
from momentshift.operators import random_density_matrix
from momentshift.protocols import (de_kth_moment, de_second_moment_nqubit, identity_protocol,
                                  output_traces)


class TestJordanWigner:
    def test_canonical_anticommutation(self):
        n = 6
        a = [annihilation_operator(p, n).entries for p in range(n)]
        for p in range(n):
            for q in range(n):
                anti = a[p] @ a[q].conj().T + a[q].conj().T @ a[p]
                expect = np.eye(2 ** n) if p == q else np.zeros((2 ** n, 2 ** n))
                assert np.max(np.abs(anti - expect)) < 1e-12
                assert np.max(np.abs(a[p] @ a[q] + a[q] @ a[p])) < 1e-12

    def test_mode_ordering(self):
        # site-major, spin-up first
        assert mode_index(1, "up") == 0
        assert mode_index(1, "down") == 1
        assert mode_index(3, "down") == 5


class TestHamiltonian:
    def test_zero_model(self):
        m = HubbardModel(sites=2, tunneling=0, repulsion=0,
                         lambda_up=0, lambda_down=0)
        assert np.max(np.abs(build_hamiltonian(m).entries)) == 0

    def test_single_site_interaction_spectrum(self):
        m = HubbardModel(sites=1, tunneling=0, repulsion=3,
                         lambda_up=0, lambda_down=0)
        w = np.linalg.eigvalsh(build_hamiltonian(m).entries)
        assert_allclose(w, [0, 0, 0, 3], atol=1e-12)

    def test_demo_parameters(self):
        h = build_hamiltonian(demo_model())
        assert h.dim == 64
        assert h.is_hermitian(1e-10)
        n = 6
        ntot = sum(annihilation_operator(p, n).entries.conj().T
                   @ annihilation_operator(p, n).entries for p in range(n))
        comm = h.entries @ ntot - ntot @ h.entries
        assert np.max(np.abs(comm)) < 1e-10

    def test_gaussian_potential_values(self):
        m = demo_model()
        # lambda_up = 3 centred at site 3 with unit width
        assert m.local_potential(3, "up") == pytest.approx(-3.0)
        assert m.local_potential(2, "up") == pytest.approx(-3.0 * np.exp(-0.5))
        assert m.local_potential(3, "down") == pytest.approx(-0.1)

    def test_cap(self):
        with pytest.raises(ValueError):
            build_hamiltonian(HubbardModel(sites=6))


class TestGroundState:
    def test_pauli_z(self):
        from momentshift.operators import Operator, PAULI_Z
        g = ground_state(Operator(PAULI_Z))
        assert g.energy == -1.0
        assert_allclose(g.state.entries, [[0, 0], [0, 1]])

    def test_demo_model_ground_state(self):
        h = build_hamiltonian(demo_model())
        g = ground_state(h)
        assert not g.degenerate
        resid = h.entries @ g.state.entries - g.energy * g.state.entries
        assert np.max(np.abs(resid)) < 1e-9
        assert g.state.min_eigenvalue() > -1e-12
        assert abs(g.state.trace().real - 1) < 1e-12

    def test_variational_bound(self):
        h = build_hamiltonian(demo_model())
        g = ground_state(h)
        for seed in range(20):
            psi = random_density_matrix(64, seed, rank=1)
            assert np.trace(h.entries @ psi.entries).real >= g.energy - 1e-9

    def test_reduced_full_system_is_ground_state(self):
        h = build_hamiltonian(demo_model())
        g = ground_state(h)
        full = reduced_state(g, list(range(6)))
        assert_allclose(full.entries, g.state.entries, atol=1e-13)

    def test_reduced_state_site1(self):
        h = build_hamiltonian(demo_model())
        g = ground_state(h)
        rho_a = reduced_state(g, [0, 1])
        purity = np.trace(rho_a.entries @ rho_a.entries).real
        assert 0.0 < purity <= 1.0
        assert abs(rho_a.trace().real - 1) < 1e-12


class TestFig4:
    def test_noiseless_centres_on_exact(self):
        res = fig4_experiment(0.0, shots=2000, trials=10, seed=2)
        se_raw, se_mit = res.std_errors()
        assert abs(res.raw_mean - res.exact_purity) < 4 * se_raw
        assert abs(res.mitigated_mean - res.exact_purity) < 4 * se_mit
        assert res.biased_value() == pytest.approx(res.exact_purity)

    def test_biased_value_formula(self):
        res = fig4_experiment(0.1, shots=64, trials=2, seed=0)
        e, p, d = 0.1, res.exact_purity, 4
        assert res.biased_value() == pytest.approx(
            (1 - e) ** 2 * p + 2 * e * (1 - e) / d + e ** 2 / d)

    def test_noisy_bias_and_mitigation(self):
        res = fig4_experiment(0.1, shots=4096, trials=30, seed=5)
        se_raw, se_mit = res.std_errors()
        assert abs(res.raw_mean - res.biased_value()) < 4 * se_raw
        assert abs(res.mitigated_mean - res.exact_purity) < 4 * se_mit

    def test_records_and_summary(self):
        res = fig4_experiment(0.05, shots=128, trials=3, seed=1)
        recs = res.records()
        assert len(recs) == 6
        assert {m for _, m, _ in recs} == {"raw", "mitigated"}
        s = res.summary()
        assert {"exact", "biased_value", "means", "std_errors", "params"} <= set(s)

    def test_reproducible(self):
        a = fig4_experiment(0.1, shots=256, trials=4, seed=9)
        b = fig4_experiment(0.1, shots=256, trials=4, seed=9)
        assert np.array_equal(a.raw_estimates, b.raw_estimates)
        assert np.array_equal(a.mitigated_estimates, b.mitigated_estimates)

    @pytest.mark.parametrize("eps", [0.05, 0.17, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mitigated_protocol_is_the_nqubit_retriever(self, n, eps):
        # the experiment's k = 2 recursive retriever has the shift and the H_2 law of
        # de_second_moment_nqubit, so it samples the same estimates
        mine, named = de_kth_moment(eps, 2, 2 ** n), de_second_moment_nqubit(eps, n)
        assert_allclose([mine.f, mine.t], [named.f, named.t], rtol=0, atol=1e-12)
        noise = depolarizing(eps, 2 ** n)
        for seed in range(3):
            rho = random_density_matrix(2 ** n, seed)
            assert_allclose(_h_distribution(output_traces(mine, rho, noise), 2),
                            _h_distribution(output_traces(named, rho, noise), 2),
                            rtol=0, atol=1e-12)

    def test_three_qubit_subsystem(self):
        res = fig4_experiment(0.1, subsystem=[0, 1, 2], shots=256, trials=4, seed=0)
        assert res.subsystem == (0, 1, 2)
        assert np.isfinite(res.raw_mean) and np.isfinite(res.mitigated_mean)
        assert np.all(np.isfinite(res.std_errors()))

    def test_five_qubit_subsystem(self):
        # the raw estimator reads the moments of one noisy copy: its traces are those of
        # the 1024 x 1024 joint state, which the experiment never builds (16 MiB)
        subsystem, eps = [0, 1, 2, 3, 4], 0.1
        rho = reduced_state(model_ground_state(demo_model()), subsystem)  # cached for the run
        noise = depolarizing(eps, 32)
        assert_allclose(output_traces(identity_protocol(2, 32), rho, noise),
                        cycle_traces(noisy_copies(rho, noise, 2).entries, 2, 32), atol=1e-12)
        tracemalloc.start()
        try:
            res = fig4_experiment(eps, subsystem=subsystem, shots=16, trials=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.subsystem == tuple(subsystem)
        assert np.all(np.abs(res.raw_estimates) <= 1.0)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("subsystem", [[0, 1], [1, 3], [0, 1, 2]])
    def test_estimates_equal_one_run_per_trial(self, subsystem, seed):
        # building each distribution once must give the estimates of one
        # full run_choi_map per trial, bit for bit
        eps, shots, trials = 0.17, 300, 5
        res = fig4_experiment(eps, subsystem=subsystem, shots=shots,
                              trials=trials, seed=seed)
        rho_a = reduced_state(ground_state(build_hamiltonian(demo_model())), subsystem)
        n = len(subsystem)
        noise = depolarizing(eps, 2 ** n)
        protocols = [identity_protocol(2, 2 ** n), de_kth_moment(eps, 2, 2 ** n)]
        expected = [[run_choi_map(p, rho_a, noise, shots, derive_seed(seed, t, j)).estimate
                     for t in range(trials)] for j, p in enumerate(protocols)]
        assert res.raw_estimates.tolist() == expected[0]
        assert res.mitigated_estimates.tolist() == expected[1]

    @pytest.mark.parametrize("shots, trials", [(_BLOCK + 5, 2), (3000, 50)],
                             ids=["run_spans_blocks", "partial_block_of_runs"])
    def test_estimates_equal_one_run_per_trial_across_blocks(self, shots, trials):
        # a run longer than a block, and a trial count that fills blocks of whole
        # runs and leaves the last one part full
        rows = _BLOCK // shots
        assert shots > _BLOCK or trials > rows and trials % rows
        eps, seed, subsystem = 0.12, 5, [0, 1]
        res = fig4_experiment(eps, subsystem=subsystem, shots=shots, trials=trials, seed=seed)
        rho_a = reduced_state(ground_state(build_hamiltonian(demo_model())), subsystem)
        noise = depolarizing(eps, 4)
        protocols = [identity_protocol(2, 4), de_kth_moment(eps, 2, 4)]
        expected = [[run_choi_map(p, rho_a, noise, shots, derive_seed(seed, t, j)).estimate
                     for t in range(trials)] for j, p in enumerate(protocols)]
        assert res.raw_estimates.tolist() == expected[0]
        assert res.mitigated_estimates.tolist() == expected[1]
