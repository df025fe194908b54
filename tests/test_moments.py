from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.moments import (
    cycle_orbits,
    cyclic_shift_index,
    moment_observable,
    permutation_eigenprojectors,
)
from momentshift.operators import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    random_density_matrix,
    tensor_product,
)
from conftest import true_moment
from oracles import cyclic_permutation


def _copies(rho, k):
    out = rho
    for _ in range(k - 1):
        out = tensor_product(out, rho)
    return out


class TestCyclicPermutation:
    def test_swap(self):
        s = cyclic_permutation(2, 2)
        assert_allclose(s.entries,
                        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

    def test_shift_action(self):
        s = cyclic_permutation(3, 2)
        v = np.zeros(8)
        v[0b011] = 1.0
        out = s.entries @ v
        assert out[0b110] == 1.0 and np.sum(np.abs(out)) == 1.0

    @pytest.mark.parametrize("k,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_unitary(self, k, d):
        s = cyclic_permutation(k, d).entries
        assert_allclose(s @ s.conj().T, np.eye(d ** k), atol=1e-14)

    def test_dagger_inverse_shift(self):
        s = cyclic_permutation(3, 2)
        v = np.zeros(8)
        v[0b110] = 1.0
        out = s.entries.conj().T @ v
        assert out[0b011] == 1.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            cyclic_permutation(14, 2)


def _string_charges(k, d):
    """Excitation number of each basis string of k copies of C^d: its digits' popcounts."""
    digits = [np.arange(d ** k) // d ** (k - 1 - i) % d for i in range(k)]
    return sum(np.array([bin(v).count("1") for v in range(d)])[x] for x in digits)


class TestMomentObservable:
    def test_h2_pauli_form(self):
        expect = (np.kron(I2, I2) + np.kron(PAULI_X, PAULI_X)
                  + np.kron(PAULI_Y, PAULI_Y) + np.kron(PAULI_Z, PAULI_Z)) / 2
        assert_allclose(moment_observable(2, 2).entries, expect)

    def test_maximally_mixed_purity(self):
        from momentshift.operators import Operator
        h = moment_observable(2, 2)
        rho = Operator(np.eye(2) / 2)
        val = np.trace(h.entries @ _copies(rho, 2).entries).real
        assert_allclose(val, 0.5)

    def test_pure_state_all_orders(self):
        rho = random_density_matrix(2, 5, rank=1)
        for k in (2, 3, 5):
            h = moment_observable(k, 2)
            assert_allclose(np.trace(h.entries @ _copies(rho, k).entries).real, 1.0,
                            atol=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_trace_identity_many_states(self, k):
        h = moment_observable(k, 2)
        s = cyclic_permutation(k, 2).entries
        for seed in range(100):
            rho = random_density_matrix(2, seed)
            joint = _copies(rho, k).entries
            truth = true_moment(rho, k)
            assert abs(np.trace(s @ joint).real - truth) < 1e-10
            assert abs(np.trace(s.conj().T @ joint).real - truth) < 1e-10
            assert abs(np.trace(h.entries @ joint).real - truth) < 1e-10

    def test_eigenvalue_bound(self):
        for k in (2, 3, 4, 5):
            w = np.linalg.eigvalsh(moment_observable(k, 2).entries)
            assert w.min() >= -1 - 1e-12 and w.max() <= 1 + 1e-12

    @pytest.mark.parametrize("k,d", [(k, d) for d in (2, 3, 4) for k in range(1, 6)
                                     if d ** k <= 1024])
    def test_scattered_from_the_shift_index_bit_for_bit(self, k, d):
        s = cyclic_permutation(k, d).entries
        assert np.array_equal(moment_observable(k, d).entries, (s + s.conj().T) / 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_moment_observable_has_both_symmetries(self, d):
        # H_k commutes with the copy cycle and conserves the excitation charge
        for k in range(2, 6):
            h = moment_observable(k, d).entries
            p = cyclic_shift_index(k, d)
            assert np.array_equal(h[np.ix_(p, p)], h)
            n = _string_charges(k, d)
            assert not h[n[:, None] != n].any()


def _min_rotation_necklaces(k, d):
    """Brute-force oracle: every string that is its own smallest rotation, in order."""
    return [x for x in product(range(d), repeat=k)
            if x == min(x[i:] + x[:i] for i in range(k))]


class TestCycleOrbits:
    def test_mixed_cycle_lengths(self):
        perm = np.array([1, 0, 2, 4, 5, 3])  # cycles (0 1), (2), (3 4 5)
        orbits, starts, lengths = cycle_orbits(perm, 6)
        assert starts.tolist() == [0, 2, 3] and lengths.tolist() == [2, 1, 3]
        assert orbits[:3, 3].tolist() == [3, 4, 5]
        assert (orbits[:, perm] == perm[orbits]).all()


def _orbit_minima(k, d):
    """Digit strings of the smallest indices of S_k's orbits, ascending."""
    starts = cycle_orbits(cyclic_shift_index(k, d), k)[1]
    return [tuple(x) for x in (starts[:, None] // d ** np.arange(k - 1, -1, -1) % d).tolist()]


class TestNecklaces:
    """The orbit minima of the copy cycle are its necklaces."""

    @pytest.mark.parametrize("k,d", [(4, 2), (6, 2), (4, 3)])
    def test_composite_order_matches_min_rotation(self, k, d):
        assert _orbit_minima(k, d) == _min_rotation_necklaces(k, d)

    def test_k3_d2_canonical(self):
        assert _orbit_minima(3, 2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]

    def test_k2_cardinality(self):
        assert len(_orbit_minima(2, 2)) == (2 ** 2 - 2) // 2 + 2

    @pytest.mark.parametrize("k,d", [(2, 2), (3, 2), (5, 2), (3, 3)])
    def test_prime_order_cardinality(self, k, d):
        assert len(_orbit_minima(k, d)) == (d ** k - d) // k + d

    def test_rotations_cover_everything(self):
        reps = _orbit_minima(3, 2)
        covered = set()
        for x in reps:
            for l in range(3):
                covered.add(x[l:] + x[:l])
        assert covered == set(product(range(2), repeat=3))


def _ranks(spec):
    """Rank of each eigenprojector, read off its trace."""
    return tuple(round(np.trace(p.entries).real) for p in spec.projectors)


class TestSpectrum:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_reconstruction(self, k):
        spec = permutation_eigenprojectors(k, 2)
        om = np.exp(2j * np.pi / k)
        s = sum(om ** (-m) * spec.projectors[m].entries for m in range(k))
        assert np.max(np.abs(s - cyclic_permutation(k, 2).entries)) < 1e-12

    @pytest.mark.parametrize("k,d", [(4, 3), (6, 2)])
    def test_projector_is_phase_average_of_shift_powers(self, k, d):
        s = cyclic_permutation(k, d).entries
        powers = [np.linalg.matrix_power(s, j) for j in range(k)]
        om = np.exp(2j * np.pi / k)
        spec = permutation_eigenprojectors(k, d)
        for m in range(k):
            ref = sum(om ** (j * m) * powers[j] for j in range(k)) / k
            assert_allclose(spec.projectors[m].entries, ref, rtol=0, atol=1e-12)

    def test_projector_orthogonality(self):
        spec = permutation_eigenprojectors(4, 2)
        for m in range(4):
            for mp in range(4):
                prod = spec.projectors[m].entries @ spec.projectors[mp].entries
                ref = spec.projectors[m].entries if m == mp else np.zeros((16, 16))
                assert np.max(np.abs(prod - ref)) < 1e-10

    def test_rank_counts(self):
        assert _ranks(permutation_eigenprojectors(2, 2)) == (3, 1)
        assert _ranks(permutation_eigenprojectors(3, 2)) == (4, 2, 2)

    def test_total_dimension(self):
        for k, d in ((3, 2), (4, 2), (5, 2), (3, 3)):
            spec = permutation_eigenprojectors(k, d)
            assert sum(_ranks(spec)) == d ** k

    def test_fixed_points_only_in_m0(self):
        spec = permutation_eigenprojectors(3, 2)
        constant = [(0, 0, 0), (1, 1, 1)]
        for x in constant:
            assert (0, x) in spec.eigenstates
            assert (1, x) not in spec.eigenstates

    def test_eigenstates_orthonormal(self):
        spec = permutation_eigenprojectors(4, 2)
        vecs = list(spec.eigenstates.values())
        g = np.array([[v.conj() @ w for w in vecs] for v in vecs])
        assert np.max(np.abs(g - np.eye(len(vecs)))) < 1e-10
