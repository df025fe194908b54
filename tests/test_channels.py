import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import (
    Channel,
    _weyl_operators,
    amplitude_damping,
    apply,
    channel_from_json,
    channel_matrix,
    channel_to_json,
    depolarizing,
    is_invertible,
    noisy_copies,
    tensor_power,
)
from momentshift.operators import (
    Operator,
    PAULI_Z,
    matrix_rank,
    partial_trace,
    random_density_matrix,
    tensor_product,
)
from conftest import noisy_copies as oracle_noisy_copies
from oracles import (compose, identity_channel, is_cptp, link_product, weyl_depolarizing,
                     weyl_operators)


class TestDepolarizing:
    def test_eps_zero_identity(self):
        rho = random_density_matrix(2, 0)
        assert_allclose(apply(depolarizing(0.0, 2), rho).entries, rho.entries, atol=1e-14)

    def test_formula_on_ground_state(self):
        out = apply(depolarizing(0.1, 2), Operator([[1, 0], [0, 0]]))
        assert_allclose(out.entries, np.diag([0.95, 0.05]), atol=1e-14)

    def test_fully_mixing(self):
        for seed in range(3):
            rho = random_density_matrix(2, seed)
            out = apply(depolarizing(1.0, 2), rho)
            assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing(1.5, 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_qudit_action_and_cptp(self, d):
        eps = 0.3
        c = depolarizing(eps, d)
        assert is_cptp(c)
        rho = random_density_matrix(d, d)
        out = apply(c, rho)
        assert_allclose(out.entries, (1 - eps) * rho.entries + eps * np.eye(d) / d,
                        atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_closed_form_matches_weyl_kraus(d):
    # the closed form and its adjoint against the Kraus sum; the Kraus list, built on
    # request, is the Weyl construction bit for bit
    eps = 0.3
    c, ref = depolarizing(eps, d), weyl_depolarizing(eps, d)
    rho = random_density_matrix(d, d).entries
    obs = random_density_matrix(d, d + 10).entries
    obs = (obs - np.trace(obs) * np.eye(d) / d) * d
    assert_allclose(c.apply(rho), ref.apply(rho), rtol=0, atol=1e-14)
    assert_allclose(c.adjoint_apply(obs), ref.adjoint_apply(obs), rtol=0, atol=1e-14)
    assert len(c.kraus) == len(ref.kraus) == d * d
    assert all(a.tobytes() == b.tobytes() for a, b in zip(c.kraus, ref.kraus))


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_basis_matches_matrix_powers(d):
    # index arithmetic against the products of shift and clock matrix powers; the
    # qubit and two-qubit bases, which every depolarizing run builds, bit for bit
    got, want = _weyl_operators(d), np.array(weyl_operators(d))
    assert_allclose(got, want, rtol=0, atol=1e-14)
    if d in (2, 4):
        assert np.array_equal(got, want)


class TestAmplitudeDamping:
    def test_excited_state(self):
        out = apply(amplitude_damping(0.2), Operator([[0, 0], [0, 1]]))
        assert_allclose(out.entries, np.diag([0.2, 0.8]), atol=1e-14)

    def test_eps_zero(self):
        rho = random_density_matrix(2, 1)
        assert_allclose(apply(amplitude_damping(0.0), rho).entries, rho.entries)

    def test_general_state_matrix(self):
        eps = 0.35
        rho = random_density_matrix(2, 7)
        r = rho.entries
        expect = np.array([
            [r[0, 0] + eps * r[1, 1], np.sqrt(1 - eps) * r[0, 1]],
            [np.sqrt(1 - eps) * r[1, 0], (1 - eps) * r[1, 1]],
        ])
        assert_allclose(apply(amplitude_damping(eps), rho).entries, expect, atol=1e-14)

    def test_cptp(self):
        assert is_cptp(amplitude_damping(0.6))


class TestChoi:
    def test_identity_channel(self):
        j = identity_channel(2).choi()
        assert matrix_rank(j.entries) == 1
        assert_allclose(j.trace().real, 2.0)

    def test_full_depolarizing(self):
        j = depolarizing(1.0, 2).choi()
        assert_allclose(j.entries, np.kron(np.eye(2), np.eye(2) / 2), atol=1e-14)

    def test_choi_apply_consistent(self):
        c = amplitude_damping(0.25)
        via_choi = Channel(2, 2, choi=c.choi())
        for seed in range(4):
            rho = random_density_matrix(2, seed)
            assert_allclose(apply(via_choi, rho).entries, apply(c, rho).entries,
                            atol=1e-12)
            obs = random_density_matrix(2, seed + 50)
            assert_allclose(via_choi.adjoint_apply(obs.entries),
                            c.adjoint_apply(obs.entries), atol=1e-12)

    def test_builtin_channels_cptp(self):
        for c in (depolarizing(0.3, 2), amplitude_damping(0.4), identity_channel(3)):
            j = c.choi()
            assert j.min_eigenvalue() >= -1e-9
            marg = partial_trace(Operator(j.entries, (c.in_dim, c.out_dim)), [0])
            assert_allclose(marg.entries, np.eye(c.in_dim), atol=1e-9)


class TestAdjointDuality:
    def test_duality_random_pairs(self):
        c = amplitude_damping(0.3)
        for seed in range(5):
            rho = random_density_matrix(2, seed)
            obs = random_density_matrix(2, 100 + seed)
            lhs = np.trace(obs.entries @ apply(c, rho).entries)
            rhs = np.trace(c.adjoint_apply(obs.entries) @ rho.entries)
            assert abs(lhs - rhs) < 1e-10

    def test_adjoint_unital(self):
        for c in (depolarizing(0.7, 2), amplitude_damping(0.2)):
            assert_allclose(c.adjoint_apply(np.eye(2)), np.eye(2), atol=1e-12)
        nk = tensor_power(depolarizing(0.3, 2), 3)
        assert_allclose(nk.adjoint_apply(np.eye(8)), np.eye(8), atol=1e-12)

    def test_depolarizing_contracts_traceless(self):
        out = depolarizing(0.3, 2).adjoint_apply(PAULI_Z)
        assert_allclose(out, 0.7 * PAULI_Z, atol=1e-12)


class TestTensorPower:
    def test_k1_same(self):
        c = amplitude_damping(0.1)
        assert tensor_power(c, 1) is c

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            tensor_power(identity_channel(2), 0)

    def test_product_action(self, rho_pair):
        a, b = rho_pair
        de = depolarizing(0.2, 2)
        joint = apply(tensor_power(de, 2), tensor_product(a, b))
        expect = np.kron(apply(de, a).entries, apply(de, b).entries)
        assert_allclose(joint.entries, expect, atol=1e-12)

    def test_four_term_expansion(self):
        # (1-e)^2 rho x rho + e(1-e)/2 I x rho + (1-e)e/2 rho x I + e^2/4 I x I
        eps = 0.3
        rho = random_density_matrix(2, 4)
        joint = apply(tensor_power(depolarizing(eps, 2), 2),
                      tensor_product(rho, rho))
        r, eye = rho.entries, np.eye(2)
        expect = ((1 - eps) ** 2 * np.kron(r, r)
                  + eps * (1 - eps) / 2 * np.kron(eye, r)
                  + (1 - eps) * eps / 2 * np.kron(r, eye)
                  + eps ** 2 / 4 * np.kron(eye, eye))
        assert_allclose(joint.entries, expect, atol=1e-12)

    def test_cptp_k3(self):
        assert is_cptp(tensor_power(amplitude_damping(0.25), 3))


@pytest.mark.parametrize("noise", [depolarizing(0.3, 2), amplitude_damping(0.4)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_noisy_copies_is_product_of_noisy_states(noise, k):
    rho = random_density_matrix(2, 5)
    assert_allclose(noisy_copies(rho, noise, k).entries,
                    oracle_noisy_copies(rho, noise, k).entries, atol=1e-12)


def test_noisy_copies_needs_one_copy():
    with pytest.raises(ValueError, match="k >= 1"):
        noisy_copies(random_density_matrix(2, 5), depolarizing(0.3, 2), 0)


def test_noisy_copies_of_two_qubit_states():
    noise = depolarizing(0.3, 4)
    rho = random_density_matrix(4, 5)
    assert_allclose(noisy_copies(rho, noise, 2).entries,
                    oracle_noisy_copies(rho, noise, 2).entries, atol=1e-12)


class TestChannelMatrix:
    def test_identity(self):
        m = channel_matrix(identity_channel(2))
        assert_allclose(m, np.eye(4))

    def test_vec_action(self):
        rng = np.random.default_rng(3)
        c = amplitude_damping(0.45)
        m = channel_matrix(c)
        x = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        # column-index-first vectorization |X> = sum_ij X_ij |j>|i>
        assert_allclose(m @ x.entries.T.reshape(-1), apply(c, x).entries.T.reshape(-1),
                        atol=1e-12)

    def test_full_depolarizing_rank_one(self):
        assert matrix_rank(channel_matrix(depolarizing(1.0, 2))) == 1

    def test_de_half_spectrum(self):
        w = np.linalg.eigvals(channel_matrix(depolarizing(0.5, 2)))
        assert_allclose(sorted(w.real), [0.5, 0.5, 0.5, 1.0], atol=1e-12)
        assert_allclose(w.imag, 0, atol=1e-12)


class TestInvertibility:
    def test_identity_invertible(self):
        assert is_invertible(identity_channel(2))

    def test_full_depolarizing_not(self):
        assert not is_invertible(depolarizing(1.0, 2))

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.5, 0.9, 0.999])
    def test_partial_depolarizing(self, eps):
        assert is_invertible(depolarizing(eps, 2))


def _random_cptp(d_in: int, d_out: int, seed: int, n_kraus: int = 3) -> Channel:
    """Random channel d_in -> d_out from a Haar-ish isometry (QR of a Ginibre block)."""
    rng = np.random.default_rng(seed)
    shape = (n_kraus * d_out, d_in)
    v, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    kraus = [v[i * d_out:(i + 1) * d_out, :] for i in range(n_kraus)]
    return Channel(d_in, d_out, kraus=kraus, label=f"random{seed}")


def _link(first: Channel, second: Channel) -> np.ndarray:
    """Choi of ``second . first`` through the link product of one Choi each."""
    dims = (first.in_dim, first.out_dim, second.out_dim)
    return link_product(first.choi(), second.choi().entries[None], dims)[0]


def test_link_product_matches_kraus_composition():
    first = amplitude_damping(0.3)
    second = depolarizing(0.25, 2)
    assert_allclose(_link(first, second), compose(second, first).choi().entries, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_product_random_channels(seed):
    first = _random_cptp(2, 2, seed)
    second = _random_cptp(2, 2, seed + 10)
    assert is_cptp(first) and is_cptp(second)
    assert_allclose(_link(first, second), compose(second, first).choi().entries, atol=1e-10)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4), (1, 2, 3)])
def test_link_product_unequal_dimensions(dims):
    da, db, dc = dims
    first, second = _random_cptp(da, db, 1), _random_cptp(db, dc, 2)
    assert is_cptp(first) and is_cptp(second)
    assert_allclose(_link(first, second), compose(second, first).choi().entries, atol=1e-12)


def test_link_product_of_a_stack_is_each_link():
    first = _random_cptp(2, 3, 5)
    seconds = [_random_cptp(3, 2, seed) for seed in (6, 7, 8)]
    stack = link_product(first.choi(), np.stack([c.choi().entries for c in seconds]), (2, 3, 2))
    assert stack.shape == (3, 4, 4)
    for j, second in zip(stack, seconds):
        assert_allclose(j, compose(second, first).choi().entries, atol=1e-12)


def test_json_round_trip(tmp_path):
    c = amplitude_damping(0.15)
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(channel_to_json(c)))
    c2 = channel_from_json(json.loads(path.read_text()))
    assert c2.label == c.label
    assert_allclose(c2.choi().entries, c.choi().entries, atol=1e-15)
    doc = channel_to_json(c)
    assert set(doc) == {"label", "in_dim", "out_dim", "kraus"}
    assert_allclose(channel_from_json(doc).choi().entries, c.choi().entries)
