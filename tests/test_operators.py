import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.operators import (
    I2,
    Operator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density_matrix,
    tensor_product,
)


class TestTensorProduct:
    def test_identity_case(self):
        out = tensor_product(Operator(np.eye(2)), Operator(np.eye(2)))
        assert_allclose(out.entries, np.eye(4))
        assert out.subsystem_dims == (2, 2)

    def test_pauli_xx_antidiagonal(self):
        out = tensor_product(Operator(PAULI_X), Operator(PAULI_X))
        assert_allclose(out.entries, np.fliplr(np.eye(4)))

    def test_purity_multiplies(self):
        # direct matrix-multiplication oracle on a purity-0.7 state
        rho = Operator(np.diag([(1 + np.sqrt(0.4)) / 2, (1 - np.sqrt(0.4)) / 2]))
        assert_allclose(np.trace(rho.entries @ rho.entries).real, 0.7)
        out = tensor_product(rho, rho)
        assert_allclose(out.trace().real, 1.0)
        assert_allclose(np.trace(out.entries @ out.entries).real, 0.49)

    def test_index_law(self, rho_pair):
        a, b = rho_pair
        out = tensor_product(a, b)
        for (i, j, k, l) in [(0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1)]:
            assert out.entries[i * 2 + k, j * 2 + l] == a.entries[i, j] * b.entries[k, l]

    @pytest.mark.parametrize("da,db", [(3, 2), (2, 3)])
    def test_matches_kron_bitwise(self, da, db):
        # the smaller factor is looped over on either side
        a, b = random_density_matrix(da, 1), random_density_matrix(db, 2)
        out = tensor_product(a, b)
        assert np.array_equal(out.entries, np.kron(a.entries, b.entries))
        assert out.subsystem_dims == (da, db)


class TestPartialTrace:
    def test_product_state(self):
        zz = np.zeros((4, 4), dtype=complex)
        zz[0, 0] = 1.0
        out = partial_trace(Operator(zz, (2, 2)), [0])
        assert_allclose(out.entries, [[1, 0], [0, 0]])

    def test_bell_marginal(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        out = partial_trace(Operator(np.outer(phi, phi), (2, 2)), [1])
        assert_allclose(out.entries, np.eye(2) / 2)

    def test_index_sum_oracle(self):
        rho = Operator(random_density_matrix(4, 5).entries, (2, 2))
        manual = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for a in range(2):
                for b in range(2):
                    manual[a, b] += rho.entries[a * 2 + i, b * 2 + i]
        assert_allclose(partial_trace(rho, [0]).entries, manual, atol=1e-14)

    def test_full_trace(self):
        rho = Operator(random_density_matrix(8, 3).entries, (2, 2, 2))
        out = partial_trace(rho, [])
        assert abs(out.entries[0, 0] - rho.trace()) < 1e-12

    def test_invalid_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(Operator(random_density_matrix(4, 0).entries, (2, 2)), [2])

    def test_keep_order(self):
        rho = Operator(random_density_matrix(8, 9).entries, (2, 2, 2))
        swapped = partial_trace(rho, [2, 0])
        direct = partial_trace(rho, [0, 2])
        assert_allclose(swapped.entries.reshape(2, 2, 2, 2),
                        direct.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2),
                        atol=1e-14)


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.eye(4), (2, 3))


def test_hermiticity_predicate():
    assert Operator(PAULI_Y).is_hermitian()
    assert not Operator([[0, 1], [0, 0]]).is_hermitian()


def test_operator_unchanged_when_its_source_is_written():
    m = np.eye(2, dtype=complex)
    op = Operator(m)
    m[0, 1] = 5.0
    assert_allclose(op.entries, np.eye(2))
    assert not op.entries.flags.writeable


def test_operator_keeps_a_frozen_array_it_owns():
    m = np.eye(2, dtype=complex)
    m.flags.writeable = False
    assert Operator(m).entries is m
    assert Operator(m[:1, :1]).entries.base is None  # a view is copied


def _awkward_matrix() -> np.ndarray:
    """Entries whose bits a lossy codec would change: signed zeros, subnormals, extremes."""
    m = np.empty((2, 3), dtype=complex)
    m.real = [[-0.0, 5e-324, -2.2250738585072014e-308], [1.7976931348623157e+308, 0.1, -1 / 3]]
    m.imag = [[0.0, -0.0, 1e-320], [-5e-324, np.pi, -1.7976931348623157e+308]]
    return m


@pytest.mark.parametrize("form", ["object", "pairs"])
def test_matrix_codec_round_trips_every_bit(form):
    m = _awkward_matrix()
    doc = matrix_to_json(m) if form == "object" else \
        np.stack([m.real, m.imag], axis=-1).tolist()
    back = matrix_from_json(json.loads(json.dumps(doc)))
    assert back.dtype == complex and back.shape == (2, 3)
    assert back.tobytes() == m.tobytes()


def test_matrix_object_form():
    doc = matrix_to_json(np.arange(6).reshape(3, 2) * (1 + 2j))
    assert doc == {"shape": [3, 2], "base64": doc["base64"]}
    assert isinstance(doc["base64"], str)


@pytest.mark.parametrize("bad, message", [
    ({"shape": [1, 1]}, "a JSON matrix lacks the key 'base64'"),
    ({"base64": "AAAA"}, "a JSON matrix lacks the key 'shape'"),
    ({"shape": [1, 1], "base64": "AA*A"}, "a JSON matrix holds text that is not base64"),
    ({"shape": [1, 1], "base64": 7}, "a JSON matrix holds text that is not base64"),
    ({"shape": [1, 2], "base64": "AAAA"}, "a JSON matrix holds 3 bytes, not the 32 of a 1 x 2 "
                                          "matrix"),
    ({"shape": [0, 1], "base64": ""}, "a JSON matrix has shape [0, 1], not two positive "
                                      "integers"),
    ({"shape": [True, 1], "base64": ""}, "a JSON matrix has shape [True, 1], not two "
                                         "positive integers"),
    ({"shape": [1, 1, 1], "base64": ""}, "a JSON matrix has shape [1, 1, 1], not two "
                                         "positive integers"),
    ({"shape": [1, 1], "base64": matrix_to_json([[np.nan]])["base64"]},
     "a JSON matrix has a non-finite entry"),
    ([[[0.0, float("inf")]]], "a JSON matrix has a non-finite entry"),
    ({"a": 1}, "a JSON matrix is a list of rows of [real, imag] pairs"),
    ([[1.0, 2.0]], "a JSON matrix is a list of rows of [real, imag] pairs"),
])
def test_matrix_codec_refuses(bad, message):
    with pytest.raises(ValueError) as err:
        matrix_from_json(bad)
    assert str(err.value) == message


def test_matrix_codec_names_the_field():
    with pytest.raises(ValueError, match=r"^a matrix in JSON field 'choi' has a non-finite "):
        matrix_from_json([[[np.nan, 0.0]]], "choi")
