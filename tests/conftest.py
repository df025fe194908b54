import numpy as np
import pytest

from momentshift.operators import Operator, random_density_matrix, tensor_product


def noisy_copies(rho: Operator, noise, k: int) -> Operator:
    """k noisy copies N^(x k)(rho^(x k)) as one joint state: each copy's Kraus
    operators act along that copy's row and column axes of rho^(x k)."""
    joint = rho
    for _ in range(k - 1):
        joint = tensor_product(joint, rho)
    t = joint.entries.reshape((rho.dim,) * (2 * k))
    kraus = np.stack(noise.kraus)
    for i in range(k):
        t = np.moveaxis(t, (i, k + i), (0, 1))
        t = np.einsum("rab,bc...,rdc->ad...", kraus, t, kraus.conj())
        t = np.moveaxis(t, (0, 1), (i, k + i))
    d = noise.out_dim ** k
    return Operator(t.reshape(d, d))


def true_moment(rho: Operator, k: int) -> float:
    return float(np.trace(np.linalg.matrix_power(rho.entries, k)).real)


@pytest.fixture
def rho_pair():
    return random_density_matrix(2, 11), random_density_matrix(2, 12)
