from functools import lru_cache

import numpy as np
import pytest

from momentshift import Operator, apply, random_density_matrix, tensor_power, tensor_product


@lru_cache(maxsize=8)  # a few channels in flight; each k = 5 power is up to 16 MiB
def _noise_power(noise, k: int):
    """tensor_power(noise, k), built once per (channel object, k)."""
    return tensor_power(noise, k)


def noisy_copies(rho: Operator, noise, k: int) -> Operator:
    """k noisy copies N(rho)^(x k) as one joint state, through N^(x k)(rho^(x k))."""
    joint = rho
    for _ in range(k - 1):
        joint = tensor_product(joint, rho)
    return apply(_noise_power(noise, k), joint)


def true_moment(rho: Operator, k: int) -> float:
    return float(np.trace(np.linalg.matrix_power(rho.entries, k)).real)


@pytest.fixture
def rho_pair():
    return random_density_matrix(2, 11), random_density_matrix(2, 12)
