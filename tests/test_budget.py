"""The one memory budget: every dense allocation site refuses an oversized
request with the MiB it needs, before allocating anything."""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from momentshift import moments
from momentshift.channels import (Channel, amplitude_damping, depolarizing, noisy_copies,
                                  tensor_power)
from momentshift.cli import main
from momentshift.hubbard import HubbardModel, build_hamiltonian
from momentshift.moments import moment_observable, permutation_eigenprojectors
from momentshift.operators import MEMORY_BUDGET, random_density_matrix
from momentshift.protocols import (
    contract_residual,
    de_kth_moment,
    de_second_moment_nqubit,
)
from momentshift.sdp import programs, solver
from momentshift.sdp.programs import build_fmin, build_gmin, build_info_recover
from momentshift.sdp.solver import compile_problem
from oracles import cyclic_permutation, recovery_map, transfer_maps

BUDGET_MESSAGE = rf"needs \d+ MiB, over the {MEMORY_BUDGET // 2 ** 20} MiB memory budget"

# site: builds (outside the measured window) the over-budget call to make
OVER_BUDGET = {
    "tensor_power": lambda: partial(tensor_power, depolarizing(0.1, 16), 2),
    "noisy_copies": lambda: partial(noisy_copies, random_density_matrix(2, 0),
                                    depolarizing(0.1, 2), 16),
    "depolarizing": lambda: partial(getattr, depolarizing(0.1, 128), "kraus"),
    "de2_qudit_map": lambda: de_second_moment_nqubit(0.1, 7).realization.choi,
    "contract_residual": lambda: partial(contract_residual, de_kth_moment(0.1, 14, 2),
                                         depolarizing(0.1, 2)),
    "cyclic_permutation": lambda: partial(cyclic_permutation, 14, 2),
    "moment_observable": lambda: partial(moment_observable, 14, 2),
    "random_density_matrix": lambda: partial(random_density_matrix, 2 ** 15, 0),
    "permutation_eigenprojectors": lambda: partial(permutation_eigenprojectors, 12, 2),
    "transfer_maps": lambda: transfer_maps(12, 2).forward.choi,
    "de_kth_moment": lambda: de_kth_moment(0.1, 12, 2).realization.choi,
    "recovery_map_choi": lambda: recovery_map(7, 3, 2).choi,
    "recursive_choi": lambda: de_kth_moment(0.1, 7, 2).realization.choi,
    # a qutrit channel at k = 3: J has 531,441 coordinates
    "build_fmin": lambda: partial(build_fmin, Channel(3, 3, kraus=[
        np.sqrt(0.9) * np.eye(3), np.sqrt(0.1) * np.roll(np.eye(3), 1, axis=0)]), 3),
    # refused by the dense estimate, before H_k or any adjoint image is built
    "build_fmin_k7": lambda: partial(build_fmin, amplitude_damping(0.2), 7),
    "build_fmin_k12": lambda: partial(build_fmin, amplitude_damping(0.2), 12),
    "build_gmin": lambda: partial(build_gmin, depolarizing(0.1, 16)),
    "build_info_recover": lambda: partial(build_info_recover,
                                          tensor_power(amplitude_damping(0.1), 5),
                                          moment_observable(5, 2)),
    "build_hamiltonian": lambda: partial(build_hamiltonian, HubbardModel(sites=6)),
}


@pytest.mark.parametrize("site", sorted(OVER_BUDGET))
def test_over_budget_refused_before_allocating(site):
    call = OVER_BUDGET[site]()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=BUDGET_MESSAGE):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_noisy_copies_holds_the_joint_state_once():
    rho, noise = random_density_matrix(4, 0), depolarizing(0.1, 4)
    tracemalloc.start()
    try:
        joint = noisy_copies(rho, noise, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * joint.entries.nbytes  # 1 MiB joint state at d = 4, k = 4


@pytest.mark.parametrize("k, d", [(6, 2), (4, 4), (3, 8)])
def test_moment_observable_peak_within_its_gate(k, d, monkeypatch):
    # H_k is frozen before it is wrapped, so the Operator holds it without a copy
    requested = []
    monkeypatch.setattr(moments, "check_memory", lambda nbytes, what: requested.append(nbytes))
    tracemalloc.start()
    try:
        moment_observable(k, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (gate,) = requested
    assert peak <= gate + 8 * 2 ** 10  # and the interpreter's objects, the same at every size


@pytest.mark.parametrize("build", [
    lambda: build_fmin(amplitude_damping(0.2), 2),
    lambda: build_gmin(depolarizing(0.2, 2)),
    lambda: build_info_recover(tensor_power(amplitude_damping(0.2), 2),
                               moment_observable(2, 2)),
], ids=["fmin", "gmin", "info_recover"])
def test_program_estimate_matches_compiled_shape(build, monkeypatch):
    declared = []
    monkeypatch.setattr(programs, "check_program_memory",
                        lambda name, blocks, scalars, target_dims: declared.append(
                            (blocks, scalars, target_dims)))
    p = build()
    (blocks, scalars, target_dims), = declared
    assert (blocks, scalars) == (p.blocks, p.scalars)
    m = sum(t * t for t in target_dims)
    n = sum(b.size for b in blocks) + len(scalars)
    assert compile_problem(p).A.shape == (m, n)


def test_program_estimate_counts_the_acceleration_history(monkeypatch):
    # the history holds 2 x ANDERSON_MEMORY float vectors of the state (z, u), 2n long
    memory, requested = solver.ANDERSON_MEMORY, []
    monkeypatch.setattr(solver, "check_memory", lambda nbytes, what: requested.append(nbytes))
    for size in (0, memory):
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", size)
        p = build_fmin(amplitude_damping(0.2), 2)
    assert requested[1] - requested[0] == 8 * 2 * memory * 2 * compile_problem(p).n


def test_k4_shift_compile_peak():
    # rows are written into A, one chunk of 256 x 256 adjoint images at a time; a build
    # by columns holds 526 MiB
    p = build_fmin(amplitude_damping(0.2), 4)
    tracemalloc.start()
    try:
        A = compile_problem(p).A
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - A.nbytes < 64 * 2 ** 20


def test_k4_programs_fit_budget():
    # the k = 4 shift and recover programs of `overhead-sweep --k 4` still pass the gate
    assert build_fmin(amplitude_damping(0.2), 4).blocks[0].dim == 256
    p = build_info_recover(tensor_power(amplitude_damping(0.2), 4), moment_observable(4, 2))
    assert [b.dim for b in p.blocks] == [256, 256]


def _cli_exact_estimate(capsys, tmp_path, n, k):
    """`estimate --exact` of the synthesized depolarizing retriever on n-qubit copies."""
    path = tmp_path / f"de_n{n}_k{k}.json"
    assert main(["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", str(k),
                 "--n", str(n), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--protocol", str(path), "--noise", "depolarizing",
                 "--eps", "0.1", "--n", str(n), "--state-seed", "3", "--exact"]) == 0
    out = capsys.readouterr().out
    return float(re.search(r"^estimate: (\S+)$", out, re.M).group(1))


def test_cli_estimate_n4_exact_matches_purity(capsys, tmp_path):
    # four-qubit copies fit the budget in product form (the Kraus route needs 64 GiB)
    rho = random_density_matrix(16, 3).entries
    assert abs(_cli_exact_estimate(capsys, tmp_path, 4, 2) - np.trace(rho @ rho).real) < 1e-9


def test_cli_recursive_k4_n3_exact_matches_moment(capsys, tmp_path):
    # the recursion on four three-qubit copies reads the moments of one noisy copy;
    # no d^k x d^k operator is built
    rho = random_density_matrix(8, 3).entries
    moment = np.trace(np.linalg.matrix_power(rho, 4)).real
    assert abs(_cli_exact_estimate(capsys, tmp_path, 3, 4) - moment) < 1e-9


@pytest.mark.parametrize("n, k", [(4, 4), (3, 5), (10, 2)])
def test_cli_exact_beyond_the_joint_state(capsys, tmp_path, n, k):
    # joint states of 64 GiB, 16 GiB and 16 TiB: each estimate reads k moments instead
    rho = random_density_matrix(2 ** n, 3).entries
    moment = np.trace(np.linalg.matrix_power(rho, k)).real
    assert abs(_cli_exact_estimate(capsys, tmp_path, n, k) - moment) < 1e-9


def test_cli_state_over_budget_refused(capsys, tmp_path):
    # nothing of a 30-qubit retriever or its noise is dense; the state is refused first
    path = tmp_path / "de_n30.json"
    assert main(["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--n", "30",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["estimate", "--protocol", str(path), "--noise", "depolarizing",
                     "--eps", "0.1", "--n", "30", "--state", "random"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert re.search(f"a state of dimension {2 ** 30} {BUDGET_MESSAGE}", err)
    assert peak < 16 * 2 ** 20
