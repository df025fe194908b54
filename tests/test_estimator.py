import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import Channel, amplitude_damping, depolarizing
from momentshift.estimator import (
    _BLOCK,
    _draw,
    _h_distribution,
    _h_spectrum,
    _outcome_index,
    _run_means,
    _thresholds,
    _word_blocks,
    derive_seed,
    plan_shots,
    renyi_entropy,
    run_choi_map,
    run_measurement_based,
    run_mixed_unitary,
    run_protocol,
    run_to_csv,
    save_run,
    shot_uniforms,
)
from momentshift.moments import cycle_traces
from momentshift.operators import Operator, random_density_matrix
from momentshift.protocols import (
    RetrievalProtocol,
    ad_second_moment,
    de_kth_moment,
    de_second_moment,
    de_second_moment_nqubit,
    exact_expectation,
    identity_protocol,
)
from conftest import noisy_copies
from oracles import run_to_json


class TestPlanShots:
    def test_unit_overhead(self):
        assert plan_shots(0.05, 0.05, 1.0).shots == 2952

    def test_matches_formula(self):
        f = 1 / 0.81
        plan = plan_shots(0.05, 0.05, f)
        assert plan.shots == math.ceil(f * f * (2 / 0.05 ** 2) * math.log(2 / 0.05))
        assert plan.shots == 4498

    def test_quadratic_in_overhead(self):
        base = plan_shots(0.1, 0.1, 1.0).shots
        doubled = plan_shots(0.1, 0.1, 2.0).shots
        assert abs(doubled - 4 * base) <= 3  # up to ceiling

    def test_bound_satisfied_minimally(self):
        plan = plan_shots(0.03, 0.02, 1.7)
        bound = plan.f ** 2 * (2 / plan.delta ** 2) * math.log(2 / plan.fail_prob)
        assert plan.shots >= bound
        assert plan.shots - 1 < bound

    @pytest.mark.parametrize("bad", [(0, 0.05, 1), (0.05, 0, 1), (0.05, 1.0, 1),
                                     (0.05, 0.05, 0)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            plan_shots(*bad)


class TestStreams:
    def test_deterministic(self):
        assert_allclose(shot_uniforms(42, 100, 2), shot_uniforms(42, 100, 2))

    def test_prefix_stability(self):
        full = shot_uniforms(7, 1000, 2)
        assert_allclose(full[:10], shot_uniforms(7, 10, 2))

    def test_seed_sensitivity(self):
        assert not np.allclose(shot_uniforms(1, 50, 1), shot_uniforms(2, 50, 1))

    def test_range_and_spread(self):
        u = shot_uniforms(3, 20000, 1)[:, 0]
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(5, t, m) for t in range(50) for m in range(2)}
        assert len(seeds) == 100

    def test_derive_seed_pinned(self):
        # SplitMix64 values of the earlier numpy-array implementation; negative
        # and wide arguments reduce mod 2^64
        assert derive_seed(-1, -3) == 12433421963164255912
        assert derive_seed(2 ** 64 - 1, 5) == 223572123240426020
        assert derive_seed(2 ** 70, 1) == 11869470683344840729

    def test_shot_uniforms_across_blocks(self):
        # SplitMix64 in counter mode, written out with Python integers: shot i,
        # draw n of seed s is mix(scramble(s) + i + n golden) >> 11, times 2^-53
        mask, golden = 2 ** 64 - 1, 0x9E3779B97F4A7C15

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        seed, shots = -9, 3 * _BLOCK + 7
        base = mix((seed + golden) & mask)
        u = shot_uniforms(seed, shots, 2)
        for i in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, shots - 1):
            want = [(mix((base + i + n * golden) & mask) >> 11) * 2.0 ** -53 for n in (1, 2)]
            assert u[i].tolist() == want, i

    def test_shot_uniforms_pinned(self):
        assert shot_uniforms(-5, 2, 2).tolist() == [
            [0.6763599147503829, 0.44496798724275],
            [0.07517679596274518, 0.8207499569688473]]


def _searchsorted_index(cumulative, u):
    return np.searchsorted(cumulative, u, side="right").clip(0, cumulative.size - 1)


def _on_grid(x):
    """x rounded down to a multiple of 2^-53, the values a drawn uniform takes."""
    return np.floor(np.asarray(x) * 2.0 ** 53) * 2.0 ** -53


def _pick(cumulative, u):
    """The kernel's comparison step on the words of the uniforms u = words 2^-53."""
    words = (u * 2.0 ** 53).astype(np.uint64)
    assert np.array_equal(words * 2.0 ** -53, u)   # u is a uniform the stream can draw
    return _outcome_index(words, _thresholds(cumulative), np.empty(u.shape, dtype=np.intp))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_sample_categorical_matches_searchsorted(n):
    rng = np.random.default_rng(n)
    for scale in (1.0, 0.9):   # a complete distribution, and one summing below 1
        cum = np.cumsum(rng.dirichlet(np.ones(n))) * scale
        if n > 2:
            cum[1] = cum[2]   # a zero-probability outcome: repeated entries
        # entries between two drawable uniforms, then entries a uniform can equal
        for entries in (cum, _on_grid(cum)):
            below, top = _on_grid(entries), np.nextafter(1.0, 0.0)
            cases = {"random": rng.random(1000),
                     "on entries": np.concatenate([below, [0.0, top]]),
                     "next to entries": np.concatenate([np.minimum(below + 2.0 ** -53, top),
                                                        np.maximum(below - 2.0 ** -53, 0)]),
                     "above the last": np.array([below[-1], 0.95, 0.999])}
            for name, u in cases.items():
                got = _pick(entries, u)
                assert np.array_equal(got, _searchsorted_index(entries, u)), (scale, name)
        # one row per shot: every other shot reads ``cum``, the rest a row of their own
        u = rng.random(1000)
        rows = _on_grid(np.cumsum(rng.dirichlet(np.ones(n), size=u.size), axis=1) * scale)
        rows[::2] = cum
        u[1::4] = rows[1::4, 0]   # on an entry of the shot's own row
        want = [_searchsorted_index(row, x) for row, x in zip(rows, u)]
        assert np.array_equal(_pick(rows, u), want), scale


def _reference_draw(cumulative, u):
    """Outcome per shot from the uniforms, row by row of a per-shot cumulative table."""
    if cumulative.ndim == 1:
        return _searchsorted_index(cumulative, u)
    out = np.empty(u.size, dtype=np.intp)
    for row in np.unique(cumulative, axis=0):
        mine = (cumulative == row).all(axis=1)
        out[mine] = _searchsorted_index(row, u[mine])
    return out


def _reference_run(kind, p, rho, noise, shots, seed):
    """per_shot and outcome_indices from shot_uniforms and searchsorted(side="right")."""
    sigma = noisy_copies(rho, noise, p.k).entries
    values = _h_spectrum(p.k)[0]
    if kind == "measurement":
        probs = np.clip(p.realization.outcome_probabilities(sigma), 0.0, None)
        idx = _reference_draw(np.cumsum(probs / probs.sum()), shot_uniforms(seed, shots, 1)[:, 0])
        return np.asarray(p.realization.values)[idx], idx
    if kind == "choi":
        traces = cycle_traces(p.realization.apply(sigma), p.k, p.copy_dim)
        idx = _reference_draw(np.cumsum(_h_distribution(traces, p.k)),
                              shot_uniforms(seed, shots, 1)[:, 0])
        return values[idx], idx
    traces = cycle_traces(np.stack([e @ sigma @ e.conj().T for e in p.realization.kraus]),
                          p.k, p.copy_dim)
    weights = traces[:, 0].real
    u = shot_uniforms(seed, shots, 2)
    j = _reference_draw(np.cumsum(weights / weights.sum()), u[:, 0])
    rows = np.cumsum(_h_distribution(traces, p.k), axis=1)
    idx = _reference_draw(rows[j], u[:, 1])
    return values[idx], j


BLOCK_SHOTS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
KERNEL_CASES = {
    "choi": (run_choi_map, de_kth_moment(0.15, 2, 2), depolarizing(0.15, 2)),
    "measurement": (run_measurement_based, ad_second_moment(0.2), amplitude_damping(0.2)),
    "mixed": (run_mixed_unitary, de_second_moment(0.1), depolarizing(0.1, 2)),
}


@pytest.mark.parametrize("shots", BLOCK_SHOTS)
@pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
def test_blocked_runs_match_reference_draws(kind, shots):
    # runs that end inside, on and just past a block edge draw the bits of
    # shot_uniforms and searchsorted
    run, p, noise = KERNEL_CASES[kind]
    rho = random_density_matrix(2, 4)
    got = run(p, rho, noise, shots, seed=-17)
    per_shot, indices = _reference_run(kind, p, rho, noise, shots, seed=-17)
    assert got.shots == shots
    assert np.array_equal(got.per_shot, per_shot)
    assert np.array_equal(got.outcome_indices, indices)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_weight_branch_is_never_drawn():
    # a Kraus branch the state does not reach has no H distribution; the run
    # still draws the reference bits
    e0 = np.zeros((4, 4))
    e0[0, 0] = 1.0
    p = RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=0.0,
                          realization=Channel(4, 4, kraus=[e0, np.eye(4) - e0]))
    rho, noise = Operator([[1, 0], [0, 0]]), depolarizing(0.0, 2)
    got = run_mixed_unitary(p, rho, noise, 500, seed=2)
    per_shot, indices = _reference_run("mixed", p, rho, noise, 500, seed=2)
    assert np.all(indices == 0)
    assert np.array_equal(got.per_shot, per_shot)
    assert np.array_equal(got.outcome_indices, indices)


@pytest.mark.parametrize("shots", [1, 777, _BLOCK + 3])
def test_run_means_equal_draws(shots):
    # k = 5 outcomes are not integers, so the row means must add in _draw's order
    p = identity_protocol(5, 2)
    values = _h_spectrum(5)[0]
    thresholds = _thresholds(np.array([0.3, 0.55, 1.0]))
    seeds = [derive_seed(8, t) for t in range(7)]
    want = [_draw(p, values, thresholds, shots, s).zeta_bar for s in seeds]
    assert _run_means(values, thresholds, shots, seeds).tolist() == want


@pytest.mark.parametrize("run, p, noise", list(KERNEL_CASES.values()), ids=sorted(KERNEL_CASES))
def test_degenerate_distribution_refused(run, p, noise):
    # every Born probability of the zero state is 0: no outcome can be drawn
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="degenerate"):
        run(p, Operator(np.zeros((2, 2))), noise, 10, seed=0)


def test_derive_seed_over_index_arrays():
    got = derive_seed(12, np.arange(9)[:, None], np.arange(3))
    assert got.shape == (9, 3)
    assert [[int(x) for x in row] for row in got] == [
        [derive_seed(12, t, j) for j in range(3)] for t in range(9)]


@pytest.mark.parametrize("ix", [
    np.arange(-3, 3), np.array([0, -1, 2 ** 63 - 1]), np.array([2 ** 64 - 1], dtype=np.uint64),
], ids=["arange", "int64_edges", "uint64_max"])
def test_integer_array_seeds_match_python_ints(ix):
    # integer arrays are cast to uint64 directly; ints beyond 64 bits go through object arrays
    assert derive_seed(12, ix).tolist() == [derive_seed(12, int(i)) for i in ix]
    assert derive_seed(int(ix[-1]), ix).tolist() == [derive_seed(int(ix[-1]), int(i)) for i in ix]


@pytest.mark.parametrize("x", [np.int64(-7), np.int32(5), np.int8(-1), np.uint64(2 ** 64 - 1)],
                         ids=["int64", "int32", "int8", "uint64"])
def test_numpy_integer_scalars_match_python_ints(x):
    assert derive_seed(12345, x) == derive_seed(12345, int(x))
    assert derive_seed(x, 3) == derive_seed(int(x), 3)


def test_word_blocks_of_seed_arrays_match_python_ints():
    seeds = derive_seed(3, np.arange(6)[:, None], np.arange(2)).reshape(-1)
    blocks = [[(r, cs, [w.copy() for w in words]) for r, cs, words in _word_blocks(s, 5, 2)]
              for s in (seeds, [int(x) for x in seeds])]
    for (r, cs, words), (r_ref, cs_ref, ref) in zip(*blocks):
        assert (r, cs) == (r_ref, cs_ref)
        assert all(np.array_equal(w, v) for w, v in zip(words, ref))


def test_seed_arrays_stay_uint64():
    ix = np.arange(100_000)
    tracemalloc.start()
    try:
        seeds = derive_seed(5, ix)
        next(_word_blocks(seeds, 1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * ix.size  # through object arrays of Python ints, about 90 bytes each


class TestMixedUnitaryRun:
    def test_noiseless_pure_state(self):
        p = de_second_moment(0.0)
        run = run_mixed_unitary(p, Operator([[1, 0], [0, 0]]),
                                depolarizing(0.0, 2), 10000, seed=7)
        assert abs(run.estimate - 1.0) < 0.05
        assert np.max(np.abs(run.per_shot)) <= 1 + 1e-12

    def test_bitwise_reproducible(self):
        p = de_second_moment(0.1)
        rho = random_density_matrix(2, 0)
        a = run_mixed_unitary(p, rho, depolarizing(0.1, 2), 500, seed=3)
        b = run_mixed_unitary(p, rho, depolarizing(0.1, 2), 500, seed=3)
        assert np.array_equal(a.per_shot, b.per_shot)
        assert a.estimate == b.estimate

    def test_mean_converges_to_exact(self):
        p = de_second_moment(0.1)
        noise = depolarizing(0.1, 2)
        rho = Operator(np.eye(2) / 2)
        run = run_mixed_unitary(p, rho, noise, 100000, seed=11)
        z = exact_expectation(p, noisy_copies(rho, noise, 2))
        se = run.per_shot.std() / np.sqrt(run.shots)
        assert abs(run.zeta_bar - z) < 5 * se

    def test_estimate_formula_exact_from_fields(self):
        p = de_second_moment(0.2)
        run = run_mixed_unitary(p, random_density_matrix(2, 1),
                                depolarizing(0.2, 2), 100, seed=1)
        assert run.estimate == p.f * run.zeta_bar - p.t

    def test_realization_mismatch(self):
        p = ad_second_moment(0.1)
        with pytest.raises(TypeError):
            run_mixed_unitary(p, random_density_matrix(2, 0),
                              amplitude_damping(0.1), 10, seed=0)


class TestMeasurementRun:
    def test_excited_state_noiseless(self):
        p = ad_second_moment(0.0)
        rho = Operator([[0, 0], [0, 1]])
        run = run_measurement_based(p, rho, amplitude_damping(0.0), 2000, seed=5)
        # |11> is the only outcome; all per-shot values are 1
        assert np.all(run.per_shot == 1.0)
        assert np.all(run.outcome_indices == 3)
        assert run.estimate == 1.0

    def test_convergence(self):
        eps = 0.2
        p = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        rho = random_density_matrix(2, 3)
        run = run_measurement_based(p, rho, noise, 100000, seed=8)
        z = exact_expectation(p, noisy_copies(rho, noise, 2))
        se = run.per_shot.std() / np.sqrt(run.shots)
        assert abs(run.zeta_bar - z) < 5 * se

    def test_outcome_frequencies_match_born(self):
        eps = 0.3
        p = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        rho = random_density_matrix(2, 6)
        shots = 40000
        run = run_measurement_based(p, rho, noise, shots, seed=2)
        sigma = noisy_copies(rho, noise, 2).entries
        born = p.realization.outcome_probabilities(sigma)
        for i in range(4):
            freq = np.mean(run.outcome_indices == i)
            bound = 4 * np.sqrt(born[i] * (1 - born[i]) / shots) + 1e-9
            assert abs(freq - born[i]) < bound


class TestChoiRun:
    def test_two_qubit_retriever(self):
        eps = 0.1
        p = de_second_moment_nqubit(eps, 2)
        noise = depolarizing(eps, 4)
        rho = random_density_matrix(4, 9)
        run = run_choi_map(p, rho, noise, 60000, seed=4)
        truth = float(np.trace(rho.entries @ rho.entries).real)
        se = p.f * run.per_shot.std() / np.sqrt(run.shots)
        assert abs(run.estimate - truth) < 5 * se

    def test_dispatcher(self):
        p = de_second_moment(0.1)
        run = run_protocol(p, random_density_matrix(2, 0), depolarizing(0.1, 2),
                           100, seed=0)
        assert run.shots == 100

    def test_recursive_rejected(self):
        p = de_kth_moment(0.1, 3, 2)
        with pytest.raises(ValueError, match="exact"):
            run_protocol(p, random_density_matrix(2, 0), depolarizing(0.1, 2),
                         10, seed=0)

    @pytest.mark.parametrize("realization", [
        Channel(4, 4, kraus=[0.5 * np.eye(4)]),
        Channel(4, 4, choi=Operator(0.5 * np.eye(16), (4, 4))),
    ])
    def test_non_trace_preserving_rejected(self, realization):
        p = RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=0.0, realization=realization)
        with pytest.raises(ValueError, match="trace-preserving"):
            run_protocol(p, random_density_matrix(2, 0), depolarizing(0.1, 2),
                         10, seed=0)


@pytest.mark.parametrize("shots", [0, -5])
def test_run_protocol_rejects_shots_below_one(shots):
    p = de_second_moment(0.1)
    rho = Operator(np.eye(2) / 2)
    with pytest.raises(ValueError, match="shots"):
        run_protocol(p, rho, depolarizing(0.1, 2), shots, seed=0)


class TestUnbiasedness:
    def test_planned_shot_coverage_quick(self):
        # small version of the coverage guarantee: 50 runs, >= 44 within delta
        delta, fail = 0.1, 0.05
        p = de_second_moment(0.1)
        noise = depolarizing(0.1, 2)
        rho = Operator(np.eye(2) / 2)
        shots = plan_shots(delta, fail, p.f).shots
        hits = 0
        for r in range(50):
            run = run_mixed_unitary(p, rho, noise, shots, seed=derive_seed(99, r))
            hits += abs(run.estimate - 0.5) <= delta
        assert hits >= 44


class TestRenyi:
    def test_pure(self):
        assert renyi_entropy(1.0, 2) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(renyi_entropy(0.5, 2) - math.log(2)) < 1e-12

    def test_third_order(self):
        assert abs(renyi_entropy(0.25, 3) - math.log(2)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            renyi_entropy(0.0, 2)


def test_run_serialization(tmp_path):
    p = ad_second_moment(0.2)
    run = run_measurement_based(p, random_density_matrix(2, 1),
                                amplitude_damping(0.2), 50, seed=6)
    doc = run_to_json(run)
    assert doc["shots"] == 50
    assert len(doc["per_shot"]) == 50
    assert doc["estimate"] == run.estimate
    csv_path = tmp_path / "run.csv"
    run_to_csv(run, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "shot_index,outcome_index,value"
    assert len(lines) == 51
    json_path = tmp_path / "run.json"
    save_run(run, json_path)
    assert json_path.read_text() == json.dumps(doc)


def test_json_record_streams(tmp_path):
    # the per-shot lists go out a block at a time: no list or text of every shot
    run = run_measurement_based(ad_second_moment(0.2), random_density_matrix(2, 1),
                                amplitude_damping(0.2), 2_000_000, seed=6)
    tracemalloc.start()
    try:
        save_run(run, tmp_path / "run.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


SPECTRUM_CASES = [(k, d) for d in (2, 3, 4) for k in range(2, 6) if d ** k <= 1024]


@pytest.mark.parametrize("k,d", SPECTRUM_CASES)
def test_h_spectrum_matches_dense_eigh(k, d):
    from momentshift.estimator import _h_distribution, _h_spectrum
    from momentshift.moments import cycle_traces
    from oracles import cyclic_permutation
    s = cyclic_permutation(k, d).entries
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    values = _h_spectrum(k)[0]
    assert np.all(np.diff(values) > 0)
    # every eigenvalue of H_k is one of the outcomes, and every outcome occurs
    nearest = np.abs(w[:, None] - values[None, :]).argmin(axis=1)
    assert_allclose(w, values[nearest], atol=1e-12)
    assert set(nearest) == set(range(values.size))
    states = np.stack([random_density_matrix(d ** k, seed).entries for seed in range(3)])
    probs = _h_distribution(cycle_traces(states, k, d), k)
    for x, p in zip(states, probs):
        diag = np.real(np.sum(v.conj() * (x @ v), axis=0))  # <v_i|x|v_i>
        oracle = np.bincount(nearest, weights=diag, minlength=values.size)
        assert_allclose(p, oracle, atol=1e-12)
        assert_allclose(_h_distribution(cycle_traces(x, k, d), k), p, atol=1e-15)


def test_h_spectrum_k2_outcomes_exact():
    from momentshift.estimator import _h_spectrum
    assert _h_spectrum(2)[0].tolist() == [-1.0, 1.0]
