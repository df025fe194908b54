import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from momentshift.channels import Channel, amplitude_damping, depolarizing
from momentshift.estimator import (
    _BLOCK,
    _BLOCK_WORDS,
    _comparisons,
    _distribution,
    _h_distribution,
    _outcome_index,
    _run_means,
    _shot_blocks,
    _tally,
    _thresholds,
    _word_blocks,
    derive_seed,
    plan_shots,
    renyi_entropy,
    run_choi_map,
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
    load_protocol,
    output_traces,
)
from conftest import noisy_copies
from oracles import (reference_run, run_csv_text, run_to_json, searchsorted_index,
                     seed_with_counter, splitmix_words, threshold_counts)


class TestPlanShots:
    def test_unit_overhead(self):
        assert plan_shots(0.05, 0.05, 1.0) == 2952

    def test_matches_formula(self):
        f = 1 / 0.81
        shots = plan_shots(0.05, 0.05, f)
        assert shots == math.ceil(f * f * (2 / 0.05 ** 2) * math.log(2 / 0.05))
        assert shots == 4498
        assert type(shots) is int

    def test_quadratic_in_overhead(self):
        base = plan_shots(0.1, 0.1, 1.0)
        doubled = plan_shots(0.1, 0.1, 2.0)
        assert abs(doubled - 4 * base) <= 3  # up to ceiling

    def test_bound_satisfied_minimally(self):
        shots = plan_shots(0.03, 0.02, 1.7)
        bound = 1.7 ** 2 * (2 / 0.03 ** 2) * math.log(2 / 0.02)
        assert shots >= bound
        assert shots - 1 < bound

    @pytest.mark.parametrize("bad", [(0, 0.05, 1), (0.05, 0, 1), (0.05, 1.0, 1),
                                     (0.05, 0.05, 0), (math.inf, 0.05, 1)])
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
        seed, shots = -9, 3 * _BLOCK + 7
        u = shot_uniforms(seed, shots, 2)
        for i in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, shots - 1):
            want = [(splitmix_words(seed, [i], n)[0] >> 11) * 2.0 ** -53 for n in (1, 2)]
            assert u[i].tolist() == want, i

    def test_shot_uniforms_pinned(self):
        assert shot_uniforms(-5, 2, 2).tolist() == [
            [0.6763599147503829, 0.44496798724275],
            [0.07517679596274518, 0.8207499569688473]]


def _on_grid(x):
    """x rounded down to a multiple of 2^-53, the values a drawn uniform takes."""
    return np.floor(np.asarray(x) * 2.0 ** 53) * 2.0 ** -53


def _pick(cumulative, u):
    """The kernel's comparison step on raw words whose uniforms are u = (words >> 11) 2^-53;
    their low 11 bits, which the uniform drops, run through every value."""
    high = (u * 2.0 ** 53).astype(np.uint64)
    assert np.array_equal(high * 2.0 ** -53, u) and u.max() < 1.0   # a uniform the stream draws
    words = high << np.uint64(11) | np.arange(u.size, dtype=np.uint64) % np.uint64(2048)
    return _outcome_index(words, _comparisons(_thresholds(cumulative)),
                          np.empty(u.shape, dtype=np.intp))


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
                u = u[u < 1.0]   # a 1.0, on the grid below a last entry of 1, is no uniform
                got = _pick(entries, u)
                assert np.array_equal(got, searchsorted_index(entries, u)), (scale, name)


def _rebuilt(run):
    """The run's per-shot values and outcome indices, rebuilt whole from its seed."""
    outcome = np.concatenate([o.copy() for _, o in _shot_blocks(run.thresholds, run.shots,
                                                                run.seed)])
    return run.values[outcome], outcome


def _reference_counts(run, outcome):
    """The run's counts as the bincount of its reference outcomes."""
    return np.bincount(outcome, minlength=run.values.size)


def _random_unitary_mixture(branches: int) -> RetrievalProtocol:
    """A trace-preserving two-copy map of ``branches`` equal-weight random unitaries."""
    rng = np.random.default_rng(branches)
    us = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
          for _ in range(branches)]
    return RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=0.0,
                             realization=Channel(4, 4, kraus=[u / np.sqrt(branches) for u in us]))


def _zero_weight_branch() -> RetrievalProtocol:
    """A two-branch Kraus map whose branch I - |00><00| the state |00><00| never reaches."""
    e0 = np.zeros((4, 4))
    e0[0, 0] = 1.0
    return RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=0.0,
                             realization=Channel(4, 4, kraus=[e0, np.eye(4) - e0]))


V1 = Path(__file__).parent / "data" / "protocols_v1"
BLOCK_SHOTS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
KERNEL_CASES = {
    "choi": (run_choi_map, de_kth_moment(0.15, 2, 2), depolarizing(0.15, 2)),
    # Choi-form channels: H_k of the output of the dense k-copy state
    "choi_form_de": (run_protocol, load_protocol(V1 / "de_choi_n1.json"), depolarizing(0.1, 2)),
    "choi_form_sdp": (run_protocol, load_protocol(V1 / "sdp_ad_k2.json"), amplitude_damping(0.2)),
    "measurement": (run_protocol, ad_second_moment(0.2), amplitude_damping(0.2)),
    "mixed": (run_protocol, de_second_moment(0.1), depolarizing(0.1, 2)),
    # 300 Kraus branches
    "mixed_wide": (run_protocol, _random_unitary_mixture(300), depolarizing(0.1, 2)),
}


@pytest.mark.parametrize("shots", BLOCK_SHOTS)
@pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
def test_blocked_runs_match_reference_draws(kind, shots):
    # runs that end inside, on and just past a block edge draw the bits of
    # shot_uniforms and searchsorted
    run, p, noise = KERNEL_CASES[kind]
    rho = random_density_matrix(2, 4)
    got = run(p, rho, noise, shots, seed=-17)
    per_shot, outcome = reference_run(p, rho, noise, shots, seed=-17)
    assert got.shots == shots
    assert np.array_equal(got.counts, _reference_counts(got, outcome))
    rebuilt = _rebuilt(got)
    assert np.array_equal(rebuilt[0], per_shot)
    assert np.array_equal(rebuilt[1], outcome)


@pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
def test_records_rebuilt_from_seed_match_reference(kind, tmp_path):
    # the run keeps only counts; its JSON and CSV records are rebuilt block by block
    # from the seed and must be the bytes written from whole reference arrays
    run, p, noise = KERNEL_CASES[kind]
    rho, shots = random_density_matrix(2, 5), 2 * _BLOCK + 3
    got = run(p, rho, noise, shots, seed=23)
    per_shot, outcome = reference_run(p, rho, noise, shots, seed=23)
    assert np.array_equal(got.counts, _reference_counts(got, outcome))
    assert got.counts.sum() == shots
    # the counts add the values in another order than the per-shot mean
    assert abs(got.zeta_bar - per_shot.mean()) <= 8 * np.finfo(float).eps
    save_run(got, tmp_path / "run.json")
    assert (tmp_path / "run.json").read_text() == json.dumps(run_to_json(got, per_shot, outcome))
    run_to_csv(got, tmp_path / "run.csv")
    with open(tmp_path / "run.csv", newline="") as fh:
        assert fh.read() == run_csv_text(per_shot, outcome)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_weight_branch_is_never_drawn():
    # a Kraus branch the state does not reach has no H distribution; the run
    # still draws the reference bits
    p, rho, noise = _zero_weight_branch(), Operator([[1, 0], [0, 0]]), depolarizing(0.0, 2)
    got = run_protocol(p, rho, noise, 500, seed=2)
    per_shot, outcome = reference_run(p, rho, noise, 500, seed=2)
    assert np.array_equal(got.counts, _reference_counts(got, outcome))
    assert np.array_equal(_rebuilt(got)[0], per_shot)


@pytest.mark.parametrize("shots", [1, 777, _BLOCK + 3])
def test_run_means_equal_draws(shots):
    # k = 5 outcomes are not integers, so the row means must add in a run's order
    p, noise, rho = identity_protocol(5, 2), depolarizing(0.1, 2), random_density_matrix(2, 8)
    seeds = [derive_seed(8, t) for t in range(7)]
    want = [run_protocol(p, rho, noise, shots, s).zeta_bar for s in seeds]
    assert _run_means(*_distribution(p, rho, noise), shots, seeds).tolist() == want


@pytest.mark.parametrize("run, p, noise", list(KERNEL_CASES.values()), ids=sorted(KERNEL_CASES))
def test_degenerate_distribution_refused(run, p, noise):
    # every Born probability of the zero state is 0: no outcome can be drawn
    with pytest.raises(ValueError, match="degenerate"):
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


# Seeds whose counters reach the edges of the uint64 counter arithmetic: shot i of draw
# n mixes the counter c + i, c that of shot 0.  A row that crosses a multiple of 2^30
# changes x >> 30, the mix's first shift, within the row; one that wraps past 2^64 wraps
# its add.
EDGE_SEEDS = {
    "cross_2^30": seed_with_counter(7 * 2 ** 30 - 100),
    "cross_2^30_second_block": seed_with_counter(3 * 2 ** 30 - _BLOCK - 10),
    "cross_2^30_draw_2": seed_with_counter(2 ** 31 - 3000, draw=2),
    "wrap_2^64": seed_with_counter(2 ** 64 - 50),
    "wrap_2^64_draw_2": seed_with_counter(2 ** 64 - 1, draw=2),
}
# thresholds of 0, met by every word, and at or above 2^53, met by none
EDGE_THRESHOLDS = np.array([0, 0, 2 ** 51, 2 ** 52 + 12345, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 2],
                           dtype=np.uint64)


def _spread(seeds: list, runs: int) -> list:
    """``runs`` seeds, ``seeds`` spread among the others from first to last."""
    out = [derive_seed(4, i) for i in range(runs)]
    for i, seed in zip(np.linspace(0, runs - 1, len(seeds)).astype(int), seeds):
        out[i] = seed
    return out


@pytest.mark.parametrize("seed", EDGE_SEEDS.values(), ids=EDGE_SEEDS)
def test_words_at_counter_edges_match_python_ints(seed):
    shots = 2 * _BLOCK + 3
    blocks = [[w[0].copy() for w in words] for _, _, words in _word_blocks([seed], shots, 2)]
    u = shot_uniforms(seed, shots, 2)
    for n, got in enumerate(zip(*blocks), 1):
        want = splitmix_words(seed, range(shots), n)
        assert np.concatenate(got).tolist() == want
        assert u[:, n - 1].tolist() == [(w >> 11) * 2.0 ** -53 for w in want]


def test_multi_row_block_at_counter_edges_matches_python_ints():
    # one block of 40 runs, some of whose rows cross 2^30 or wrap
    seeds, shots = _spread(list(EDGE_SEEDS.values()), 40), 300
    (r, cs, words), = _word_blocks(seeds, shots, 2)
    assert (r, cs, words[0].shape) == (0, slice(0, shots), (40, shots))
    for n, w in enumerate(words, 1):
        assert w.tolist() == [splitmix_words(seed, range(shots), n) for seed in seeds]


@pytest.mark.parametrize("shots, runs", [(1000, 70), (4096, 19)],
                         ids=["many_short_rows", "few_long_rows"])
def test_tally_at_edges_matches_python_ints(shots, runs):
    # blocks of 32 rows of 1000 shots, or of 8 rows of 4096, the last row block short in
    # both; edge seeds among the runs, and thresholds of 0 and at or above 2^53
    assert runs % (_BLOCK_WORDS // shots)
    seeds = _spread(list(EDGE_SEEDS.values()), runs)
    want = [np.bincount(threshold_counts(splitmix_words(s, range(shots), 1), EDGE_THRESHOLDS),
                        minlength=EDGE_THRESHOLDS.size + 1) for s in seeds]
    assert _tally(EDGE_THRESHOLDS, shots, seeds).tolist() == np.array(want).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS.values(), ids=EDGE_SEEDS)
def test_shot_blocks_at_edges_match_python_ints(seed):
    # a run's outcomes rebuilt a block at a time (the second block short) from
    # thresholds of 0 and at or above 2^53
    shots = _BLOCK + 3
    got = np.concatenate([o.copy() for _, o in _shot_blocks(EDGE_THRESHOLDS, shots, seed)])
    assert got.tolist() == threshold_counts(splitmix_words(seed, range(shots), 1),
                                            EDGE_THRESHOLDS).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS.values(), ids=EDGE_SEEDS)
def test_kraus_run_at_counter_edges_matches_reference(seed):
    p, noise, rho = de_second_moment(0.1), depolarizing(0.1, 2), random_density_matrix(2, 4)
    got = run_protocol(p, rho, noise, _BLOCK + 3, seed)
    per_shot, outcome = reference_run(p, rho, noise, _BLOCK + 3, seed)
    assert np.array_equal(got.counts, _reference_counts(got, outcome))
    rebuilt = _rebuilt(got)
    assert np.array_equal(rebuilt[0], per_shot)
    assert np.array_equal(rebuilt[1], outcome)


# Kraus-form channels and the noise they are sampled under
KRAUS_CASES = {
    "twirl": (de_second_moment(0.1), depolarizing(0.1, 2)),
    "mixed_wide": (_random_unitary_mixture(300), depolarizing(0.1, 2)),
    "zero_weight": (_zero_weight_branch(), depolarizing(0.0, 2)),
}


@pytest.mark.parametrize("kind", sorted(KRAUS_CASES))
def test_branch_mixture_is_the_output_law(kind):
    # the H_k law is linear in the channel, so drawing a branch by its weight, then an
    # outcome from that branch's law, draws from the law of the channel's output
    p, noise = KRAUS_CASES[kind]
    states = [random_density_matrix(2, seed) for seed in range(50)]
    # last: |0><0|, whose noiseless copies never reach the zero_weight case's branch 1
    for rho in states + [Operator([[1, 0], [0, 0]])]:
        sigma = noisy_copies(rho, noise, 2).entries
        traces = cycle_traces(np.stack([e @ sigma @ e.conj().T for e in p.realization.kraus]),
                              2, 2)
        weights = traces[:, 0].real
        reached = weights > 0  # a branch of weight 0 has no law
        mixture = weights[reached] @ _h_distribution(traces[reached], 2) / weights.sum()
        assert_allclose(mixture, _h_distribution(output_traces(p, rho, noise), 2),
                        rtol=0, atol=4e-15)


@pytest.mark.parametrize("kind", sorted(KRAUS_CASES))
def test_kraus_run_is_the_run_of_its_output(kind, tmp_path):
    # run_protocol samples a Kraus channel as run_choi_map does: counts, mean and records
    p, noise = KRAUS_CASES[kind]
    rho, shots = random_density_matrix(2, 7), 2 * _BLOCK + 3
    records = []
    for run in (run_protocol, run_choi_map):
        got = run(p, rho, noise, shots, seed=5)
        save_run(got, tmp_path / "run.json")
        run_to_csv(got, tmp_path / "run.csv")
        records.append((got.counts.tolist(), got.zeta_bar, (tmp_path / "run.json").read_text(),
                        (tmp_path / "run.csv").read_text()))
    assert records[0] == records[1]


@pytest.mark.parametrize("run", [run_choi_map, run_protocol], ids=["one_draw", "kraus"])
def test_run_memory_does_not_grow_with_shots(run):
    # a run keeps its counts and one block of words, whatever its shot count
    p, noise, rho = de_second_moment(0.1), depolarizing(0.1, 2), random_density_matrix(2, 4)
    run(p, rho, noise, 10, 1)  # caches
    peaks = []
    for shots in (10 ** 5, 10 ** 7):
        tracemalloc.start()
        try:
            run(p, rho, noise, shots, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4096


class TestMixedUnitaryRun:
    def test_noiseless_pure_state(self):
        p = de_second_moment(0.0)
        run = run_protocol(p, Operator([[1, 0], [0, 0]]),
                           depolarizing(0.0, 2), 10000, seed=7)
        assert abs(run.estimate - 1.0) < 0.05
        assert np.max(np.abs(_rebuilt(run)[0])) <= 1 + 1e-12

    def test_bitwise_reproducible(self):
        p = de_second_moment(0.1)
        rho = random_density_matrix(2, 0)
        a = run_protocol(p, rho, depolarizing(0.1, 2), 500, seed=3)
        b = run_protocol(p, rho, depolarizing(0.1, 2), 500, seed=3)
        assert np.array_equal(a.counts, b.counts)
        assert all(np.array_equal(x, y) for x, y in zip(_rebuilt(a), _rebuilt(b)))
        assert a.estimate == b.estimate

    def test_mean_converges_to_exact(self):
        p = de_second_moment(0.1)
        noise = depolarizing(0.1, 2)
        rho = Operator(np.eye(2) / 2)
        run = run_protocol(p, rho, noise, 100000, seed=11)
        z = exact_expectation(p, rho, noise)
        se = _rebuilt(run)[0].std() / np.sqrt(run.shots)
        assert abs(run.zeta_bar - z) < 5 * se

    def test_estimate_formula_exact_from_fields(self):
        p = de_second_moment(0.2)
        run = run_protocol(p, random_density_matrix(2, 1),
                           depolarizing(0.2, 2), 100, seed=1)
        assert run.estimate == p.f * run.zeta_bar - p.t


class TestMeasurementRun:
    def test_excited_state_noiseless(self):
        p = ad_second_moment(0.0)
        rho = Operator([[0, 0], [0, 1]])
        run = run_protocol(p, rho, amplitude_damping(0.0), 2000, seed=5)
        # |11> is the only outcome; all per-shot values are 1
        assert run.counts.tolist() == [0, 0, 0, 2000]
        assert np.all(_rebuilt(run)[0] == 1.0)
        assert np.all(_rebuilt(run)[1] == 3)
        assert run.estimate == 1.0

    def test_convergence(self):
        eps = 0.2
        p = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        rho = random_density_matrix(2, 3)
        run = run_protocol(p, rho, noise, 100000, seed=8)
        z = exact_expectation(p, rho, noise)
        se = _rebuilt(run)[0].std() / np.sqrt(run.shots)
        assert abs(run.zeta_bar - z) < 5 * se

    def test_outcome_frequencies_match_born(self):
        eps = 0.3
        p = ad_second_moment(eps)
        noise = amplitude_damping(eps)
        rho = random_density_matrix(2, 6)
        shots = 40000
        run = run_protocol(p, rho, noise, shots, seed=2)
        sigma = noisy_copies(rho, noise, 2).entries
        born = p.realization.outcome_probabilities(sigma)
        for i in range(4):
            freq = run.counts[i] / shots
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
        se = p.f * _rebuilt(run)[0].std() / np.sqrt(run.shots)
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
    with pytest.raises(ValueError, match=f"^shots must be at least 1, got {shots}$"):
        run_protocol(p, rho, depolarizing(0.1, 2), shots, seed=0)


@pytest.mark.parametrize("shots", [0, -5])
def test_run_choi_map_rejects_shots_below_one(shots):
    # the same refusal as run_protocol's, before any distribution is built
    p = de_second_moment(0.1)
    rho = Operator(np.eye(2) / 2)
    with pytest.raises(ValueError, match=f"^shots must be at least 1, got {shots}$"):
        run_choi_map(p, rho, depolarizing(0.1, 2), shots, seed=0)


class TestUnbiasedness:
    def test_planned_shot_coverage_quick(self):
        # small version of the coverage guarantee: 50 runs, >= 44 within delta
        delta, fail = 0.1, 0.05
        p = de_second_moment(0.1)
        noise = depolarizing(0.1, 2)
        rho = Operator(np.eye(2) / 2)
        shots = plan_shots(delta, fail, p.f)
        hits = 0
        for r in range(50):
            run = run_protocol(p, rho, noise, shots, seed=derive_seed(99, r))
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
    run = run_protocol(p, random_density_matrix(2, 1),
                       amplitude_damping(0.2), 50, seed=6)
    doc = run_to_json(run, *_rebuilt(run))
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
    run = run_protocol(ad_second_moment(0.2), random_density_matrix(2, 1),
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
