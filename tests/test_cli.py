import base64
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from momentshift.channels import Channel, amplitude_damping, depolarizing
from momentshift.cli import build_parser, cmd_estimate, main, parse_args
from momentshift.estimator import _BLOCK, run_choi_map, run_protocol
from momentshift.operators import Operator, matrix_from_json, matrix_to_json
from momentshift.protocols import (RetrievalProtocol, ad_second_moment, de_second_moment,
                                   load_protocol, protocol_to_json, save_protocol)
from oracles import reference_run, run_to_json

DATA = Path(__file__).parent / "data" / "protocols_v1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynthesize:
    def test_depolarizing_analytic(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, out, _ = run_cli(capsys, "synthesize", "--noise", "depolarizing",
                               "--eps", "0.1", "--k", "2", "--n", "1",
                               "--out", str(path))
        assert code == 0
        assert "f: 1.23456790123" in out
        assert "t: 0.117283950617" in out
        proto = load_protocol(path)
        assert proto.f == pytest.approx(1 / 0.81)

    def test_noiseless(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "--noise", "depolarizing",
                               "--eps", "0", "--k", "2")
        assert code == 0
        assert "f: 1\n" in out
        assert "t: 0\n" in out

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "--noise", "depolarizing",
                               "--eps", "1.0", "--k", "2")
        assert code == 2
        assert "not invertible or moment unrecoverable" in out

    def test_force_sdp_matches_analytic(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, out, _ = run_cli(capsys, "synthesize", "--noise", "amplitude-damping",
                               "--eps", "0.2", "--k", "2", "--force-sdp",
                               "--out", str(path))
        assert code == 0
        proto = load_protocol(path)
        assert proto.f == pytest.approx(1.5625, abs=1e-4)
        assert proto.t == pytest.approx(-0.0625, abs=1e-4)

    @pytest.mark.parametrize("noise,n,k", [("amplitude-damping", 1, 5), ("depolarizing", 2, 3)],
                             ids=["AD_k5", "DE_n2_k3"])
    def test_force_sdp_writes_the_spectral_optimum(self, capsys, tmp_path, noise, n, k):
        path = tmp_path / "p.json"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "synthesize", "--noise", noise, "--eps", "0.2",
                               "--n", str(n), "--k", str(k), "--force-sdp", "--out", str(path))
        assert time.perf_counter() - start < 1.0
        fields = dict(line.split(": ", 1) for line in out.splitlines()[:5])
        assert code == 0 and (fields["status"], fields["iterations"]) == ("optimal", "0")
        assert float(fields["residual"]) <= 1e-13
        proto = load_protocol(path)
        assert proto.kind == "measure_prepare" and f"{proto.f:.12g}" == fields["f"]

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "synthesize", "--noise", "bogus", "--eps", "0.1")
        assert exc.value.code == 1


class TestEstimate:
    def test_exact_round_trip(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "amplitude-damping",
                "--eps", "0.2", "--k", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "estimate", "--protocol", str(path),
                               "--noise", "amplitude-damping", "--eps", "0.2",
                               "--state", "maxmixed", "--exact", "--renyi", "2")
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().splitlines())
        assert float(lines["estimate"]) == pytest.approx(0.5, abs=1e-12)
        assert float(lines["renyi_2"]) == pytest.approx(np.log(2), abs=1e-10)
        # re-running reproduces the recorded zeta exactly
        code2, out2, _ = run_cli(capsys, "estimate", "--protocol", str(path),
                                 "--noise", "amplitude-damping", "--eps", "0.2",
                                 "--state", "maxmixed", "--exact")
        assert out2.splitlines()[0] == out.splitlines()[0]

    def test_sampled_reproducible(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(path))
        args = ("estimate", "--protocol", str(path), "--noise", "depolarizing",
                "--eps", "0.1", "--state", "random", "--state-seed", "3",
                "--shots", "2000", "--seed", "17")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_planned_shots_printed(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "estimate", "--protocol", str(path),
                               "--noise", "depolarizing", "--eps", "0.1",
                               "--state", "maxmixed", "--delta", "0.05",
                               "--fail-prob", "0.05")
        assert code == 0
        assert "planned shots: 4498" in out

    def test_run_record_written(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        out_path = tmp_path / "run.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "estimate", "--protocol", str(path),
                               "--noise", "depolarizing", "--eps", "0.1",
                               "--state", "maxmixed", "--shots", "500",
                               "--seed", "3", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["shots"] == 500
        assert len(doc["per_shot"]) == 500

    def test_state_from_file(self, capsys, tmp_path):
        proto_path = tmp_path / "p.json"
        state_path = tmp_path / "state.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(proto_path))
        # Bloch radius 0.4 -> purity 0.58
        state_path.write_text(json.dumps(
            [[[0.5, 0.0], [0.2, 0.0]], [[0.2, 0.0], [0.5, 0.0]]]))
        code, out, _ = run_cli(capsys, "estimate", "--protocol", str(proto_path),
                               "--noise", "depolarizing", "--eps", "0.1",
                               "--state", str(state_path), "--exact")
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().splitlines())
        assert float(lines["estimate"]) == pytest.approx(0.58, abs=1e-10)

    @pytest.mark.parametrize("entries", [
        [[[1.0, 0.0], [0.2, 0.0]], [[0.2, 0.0], [1.0, 0.0]]],   # trace 2
        [[[0.5, 0.0], [0.2, 0.0]], [[0.1, 0.0], [0.5, 0.0]]],   # not Hermitian
        [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]],  # not PSD
    ])
    @pytest.mark.parametrize("mode", [["--exact"], ["--shots", "100"]])
    def test_state_file_must_be_density_matrix(self, capsys, tmp_path, entries, mode):
        proto_path = tmp_path / "p.json"
        state_path = tmp_path / "state.json"
        run_cli(capsys, "synthesize", "--noise", "amplitude-damping", "--eps", "0.1",
                "--out", str(proto_path))
        state_path.write_text(json.dumps(entries))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(proto_path),
                                 "--noise", "amplitude-damping", "--eps", "0.1",
                                 "--state", str(state_path), *mode)
        assert code == 1
        assert "not a density matrix" in err
        assert "estimate" not in out

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_shots_below_one_rejected(self, capsys, tmp_path, shots):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(path))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path),
                                 "--noise", "depolarizing", "--eps", "0.1",
                                 "--state", "maxmixed", "--shots", shots)
        assert code == 1
        assert "shots" in err
        assert "planned shots" not in out and "estimate" not in out

    def test_shots_above_int64_refused(self, capsys):
        # a count the outcome tally cannot hold is an error line, not an OverflowError
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(DATA / "ad_measure.json"),
                                 "--noise", "amplitude-damping", "--eps", "0.1",
                                 "--state", "maxmixed", "--shots", "10000000000000000000")
        assert (code, out) == (1, "")
        assert err == ("error: shots must be at most 2^63 - 1 = 9223372036854775807, "
                       "got 10000000000000000000\n")

    def test_large_shot_count_runs_in_block_memory(self, capsys):
        # a run keeps outcome counts, not shots: 3 x 10^8 shots, whose per-shot arrays
        # would need 4578 MiB, sample in one block's memory
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "estimate", "--protocol",
                                     str(Path(__file__).parent / "data" / "protocols_v1" /
                                         "ad_measure.json"),
                                     "--noise", "amplitude-damping", "--eps", "0.1",
                                     "--state", "maxmixed", "--shots", "300000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert "shots: 300000000\n" in out
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("source,noise", [
        ("twirl.json", "depolarizing"),
        ("ad_measure.json", "amplitude-damping"),
        (("--noise", "depolarizing", "--k", "2"), "depolarizing"),
        (("--noise", "amplitude-damping", "--k", "3"), "amplitude-damping"),
    ], ids=["kraus", "measurement", "recursive_k2", "sdp_ad_k3"])
    def test_json_record_is_the_dumped_run(self, capsys, tmp_path, source, noise):
        # a synthesized file for a tuple, a stored one otherwise; 2 _BLOCK + 3 shots
        # cross two block boundaries, and the k = 3 outcomes print 19 characters
        shots = 2 * _BLOCK + 3
        if isinstance(source, tuple):
            path = tmp_path / "p.json"
            run_cli(capsys, "synthesize", *source, "--eps", "0.2", "--out", str(path))
        else:
            path = Path(__file__).parent / "data" / "protocols_v1" / source
        out_path = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "estimate", "--protocol", str(path), "--noise", noise,
                             "--eps", "0.1", "--state", "maxmixed", "--shots", str(shots),
                             "--seed", "11", "--out", str(out_path))
        assert code == 0
        p = load_protocol(path)
        channel = depolarizing(0.1, 2) if noise == "depolarizing" else amplitude_damping(0.1)
        rho = Operator(np.eye(2) / 2)
        run = run_protocol(p, rho, channel, shots, 11)
        per_shot, indices = reference_run(p, rho, channel, shots, 11)
        assert out_path.read_text() == json.dumps(run_to_json(run, per_shot, indices))

    def test_recursive_protocol_needs_exact(self, capsys, tmp_path):
        path = tmp_path / "p3.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--k", "3", "--out", str(path))
        code, _, err = run_cli(capsys, "estimate", "--protocol", str(path),
                               "--noise", "depolarizing", "--eps", "0.1",
                               "--state", "maxmixed", "--shots", "10")
        assert code == 1
        assert "exact" in err
        code, out, _ = run_cli(capsys, "estimate", "--protocol", str(path),
                               "--noise", "depolarizing", "--eps", "0.1",
                               "--state", "maxmixed", "--exact")
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().splitlines())
        assert float(lines["estimate"]) == pytest.approx(0.25, abs=1e-10)

    @staticmethod
    def kraus_or_choi_file(tmp_path, **realization):
        path = tmp_path / "p.json"
        save_protocol(RetrievalProtocol(k=2, copy_dim=2, f=1.0, t=0.0,
                                        realization=Channel(4, 4, **realization)), path)
        return path

    def test_sampled_retriever_that_is_not_positive_refused(self, capsys, tmp_path):
        # J = J_id + I (x) (P_sym/3 - P_anti) is trace preserving, but the noisy copies'
        # image has a negative H_2 probability; clipped, it printed zeta_bar: 1
        omega, swap = np.eye(4).reshape(-1), np.eye(4)[[0, 2, 1, 3]]
        choi = np.outer(omega, omega) + np.kron(np.eye(4), (np.eye(4) + swap) / 6
                                                - (np.eye(4) - swap) / 2)
        path = self.kraus_or_choi_file(tmp_path, choi=Operator(choi, (4, 4)))
        argv = ("estimate", "--protocol", str(path), "--noise", "depolarizing", "--eps", "0.1")
        code, out, err = run_cli(capsys, *argv, "--shots", "20000")
        assert (code, out) == (1, "")
        assert "the retriever is not positive" in err and "(--exact)" in err
        code, out, _ = run_cli(capsys, *argv, "--exact")
        assert (code, out) == (0, "zeta: 2.7489986271\nestimate: 2.7489986271\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_weight_kraus_branch_warns_nothing(self, capsys, tmp_path):
        # at AD eps 1 the copies are |00><00|, which the branch I - |00><00| never reaches
        e0 = np.zeros((4, 4))
        e0[0, 0] = 1.0
        path = self.kraus_or_choi_file(tmp_path, kraus=[e0, np.eye(4) - e0])
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "amplitude-damping", "--eps", "1.0", "--shots", "1000")
        assert (code, err) == (0, "")
        assert "zeta_bar: 1\n" in out

    @pytest.mark.parametrize("noise,synth,mode,realization_dim", [
        ("amplitude-damping", ["--k", "2", "--force-sdp"], ["--shots", "10"], 4),
        ("depolarizing", ["--k", "4"], ["--exact"], 16),
    ], ids=["sdp_k2", "recursive_k4"])
    def test_protocol_dimension_mismatch_refused_at_load(self, capsys, tmp_path, noise,
                                                         synth, mode, realization_dim):
        # a file edited to k = 3 no longer matches its realization's dimension
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", noise, "--eps", "0.2", *synth,
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc["k"] = 3
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path),
                                 "--noise", noise, "--eps", "0.2", "--state", "maxmixed",
                                 *mode)
        assert code == 1
        assert f"dimension {realization_dim} to {realization_dim}" in err
        assert "need 8" in err
        assert "broadcast" not in err and "estimate" not in out

    @pytest.mark.parametrize("copy_dim", [0.5, 1])
    def test_recursive_copy_dim_below_two_refused_at_load(self, capsys, tmp_path, copy_dim):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "3",
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc["copy_dim"] = doc["data"]["copy_dim"] = copy_dim
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "depolarizing", "--eps", "0.1", "--exact")
        assert code == 1
        assert f"copy dimension must be an integer >= 2, got {copy_dim}" in err
        assert out == ""

    def test_refused_sampling_prints_nothing(self, capsys, tmp_path):
        # the k = 5 recursion is not trace preserving: its sampled run is refused after
        # the plan (8464 shots) is made, and the plan line is not printed
        path = tmp_path / "p5.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "5",
                "--out", str(path))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "depolarizing", "--eps", "0.1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "(--exact)" in err

    def test_unwritable_run_record_prints_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "no" / "run.json"
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(DATA / "twirl.json"),
                                 "--noise", "depolarizing", "--eps", "0.1", "--shots", "10",
                                 "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(out_path) in err

    def test_renyi_order_must_be_the_protocols(self, capsys, tmp_path):
        # a k = 3 file estimates tr[rho^3], whose -log is no Renyi-2 entropy; refused before
        # the state is read, so the missing state file is not reported
        for mode in (["--exact"], ["--shots", "10"]):
            code, out, err = run_cli(capsys, "estimate", "--protocol",
                                     str(DATA / "recursive_k3.json"), "--noise", "depolarizing",
                                     "--eps", "0.2", "--renyi", "2",
                                     "--state", str(tmp_path / "missing.json"), *mode)
            assert (code, out, err) == (1, "", "error: --renyi 2 needs tr[rho^2], but the "
                                               "protocol retrieves tr[rho^3]\n")

    @pytest.mark.parametrize("flag, value", [
        ("--shots", "100"), ("--out", "run.json"), ("--seed", "5"), ("--format", "csv"),
        ("--delta", "0.01"), ("--fail-prob", "0.1")])
    def test_exact_takes_no_sampling_option(self, capsys, tmp_path, flag, value):
        value = str(tmp_path / value) if flag == "--out" else value
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(DATA / "twirl.json"),
                                 "--noise", "depolarizing", "--eps", "0.1", "--exact",
                                 flag, value)
        assert (code, out) == (1, "")
        assert err == ("error: --exact draws no shots and writes no run, so it takes "
                       f"no {flag}\n")
        assert list(tmp_path.iterdir()) == []

    def test_sampled_defaults_when_options_are_not_given(self, capsys, tmp_path, monkeypatch):
        # --seed, --format, --delta and --fail-prob default to None so that --exact can
        # refuse them; a sampled run reads 0, json, 0.05 and 0.05 for them
        monkeypatch.chdir(tmp_path)
        argv = ("estimate", "--protocol", str(DATA / "de_choi_n1.json"), "--noise",
                "depolarizing", "--eps", "0.1", "--state", "maxmixed")
        implicit = run_cli(capsys, *argv, "--out", "implicit.json")
        explicit = run_cli(capsys, *argv, "--seed", "0", "--format", "json", "--delta", "0.05",
                           "--fail-prob", "0.05", "--out", "explicit.json")
        assert implicit[0] == 0 and "planned shots: " in implicit[1]
        assert implicit[1].replace("implicit", "explicit") == explicit[1]
        assert (tmp_path / "implicit.json").read_text() == (tmp_path / "explicit.json").read_text()

    @pytest.mark.parametrize("argv", [
        ("estimate", "--protocol", str(DATA / "de_choi_n1.json"), "--noise", "depolarizing",
         "--eps", "0.1", "--shots", "10"),
        ("synthesize", "--noise", "depolarizing", "--eps", "0.1")], ids=["estimate", "synthesize"])
    def test_empty_out_refused(self, capsys, tmp_path, monkeypatch, argv):
        # an empty path was taken for no --out: the run printed its report and wrote nothing
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out, err) == (1, "", "error: --out needs a file path, got an empty one\n")
        assert list(tmp_path.iterdir()) == []

    def test_measure_prepare_file_without_values(self, capsys, tmp_path):
        # a measure-and-prepare map with no stored values is sampled by measuring H_2 on
        # its output; --exact reads the same tr[H_2 X] as the valued file
        doc = protocol_to_json(ad_second_moment(0.2))
        valued, valueless = tmp_path / "valued.json", tmp_path / "valueless.json"
        valued.write_text(json.dumps(doc))
        doc["data"]["values"] = None
        valueless.write_text(json.dumps(doc))
        argv = ("--noise", "amplitude-damping", "--eps", "0.2", "--state", "maxmixed")
        exact = [run_cli(capsys, "estimate", "--protocol", str(path), *argv, "--exact")
                 for path in (valued, valueless)]
        assert exact[0] == exact[1] == (0, "zeta: 0.28\nestimate: 0.5\n", "")
        assert run_cli(capsys, "estimate", "--protocol", str(valueless), *argv,
                       "--seed", "4") == (0, (
                           "planned shots: 7205 (delta=0.05, fail_prob=0.05, f=1.5625)\n"
                           "shots: 7205\nzeta_bar: 0.271894517696\nestimate: 0.4873351839\n"),
                           "")
        assert load_protocol(valueless).realization.values is None
        # the same draw as H_2 measured on the valued map's output
        run = run_choi_map(load_protocol(valued), Operator(np.eye(2) / 2),
                           amplitude_damping(0.2), 7205, 4)
        assert f"{run.zeta_bar:.12g}" == "0.271894517696"


class TestSweep:
    def test_csv_structure_and_ordering(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "overhead-sweep", "--noise",
                               "amplitude-damping", "--k", "2",
                               "--eps-grid", "0,0.1,0.2",
                               "--methods", "shift,inverse", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,method,overhead,status"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 6
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("0.1", "shift")] == pytest.approx(1 / 0.81, abs=1e-9)
        assert table[("0.1", "inverse")] == pytest.approx((1.1 / 0.9) ** 2, abs=1e-4)
        # noiseless limit 1 for both methods
        assert table[("0", "shift")] == pytest.approx(1.0, abs=1e-5)
        assert table[("0", "inverse")] == pytest.approx(1.0, abs=1e-5)
        # shift at or below inverse everywhere
        for eps in ("0", "0.1", "0.2"):
            assert table[(eps, "shift")] <= table[(eps, "inverse")] + 1e-6

    def test_unknown_method(self, capsys):
        code = main(["overhead-sweep", "--noise", "depolarizing",
                     "--methods", "bogus"])
        assert code == 1

    @pytest.mark.parametrize("noise, name", [("depolarizing", "depolarizing noise level"),
                                             ("amplitude-damping", "damping rate")])
    @pytest.mark.parametrize("grid", ["1.5", "0.1,1.5", "-0.1"])
    def test_noise_level_outside_unit_interval_refused(self, capsys, noise, name, grid):
        # a level past 1 is no noise, not an infeasible cell: no row is printed
        code, out, err = run_cli(capsys, "overhead-sweep", "--noise", noise, "--k", "2",
                                 "--eps-grid", grid)
        bad = grid.split(",")[-1]
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be in [0, 1], got {bad}\n"

    @pytest.mark.parametrize("grid", ["0:0.3", "0:0.3:7:1", "0.1,,0.2", "0:0.3:2.5", ""])
    def test_malformed_grid_refused_naming_the_option(self, capsys, grid):
        code, out, err = run_cli(capsys, "overhead-sweep", "--noise", "depolarizing",
                                 "--eps-grid", grid)
        assert (code, out) == (1, "")
        assert err == ("error: --eps-grid takes start:stop:num or comma-separated numbers, "
                       f"got {grid!r}\n")

    @pytest.mark.parametrize("noise", ["depolarizing", "amplitude-damping"])
    def test_noise_level_one_is_infeasible(self, capsys, noise):
        code, out, _ = run_cli(capsys, "overhead-sweep", "--noise", noise, "--k", "2",
                               "--eps-grid", "1")
        assert code == 0
        assert out == ("eps,method,overhead,status\n1,shift,NaN,infeasible\n"
                       "1,inverse,NaN,infeasible\n1,recover,NaN,infeasible\n")

    def test_recover_builds_no_k_fold_channel(self, capsys, monkeypatch):
        # the recover program takes one copy's noise: no module may reach tensor_power
        def refused(*args, **kwargs):
            raise AssertionError("tensor_power called")
        for module in [m for name, m in sys.modules.items() if name.startswith("momentshift")]:
            if hasattr(module, "tensor_power"):
                monkeypatch.setattr(module, "tensor_power", refused)
        code, out, _ = run_cli(capsys, "overhead-sweep", "--noise", "amplitude-damping",
                               "--k", "3", "--eps-grid", "0.1", "--methods", "recover")
        eps, method, value, status = out.splitlines()[1].split(",")
        assert (code, eps, method, status) == (0, "0.1", "recover", "optimal")
        assert abs(float(value) - 37 / 27) <= 1e-12


def test_shift_and_recover_run_no_solver(capsys, monkeypatch, tmp_path):
    # synthesize and the sweep's shift and recover cells read one eigendecomposition
    def refused(*args, **kwargs):
        raise AssertionError("solve called")
    for module in [m for name, m in sys.modules.items() if name.startswith("momentshift")]:
        if hasattr(module, "solve"):
            monkeypatch.setattr(module, "solve", refused)
    code, out, _ = run_cli(capsys, "synthesize", "--noise", "amplitude-damping", "--eps",
                           "0.1", "--k", "3", "--force-sdp", "--out", str(tmp_path / "p.json"))
    assert code == 0 and "f: 1.35802469136\nt: " in out and "status: optimal\n" in out
    code, out, _ = run_cli(capsys, "overhead-sweep", "--noise", "depolarizing", "--k", "3",
                           "--eps-grid", "0.1,0.2", "--methods", "shift,recover")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and [(r[1], r[3]) for r in rows] == [("shift", "optimal"),
                                                          ("recover", "optimal")] * 2
    assert abs(float(rows[0][2]) - 1 / 0.81) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--seed", "1"],
    ["overhead-sweep", "--noise", "depolarizing", "--seed", "1"],
    ["estimate", "--protocol", "p.json", "--noise", "depolarizing", "--eps", "0.1",
     "--tol", "1e-3"],
    ["verify", "--tol", "1e-3"],
    ["verify", "--format", "csv"],
    ["verify", "--seed", "1"],
    ["hubbard-demo", "--format", "csv"],
    ["hubbard-demo", "--tol", "1e-3"],
    ["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--format", "csv"],
    ["synthesize", "--noise", "amplitude-damping", "--eps", "0.2", "--force-sdp",
     "--tol", "0"],
    ["synthesize", "--noise", "amplitude-damping", "--eps", "0.2", "--force-sdp",
     "--tol", "-0.5"],
    ["synthesize", "--noise", "amplitude-damping", "--eps", "0.2", "--force-sdp",
     "--tol", "nan"],
    ["overhead-sweep", "--noise", "amplitude-damping", "--eps-grid", "0.2",
     "--methods", "shift,recover", "--tol", "0"],
    ["overhead-sweep", "--noise", "amplitude-damping", "--eps-grid", "0.2", "--tol", "-0.5"],
    ["overhead-sweep", "--noise", "amplitude-damping", "--eps-grid", "0.2", "--tol", "nan"],
])
def test_unread_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--n", "0"], "--n"),
    (["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--n", "-1"], "--n"),
    (["synthesize", "--noise", "amplitude-damping", "--eps", "0.1", "--k", "1"], "--k"),
    (["overhead-sweep", "--noise", "amplitude-damping", "--k", "1"], "--k"),
    (["overhead-sweep", "--noise", "amplitude-damping", "--k", "0"], "--k"),
    (["estimate", "--protocol", "p.json", "--noise", "depolarizing", "--eps", "0.1",
      "--n", "0"], "--n"),
    (["estimate", "--protocol", "p.json", "--noise", "depolarizing", "--eps", "0.1",
      "--exact", "--renyi", "1"], "--renyi"),
], ids=["synthesize_n0", "synthesize_n_negative", "synthesize_k1", "sweep_k1", "sweep_k0",
        "estimate_n0", "estimate_renyi1"])
def test_order_or_qubits_out_of_range_is_usage_error(capsys, tmp_path, argv, flag):
    path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(path)])
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert f"argument {flag}: must be at least" in err
    assert out == "" and not path.exists()


class TestNumericInputs:
    """A number the computation cannot use is an ``error: ...`` line and exit 1, not a
    traceback or a run of every iteration."""

    @pytest.mark.parametrize("delta", ["1e-300", "1e-160"], ids=["square_is_0", "plan_is_inf"])
    def test_delta_too_small_to_plan(self, capsys, tmp_path, delta):
        path = tmp_path / "p.json"
        save_protocol(ad_second_moment(0.2), path)
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "amplitude-damping", "--eps", "0.2", "--delta", delta)
        assert (code, out) == (1, "")
        assert err == (f"error: delta={float(delta):g} at overhead f=1.5625 needs more shots "
                       "than a float can count\n")

    def test_infinite_delta_refused_before_planning(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--protocol",
                                 str(DATA / "recursive_k3.json"), "--noise", "depolarizing",
                                 "--eps", "0.2", "--delta", "inf")
        assert (code, out) == (1, "")
        assert err == "error: delta must be positive and finite, got inf\n"

    @pytest.mark.parametrize("k", ["101", "2000"], ids=["past_q_bound", "past_float_tables"])
    def test_recursive_order_past_bound_refused_first(self, capsys, k):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "synthesize", "--noise", "depolarizing",
                                 "--eps", "0.1", "--k", k)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: moment order must be in [2, 100], got {k}\n"

    def test_recursive_file_order_past_bound(self, capsys, tmp_path):
        doc = json.loads((DATA / "recursive_k3.json").read_text())
        doc["data"]["order"] = 2000
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "depolarizing", "--eps", "0.2", "--exact")
        assert (code, out) == (1, "")
        assert err == "error: moment order must be in [2, 100], got 2000\n"

    @pytest.mark.parametrize("field, value, message", [
        ("f", "Infinity", "protocol field 'f' is not a finite number"),
        ("f", "-Infinity", "protocol field 'f' is not a finite number"),
        ("t", "NaN", "protocol field 't' is not a finite number"),
        ("f", "1" + "0" * 400, "protocol field 'f' is not a finite number"),
        ("f", "1e200", "delta=0.05 at overhead f=1e+200 needs more shots than a float can count"),
    ], ids=["f_inf", "f_minus_inf", "t_nan", "f_int_past_float", "f_1e200"])
    def test_protocol_number_out_of_range(self, capsys, tmp_path, field, value, message):
        doc = protocol_to_json(ad_second_moment(0.2))
        doc[field] = "VALUE"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        code, out, err = run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                                 "amplitude-damping", "--eps", "0.2")
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestFileErrors:
    """A file that cannot be read or written, or that lacks a field, is an
    ``error: ...`` line and exit 1, never a traceback."""

    @staticmethod
    def estimate(capsys, protocol, *flags):
        return run_cli(capsys, "estimate", "--protocol", str(protocol), "--noise",
                       "depolarizing", "--eps", "0.1", "--exact", *flags)

    @staticmethod
    def protocol(capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
                "--out", str(path))
        return path

    def test_missing_protocol_file(self, capsys, tmp_path):
        code, out, err = self.estimate(capsys, tmp_path / "missing.json")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing.json" in err

    def test_missing_state_file(self, capsys, tmp_path):
        path = self.protocol(capsys, tmp_path)
        code, out, err = self.estimate(capsys, path, "--state", str(tmp_path / "missing.json"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing.json" in err

    def test_unwritable_output(self, capsys, tmp_path):
        out_path = tmp_path / "no" / "such" / "p.json"
        code, out, err = run_cli(capsys, "synthesize", "--noise", "depolarizing",
                                 "--eps", "0.1", "--out", str(out_path))
        assert code == 1 and "protocol written" not in out
        assert err.startswith("error: ") and str(out_path) in err

    def test_protocol_without_data(self, capsys, tmp_path):
        path = self.protocol(capsys, tmp_path)
        doc = json.loads(path.read_text())
        del doc["data"]
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: protocol file lacks the field 'data'\n"

    @pytest.mark.parametrize("data", [None, []], ids=["file", "data"])
    def test_protocol_not_an_object(self, capsys, tmp_path, data):
        path = self.protocol(capsys, tmp_path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps([] if data is None else {**doc, "data": data}))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: protocol file or its 'data' is not a JSON object\n"

    def test_protocol_order_as_string(self, capsys, tmp_path):
        path = self.protocol(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["k"] = "2"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: protocol field 'k' is not an integer\n"

    def test_recursive_order_as_string(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "3",
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["order"] = "3"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: protocol field 'order' is not an integer\n"

    def test_copy_dim_as_float(self, capsys, tmp_path):
        path = self.protocol(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["copy_dim"] = 2.0
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: protocol field 'copy_dim' is not an integer\n"

    def test_recursive_copy_dim_as_float(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "3",
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["copy_dim"] = 2.0
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: copy dimension must be an integer >= 2, got 2.0\n"

    def test_state_not_a_matrix(self, capsys, tmp_path):
        path = self.protocol(capsys, tmp_path)
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"a": 1}))
        code, out, err = self.estimate(capsys, path, "--state", str(state))
        assert code == 1 and out == ""
        assert err == "error: a JSON matrix is a list of rows of [real, imag] pairs\n"

    @staticmethod
    def sdp_k2(capsys, tmp_path, choi_form: str, edit=None, flags=("--exact",)):
        """Estimate from the stored k = 2 SDP file, its Choi matrix in ``choi_form`` and
        passed through ``edit`` (the matrix JSON in, the field's JSON out)."""
        doc = json.loads((DATA / "sdp_ad_k2.json").read_text())
        if choi_form == "object":
            doc["data"]["choi"] = matrix_to_json(matrix_from_json(doc["data"]["choi"]))
        if edit is not None:
            doc["data"]["choi"] = edit(doc["data"]["choi"])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "estimate", "--protocol", str(path), "--noise",
                       "amplitude-damping", "--eps", "0.2", *flags)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: {**c, "base64": "AAAA*AAA"}, "holds text that is not base64"),
        (lambda c: {**c, "base64": c["base64"][:-2]}, "holds text that is not base64"),
        (lambda c: {**c, "base64": c["base64"][:-4]},
         "holds 4095 bytes, not the 4096 of a 16 x 16 matrix"),
        (lambda c: {**c, "base64": base64.b64encode(bytes(16 * 15)).decode()},
         "holds 240 bytes, not the 4096 of a 16 x 16 matrix"),
        (lambda c: {**c, "shape": [16, 16.0]}, "has shape [16, 16.0], not two positive integers"),
        (lambda c: {**c, "shape": [256]}, "has shape [256], not two positive integers"),
        (lambda c: {**c, "shape": [-16, -16]}, "has shape [-16, -16], not two positive integers"),
        (lambda c: {**c, "shape": "16 x 16"}, "has shape '16 x 16', not two positive integers"),
        (lambda c: {"shape": c["shape"]}, "lacks the key 'base64'"),
        (lambda c: {"base64": c["base64"]}, "lacks the key 'shape'"),
    ], ids=["not_base64", "cut_padding", "cut_group", "byte_count", "float_dim", "one_dim",
            "negative", "string", "no_base64", "no_shape"])
    def test_malformed_matrix_object(self, capsys, tmp_path, edit, message):
        code, out, err = self.sdp_k2(capsys, tmp_path, "object", edit)
        assert (code, out, err) == (1, "", f"error: a matrix in JSON field 'choi' {message}\n")

    @pytest.mark.parametrize("choi_form", ["object", "pairs"])
    def test_choi_forms_estimate_alike(self, capsys, tmp_path, choi_form):
        code, out, err = self.sdp_k2(capsys, tmp_path, choi_form)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "estimate", "--protocol", str(DATA / "sdp_ad_k2.json"),
                              "--noise", "amplitude-damping", "--eps", "0.2", "--exact")[1]

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("choi_form", ["object", "pairs"])
    def test_non_finite_choi_entry(self, capsys, tmp_path, choi_form, exact):
        def with_nan(c):
            m = matrix_from_json(c)
            m[3, 5] = complex(0.1, np.nan)
            return matrix_to_json(m) if choi_form == "object" else \
                np.stack([m.real, m.imag], axis=-1).tolist()
        code, out, err = self.sdp_k2(capsys, tmp_path, choi_form, with_nan,
                                     ["--exact"] if exact else ["--shots", "10"])
        assert (code, out, err) == (1, "", "error: a matrix in JSON field 'choi' has a "
                                           "non-finite entry\n")

    @pytest.mark.parametrize("field, value, message", [
        ("unitaries", "Infinity", "a matrix in JSON field 'unitaries' has a non-finite entry"),
        ("probabilities", "NaN", "JSON field 'probabilities' is not a list of numbers"),
    ])
    def test_non_finite_v1_entry(self, capsys, tmp_path, field, value, message):
        doc = json.loads((DATA / "twirl.json").read_text())
        entries = doc["data"][field]
        if field == "unitaries":
            entries[1][0][1][0] = "VALUE"
        else:
            entries[1] = "VALUE"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        code, out, err = self.estimate(capsys, path)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("form", ["object", "pairs", "non_finite"])
    def test_state_in_either_form(self, capsys, tmp_path, form):
        path = self.protocol(capsys, tmp_path)
        rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
        if form == "non_finite":
            rho[1, 1] = np.inf
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(rho) if form == "object" else
                                    np.stack([rho.real, rho.imag], axis=-1).tolist()))
        code, out, err = self.estimate(capsys, path, "--state", str(state))
        if form == "non_finite":
            assert (code, out, err) == (1, "", "error: a JSON matrix has a non-finite entry\n")
        else:
            assert (code, err) == (0, "") and "estimate: 0.75\n" in out

    @pytest.mark.parametrize("edit, message", [
        ({"k": 4, "copy_dim": 2, "f": 99}, "'k' = 4 and 'copy_dim' = 2 disagree with "
                                           "data.order = 2 and data.copy_dim = 4"),
        ({"copy_dim": -4}, "'k' = 2 and 'copy_dim' = -4 disagree with "
                           "data.order = 2 and data.copy_dim = 4"),
    ], ids=["k4_d2", "copy_dim_negative"])
    def test_recursive_fields_must_match_data(self, capsys, tmp_path, edit, message):
        # both edits keep copy_dim^k = 16, the dimension of the k = 2, d = 4 retriever
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--n", "2",
                "--out", str(path))
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path, "--renyi", "4")
        assert (code, out, err) == (1, "", f"error: protocol fields {message}\n")

    @pytest.mark.parametrize("field, value", [("f", 99), ("t", 5), ("f", None)],
                             ids=["f", "t", "f_within_tolerance"])
    def test_recursive_overhead_and_shift_must_match_data(self, capsys, tmp_path, field, value):
        # a recursive file's data rebuilds f and t: a stored value more than 1e-12
        # relative from the rebuilt one is refused, naming the field, not replaced
        path = tmp_path / "p.json"
        run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "3",
                "--out", str(path))
        doc = json.loads(path.read_text())
        rebuilt = doc[field]
        doc[field] = rebuilt * (1 + 1e-13) if value is None else value
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        if value is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (1, "", f"error: protocol field {field!r} = {value!r} "
                                               f"differs from {rebuilt!r}, the value its data "
                                               "builds\n")

    @staticmethod
    def document(source: str) -> dict:
        """A protocol file's JSON: a current kind by name, or a stored earlier-kind file."""
        protocols = {"channel": de_second_moment, "measure_prepare": ad_second_moment}
        if source in protocols:
            return json.loads(json.dumps(protocol_to_json(protocols[source](0.1))))
        return json.loads((Path(__file__).parent / "data" / "protocols_v1" / source).read_text())

    @pytest.mark.parametrize("bad", [5, ["x"]], ids=["not_a_list", "wrong_entries"])
    @pytest.mark.parametrize("source, field, entries", [
        ("channel", "kraus", "matrices"),
        ("measure_prepare", "effects", "matrices"),
        ("measure_prepare", "outputs", "matrices"),
        ("measure_prepare", "values", "numbers"),
        ("twirl.json", "probabilities", "numbers"),
        ("twirl.json", "unitaries", "matrices"),
        ("ad_measure.json", "basis_states", "matrices"),
        ("ad_measure.json", "output_states", "matrices"),
        ("ad_measure.json", "outcome_values", "numbers"),
    ])
    def test_data_list_of_wrong_type(self, capsys, tmp_path, source, field, entries, bad):
        doc = self.document(source)
        doc["data"][field] = bad
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == f"error: JSON field {field!r} is not a list of {entries}\n"

    @pytest.mark.parametrize("source, field, message", [
        ("measure_prepare", "outputs", "'effects' and 'outputs' have 4 and 3"),
        ("twirl.json", "probabilities", "'probabilities' and 'unitaries' have 11 and 12"),
        ("ad_measure.json", "output_states", "'basis_states' and 'output_states' have 4 and 3"),
    ])
    def test_paired_lists_of_two_lengths_refused(self, capsys, tmp_path, source, field,
                                                 message):
        # zip would drop the unpaired entry and evaluate another map
        doc = self.document(source)
        doc["data"][field].pop()
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path, "--state", "maxmixed")
        assert (code, out, err) == (1, "", f"error: fields {message} entries; they must "
                                           "pair up\n")

    def test_effect_of_another_shape_refused(self, capsys, tmp_path):
        doc = self.document("measure_prepare")
        doc["data"]["effects"][1] = matrix_to_json(np.eye(2) / 2)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path, "--state", "maxmixed")
        assert (code, out, err) == (1, "", "error: field 'effects'[1] has shape (2, 2), "
                                           "not (4, 4)\n")

    @pytest.mark.parametrize("source, field", [("measure_prepare", "values"),
                                               ("ad_measure.json", "outcome_values")])
    def test_stored_value_outside_unit_range(self, capsys, tmp_path, source, field):
        # the Hoeffding plan assumes per-shot values in [-1, 1]
        doc = self.document(source)
        doc["data"][field][-1] = 1.5
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        assert code == 1 and out == ""
        assert err == "error: outcome values must lie in [-1, 1]\n"

    @pytest.mark.parametrize("shift", [None, 1e-13], ids=["disagrees", "within_tolerance"])
    @pytest.mark.parametrize("source, field", [("measure_prepare", "values"),
                                               ("ad_measure.json", "outcome_values")])
    def test_stored_value_must_match_its_output(self, capsys, tmp_path, source, field, shift):
        # sampling records the stored values, where --exact and the contract read the
        # outputs: a value more than 1e-12 from tr[H_k] of its output is refused
        doc = self.document(source)
        values = doc["data"][field]
        values[:2] = [0.0, 0.0] if shift is None else [v + shift for v in values[:2]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.estimate(capsys, path)
        if shift is not None:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and out == ""
            assert err.startswith(f"error: protocol field {field!r}[0] = 0.0 differs from 0.")
            assert err.endswith(", tr[H_k] of its output\n")


class TestVerifyCommand:
    def test_moments_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "moments",
                               "--out", str(report))
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        doc = json.loads(report.read_text())
        assert doc["failed"] == 0

    @pytest.mark.parametrize("suite", ["protocols", "hubbard", "sdp"])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_check_names(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
            f"PASS {name}" for name in (
                "cyclic_trace_identity_k2_5", "observable_eigenvalue_bound",
                "strong_duality_gap_gmin", "shift_below_inverse_k2", "sdp_protocol_contract_k2",
                "noninvertible_infeasible", "invertibility_rank_test",
                "q_condition_k3_100", "contract_certificate", "recursive_retriever_cp_k3_4",
                "choi_link_product_convention",
                "canonical_anticommutation", "ground_energy_variational",
                "reduced_purity_in_range")]
        assert out.splitlines()[-1] == "14/14 checks passed"


class TestHubbardDemo:
    def test_outputs(self, capsys, tmp_path):
        prefix = str(tmp_path / "demo")
        code, out, _ = run_cli(capsys, "hubbard-demo", "--eps", "0.1",
                               "--shots", "256", "--trials", "4", "--seed", "1",
                               "--out", prefix)
        assert code == 0
        csv_lines = (tmp_path / "demo.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "trial_index,method,estimate"
        assert len(csv_lines) == 9
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert {"exact", "means", "std_errors", "params"} <= set(doc)

    def test_seed_reproducible(self, capsys):
        args = ("hubbard-demo", "--eps", "0.1", "--shots", "128",
                "--trials", "2", "--seed", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flags, message", [
        (("--shots", "0", "--trials", "2"), "shots must be at least 1"),
        (("--shots", "16", "--trials", "1"), "trials must be at least 2"),
    ], ids=["zero_shots", "one_trial"])
    def test_no_standard_error_is_usage_error(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "hubbard-demo", "--eps", "0.1", *flags)
        assert code == 1
        assert message in err
        assert "nan" not in out

    def test_shots_above_int64_refused(self, capsys):
        code, out, err = run_cli(capsys, "hubbard-demo", "--shots", "10000000000000000000",
                                 "--trials", "2")
        assert (code, out) == (1, "")
        assert err == ("error: shots must be at most 2^63 - 1 = 9223372036854775807, "
                       "got 10000000000000000000\n")

    @pytest.mark.parametrize("subsystem", ["0,x", "0,"])
    def test_malformed_subsystem_refused_naming_the_option(self, capsys, subsystem):
        code, out, err = run_cli(capsys, "hubbard-demo", "--subsystem", subsystem)
        assert (code, out) == (1, "")
        assert err == ("error: --subsystem takes comma-separated qubit indices, "
                       f"got {subsystem!r}\n")

    @pytest.mark.parametrize("flags, message", [
        (("--trials", "100000000"), "100000000 trials of 4096 shots needs 6104 MiB"),
    ], ids=["trials"])
    def test_oversized_run_refused_before_allocating(self, capsys, flags, message):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "hubbard-demo", "--eps", "0.1", *flags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"error: {message}, over the 4096 MiB memory budget" in err
        assert out == ""
        assert peak < 16 * 2 ** 20


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, tmp_path):
    # main builds its parser once per process; a usage error in between must
    # not change what the next command prints
    path = tmp_path / "p.json"
    run_cli(capsys, "synthesize", "--noise", "depolarizing", "--eps", "0.1",
            "--out", str(path))
    commands = [
        ("estimate", "--protocol", str(path), "--noise", "depolarizing", "--eps", "0.1",
         "--shots", "500", "--seed", "2"),
        ("estimate", "--protocol", str(path), "--noise", "depolarizing"),  # no --eps
        ("hubbard-demo", "--eps", "0.1", "--shots", "64", "--trials", "3", "--seed", "5"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    in_sequence = [outcome(argv) for argv in commands]
    alone = []
    for argv in commands:
        build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _ in in_sequence] == [0, 1, 0]
    assert in_sequence == alone


PARSE_CASES = {
    "estimate_exact": ["estimate", "--protocol", "p.json", "--noise", "depolarizing",
                       "--eps", "0.1", "--n", "2", "--state", "s.json", "--exact",
                       "--renyi", "3"],
    "estimate_sampled": ["estimate", "--protocol", "p.json", "--noise", "amplitude-damping",
                         "--eps", "0.2", "--delta", "0.01", "--fail-prob", "0.1",
                         "--seed", "7", "--format", "csv", "--out", "run.csv"],
    "opt_equals_value": ["estimate", "--protocol=p.json", "--noise=depolarizing",
                         "--eps=0.1", "--state-seed=3"],
    "abbreviated_option": ["synthesize", "--nois", "depolarizing", "--eps", "0.1",
                           "--force"],
    "double_dash_value": ["overhead-sweep", "--noise", "depolarizing", "--eps-grid", "--",
                          "0.1"],
    "double_dash_then_options": ["synthesize", "--noise", "depolarizing", "--",
                                 "--eps", "0.1"],
    "negative_value": ["synthesize", "--noise", "depolarizing", "--eps", "-0.1"],
    "help_before_command": ["-h", "estimate"],
    "help_after_command": ["estimate", "-h"],
    "help_abbreviated_after_options": ["verify", "--suite", "sdp", "--he"],
    "unknown_option_after_valid": ["synthesize", "--noise", "depolarizing", "--eps", "0.1",
                                   "--bogus", "3"],
    "unknown_positional": ["verify", "extra", "words"],
    "unknown_command": ["bogus", "--eps", "0.1"],
    "leading_unknown_option": ["--bogus", "estimate"],
    "empty_argv": [],
    "missing_required": ["estimate", "--protocol", "p.json", "--noise", "depolarizing"],
    "bad_choice": ["synthesize", "--noise", "bitflip", "--eps", "0.1"],
    "bad_type": ["hubbard-demo", "--shots", "many"],
    "below_floor": ["synthesize", "--noise", "depolarizing", "--eps", "0.1", "--k", "1"],
    "missing_value": ["estimate", "--protocol"],
    "defaults_only": ["hubbard-demo"],
    "repeated_option": ["overhead-sweep", "--noise", "depolarizing", "--k", "2", "--k", "3",
                        "--methods", "shift"],
}


def _parsed(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_direct_dispatch_parses_as_the_top_level_parser(capsys, argv):
    # a call that opens with its subcommand skips the top-level pass; it must return the
    # namespace, or exit with the code and output, that the full argparse pass gives
    direct = _parsed(capsys, parse_args, argv)
    reference = _parsed(capsys, build_parser().parse_args, argv)
    assert direct == reference
    assert isinstance(direct[0], int) or direct[1:] == ("", "")


def test_subcommand_call_skips_the_top_level_pass(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("top-level parser read a subcommand's argv")
    monkeypatch.setattr(build_parser(), "parse_known_args", refused)
    args = parse_args(PARSE_CASES["estimate_exact"])
    assert (args.command, args.fn, args.exact, args.renyi) == ("estimate", cmd_estimate,
                                                               True, 3)
