import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from momentshift.channels import Channel, amplitude_damping, depolarizing
from momentshift.cli import build_parser, main
from momentshift.estimator import run_protocol
from momentshift.operators import Operator
from momentshift.protocols import (RetrievalProtocol, ad_second_moment, de_second_moment,
                                   load_protocol, protocol_to_json, save_protocol)
from oracles import run_to_json


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

    @pytest.mark.parametrize("source,noise,needed", [
        ("twirl.json", "depolarizing", 228882),
        ("ad_measure.json", "amplitude-damping", 152588),
        ("de_choi_n1.json", "depolarizing", 152588),
    ], ids=["kraus", "measurement", "choi"])
    def test_oversized_shots_refused_before_sampling(self, capsys, source, noise, needed):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "estimate", "--protocol",
                                     str(Path(__file__).parent / "data" / "protocols_v1" / source),
                                     "--noise", noise, "--eps", "0.1", "--state", "maxmixed",
                                     "--shots", "10000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert (f"error: 10000000000 shots needs {needed} MiB, over the 4096 MiB memory budget"
                in err)
        assert out == ""
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
        if isinstance(source, tuple):
            path = tmp_path / "p.json"
            run_cli(capsys, "synthesize", *source, "--eps", "0.2", "--out", str(path))
        else:
            path = Path(__file__).parent / "data" / "protocols_v1" / source
        out_path = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "estimate", "--protocol", str(path), "--noise", noise,
                             "--eps", "0.1", "--state", "maxmixed", "--shots", "32771",
                             "--seed", "11", "--out", str(out_path))
        assert code == 0
        p = load_protocol(path)
        channel = depolarizing(0.1, 2) if noise == "depolarizing" else amplitude_damping(0.1)
        run = run_protocol(p, Operator(np.eye(2) / 2), channel, 32771, 11)
        assert out_path.read_text() == json.dumps(run_to_json(run))

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

    @pytest.mark.parametrize("tol", ["0", "-0.5", "nan"])
    @pytest.mark.parametrize("command", [
        ["synthesize", "--noise", "amplitude-damping", "--eps", "0.2", "--force-sdp"],
        ["overhead-sweep", "--noise", "amplitude-damping", "--eps-grid", "0.2"],
    ], ids=["synthesize", "sweep"])
    def test_tolerance_must_be_positive(self, capsys, command, tol):
        code, out, err = run_cli(capsys, *command, "--tol", tol)
        assert (code, out) == (1, "")
        assert err == f"error: solver tolerance must be positive, got {float(tol)}\n"


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
                "strong_duality_gap_k2", "shift_below_inverse_k2", "sdp_protocol_contract_k2",
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

    @pytest.mark.parametrize("flags, message", [
        (("--shots", "1000000000"), "60 trials of 1000000000 shots needs 15259 MiB"),
        (("--trials", "100000000"), "100000000 trials of 4096 shots needs 4674 MiB"),
    ], ids=["shots", "trials"])
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
