"""Seeded outputs pinned across protocol-file formats.

The files in ``data/protocols_v1`` were written by the version-1 writers,
whose kinds were ``mixed_unitary``, ``measurement_based``, ``choi`` and
``recursive``; the expected stdout below was printed by the same code.  Each
case runs once on the stored file and once on a file written now, and both
must print the same bytes: loading an old file and rewriting a protocol in
the current kinds both keep every sampling stream.  The recursive k = 4, 5 and
the non-default Hubbard subsystem cases pin larger k-copy states on files
written now.
"""

import contextlib
import io
from pathlib import Path

import pytest

from momentshift import cli
from momentshift.hubbard import fig4_experiment
from momentshift.protocols import de_second_moment, save_protocol

V1 = Path(__file__).parent / "data" / "protocols_v1"

DE, AD = "depolarizing", "amplitude-damping"

# name: (noise, eps, synthesize flags or None for the twirl, sampled stdout, exact stdout)
CASES = {
    "ad_measure": (AD, "0.2", ["--k", "2"],
                   "planned shots: 7205 (delta=0.05, fail_prob=0.05, f=1.5625)\n"
                   "shots: 7205\nzeta_bar: 0.55519777932\nestimate: 0.929996530187\n",
                   "zeta: 0.553884692747\nestimate: 0.927944832417\n"
                   "renyi_2: 0.0747829957897\n"),
    "de_choi_n1": (DE, "0.1", ["--k", "2"],
                   "planned shots: 4498 (delta=0.05, fail_prob=0.05, f=1.23456790123)\n"
                   "shots: 4498\nzeta_bar: 0.849266340596\nestimate: 0.931193013081\n",
                   "zeta: 0.846635314258\nestimate: 0.927944832417\n"
                   "renyi_2: 0.0747829957897\n"),
    "sdp_ad_k2": (AD, "0.2", ["--k", "2", "--force-sdp"],
                  "planned shots: 7205 (delta=0.05, fail_prob=0.05, f=1.5624995827)\n"
                  "shots: 7205\nzeta_bar: 0.570575988897\nestimate: 0.954025161847\n",
                  "zeta: 0.553884593499\nestimate: 0.927944863503\n"
                  "renyi_2: 0.0747829622894\n"),
    # sampling is refused (exit 1) before anything is printed; the exact run reports the
    # k = 3 moment, so it takes --renyi 3 (test_cli: --renyi 2 on this file is refused)
    "recursive_k3": (DE, "0.2", ["--k", "3"], "",
                     "zeta: 0.428661631296\nestimate: 0.891917248625\n"
                     "renyi_3: 0.0571909606525\n"),
}
# the twirl has de_choi_n1's Choi matrix, so the same H_2 law and the same draw-1 stream
CASES["twirl"] = (DE, "0.1", None, CASES["de_choi_n1"][3],
                  "zeta: 0.846635314258\nestimate: 0.927944832417\nrenyi_2: 0.0747829957897\n")


# name: (sampled stdout, exact stdout) of a file written now, where it differs from the
# stored v1 file's: the solver now lands on the optimum f = 1.5625 of the closed form
WRITTEN_NOW = {
    "sdp_ad_k2": ("planned shots: 7205 (delta=0.05, fail_prob=0.05, f=1.5625)\n"
                  "shots: 7205\nzeta_bar: 0.570575988897\nestimate: 0.954024982651\n",
                  CASES["ad_measure"][4]),
}


# k: `estimate --exact --renyi k` stdout of the recursive retriever, depolarizing eps 0.2
RECURSIVE_EXACT = {
    4: "zeta: 0.355435717497\nestimate: 0.858485638421\nrenyi_4: 0.0508617758242\n",
    5: "zeta: 0.270299028279\nestimate: 0.826352015011\nrenyi_5: 0.0476836069876\n",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _written_now(name, tmp_path):
    noise, eps, flags = CASES[name][:3]
    path = tmp_path / f"{name}.json"
    if flags is None:
        save_protocol(de_second_moment(float(eps)), path)
    else:
        rc, _ = _run(["synthesize", "--noise", noise, "--eps", eps, *flags,
                      "--out", str(path)])
        assert rc == 0
    return path


@pytest.mark.parametrize("source", ["v1", "current"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_stdout_pinned(name, source, tmp_path):
    noise, eps, _, sampled, exact = CASES[name]
    if source == "v1":
        path = V1 / f"{name}.json"
    else:
        path = _written_now(name, tmp_path)
        sampled, exact = WRITTEN_NOW.get(name, (sampled, exact))
    base = ["estimate", "--protocol", str(path), "--noise", noise, "--eps", eps]
    assert _run(base + ["--seed", "4", "--state-seed", "4"]) == \
        (1 if name == "recursive_k3" else 0, sampled)
    renyi = "3" if name == "recursive_k3" else "2"
    assert _run(base + ["--state-seed", "4", "--exact", "--renyi", renyi]) == (0, exact)


def test_hubbard_demo_stdout_pinned():
    assert _run(["hubbard-demo", "--eps", "0.1", "--shots", "256", "--trials", "4",
                 "--seed", "4"]) == (0, (
                     "exact tr[rho_A^2]: 0.299126782022\n"
                     "analytic biased value: 0.289792693438\n"
                     "raw mean: 0.2734375 (se 0.0279872203909)\n"
                     "mitigated mean: 0.303047839506 (se 0.035764846099)\n"))


@pytest.mark.parametrize("k", sorted(RECURSIVE_EXACT))
def test_recursive_exact_stdout_pinned(k, tmp_path):
    path = tmp_path / f"recursive_k{k}.json"
    assert _run(["synthesize", "--noise", DE, "--eps", "0.2", "--k", str(k),
                 "--out", str(path)])[0] == 0
    assert _run(["estimate", "--protocol", str(path), "--noise", DE, "--eps", "0.2",
                 "--state-seed", "4", "--exact", "--renyi", str(k)]) == \
        (0, RECURSIVE_EXACT[k])


def test_hubbard_demo_subsystem_stdout_pinned():
    assert _run(["hubbard-demo", "--eps", "0.1", "--shots", "256", "--trials", "4",
                 "--seed", "4", "--subsystem", "1,3"]) == (0, (
                     "exact tr[rho_A^2]: 0.407724686559\n"
                     "analytic biased value: 0.377756996113\n"
                     "raw mean: 0.375 (se 0.0287049579232)\n"
                     "mitigated mean: 0.418788580247 (se 0.033986584542)\n"))


def test_fig4_estimates_pinned():
    res = fig4_experiment(0.1, shots=256, trials=4, seed=9)
    assert [float(x) for x in res.raw_estimates] == [
        0.359375, 0.2421875, 0.3203125, 0.421875]
    assert [float(x) for x in res.mitigated_estimates] == [
        0.40432098765432095, 0.28858024691358025, 0.38503086419753085,
        0.41396604938271603]


def test_hubbard_demo_benchmark_size_stdout_pinned():
    # the default 4096 shots x 60 trials
    assert _run(["hubbard-demo", "--eps", "0.17", "--subsystem", "1,3",
                 "--seed", "3"]) == (0, (
                     "exact tr[rho_A^2]: 0.407724686559\n"
                     "analytic biased value: 0.358656536571\n"
                     "raw mean: 0.362182617188 (se 0.00203024552968)\n"
                     "mitigated mean: 0.411437353329 (se 0.00237380101678)\n"))


def test_sampled_k3_stdout_pinned(tmp_path):
    # a k = 3 retriever from the solver, sampled through H_3's outcomes
    path = tmp_path / "sdp_ad_k3.json"
    assert _run(["synthesize", "--noise", AD, "--eps", "0.1", "--k", "3", "--force-sdp",
                 "--out", str(path)])[0] == 0
    assert _run(["estimate", "--protocol", str(path), "--noise", AD, "--eps", "0.1",
                 "--seed", "4", "--state-seed", "4"]) == (0, (
                     "planned shots: 5443 (delta=0.05, fail_prob=0.05, f=1.35802469136)\n"
                     "shots: 5443\nzeta_bar: 0.651111519383\nestimate: 0.896571199162\n"))
