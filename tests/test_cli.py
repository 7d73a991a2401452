import configparser
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from dpkam import cli, torus
from dpkam.cli import SCHEMA, config_hash, load_config, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_config(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


BASE = """
[problem]
splus = 6 7
epsilon = 0.001
a = 0.1
xi = 13/10 17/10
"""


def test_resonances_cmd(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\norder = 4\nbound = 3\n")
    out = str(tmp_path / "out")
    rc = main(["resonances", "--config", cfg, "--out", out])
    assert rc == 0
    lines = (tmp_path / "out" / "resonances.csv").read_text().splitlines()
    assert lines[0] == "order,indices,m_resonant_up_to,trivial,permutations"
    assert any("-3 -1 2 2,0" in ln for ln in lines)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass"] and summary["config_hash"]


def test_resonances_order_cap(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\norder = 9\nbound = 3\n")
    rc = main(["resonances", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_resonances_budget(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\norder = 6\nbound = 40\n")
    rc = main(["resonances", "--config", cfg, "--out", str(tmp_path / "o"),
               "--budget", "50"])
    assert rc == 2
    assert not os.path.exists(tmp_path / "o")  # no artifact, no summary


@pytest.mark.parametrize("verb,work", [
    ("twist", "the twist pair scan of 6670 steps"),  # 116 normal sites |j| <= 60
    ("spectrum", "the divisor scan of 48012 steps"),  # 12 ells, |j| <= 2000
], ids=["twist", "spectrum"])
def test_scan_budget(tmp_path, capsys, verb, work):
    rc = main([verb, "--config", write_config(tmp_path, BASE), "--out", str(tmp_path / "o"),
               "--budget", "1"])
    assert rc == 2 and work in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_missing_field_usage_error(tmp_path):
    cfg = write_config(tmp_path, "[scan]\norder = 4\n")
    rc = main(["twist", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_wbnf_cmd(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\nmax_order = 2\n")
    out = str(tmp_path / "out")
    rc = main(["wbnf", "--config", cfg, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "generator_deg3.txt"))
    assert os.path.exists(os.path.join(out, "normalform_deg4.txt"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    checks = {c["check"]: c for c in summary["checks"]}
    assert checks["degree4_closed_form"]["pass"]


# the symbolic artifacts of `dpkam wbnf` at S+ = {6, 7}, max_order 3: every
# generator and normal-form coefficient, its phase and the text form
WBNF_SHA256 = {
    "generator_deg3.txt": "8ec0b74adce8018c122cc558658e8b44189ad053fc74231cd08997c8d53b9b50",
    "generator_deg4.txt": "220cf060a0cdcc9f252979dd67c098f1196a51c5374f568d9d808f063c4277f8",
    "generator_deg5.txt": "15d56bf3c2bd464720cf0a9a26baa0d706d57330a1429554400a079809393316",
    "normalform_deg3.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "normalform_deg4.txt": "6445d2e14db21053794870c501283acec42365405055e945bee1a7cd921e3686",
    "normalform_deg5.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_wbnf_artifact_bytes(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\nmax_order = 3\n")
    out = tmp_path / "out"
    assert main(["wbnf", "--config", cfg, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.glob("*_deg*.txt"))
    assert written == sorted(WBNF_SHA256)
    for name, digest in WBNF_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# nondegeneracy.json at S+ = {6, 7}, j_bound 20: its values, witnesses and
# record key order (check, value, threshold, witness, pass)
NONDEGENERACY_SHA256 = "c27be9a7bd4cd4b8af8714e0dcc8a776acdc3a91dc6262ef9d6d98e7219f4a59"


def test_twist_cmd(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\nj_bound = 20\n")
    out = str(tmp_path / "out")
    rc = main(["twist", "--config", cfg, "--out", out])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "twist.json").read_text())
    assert payload["det_A"].count("/") == 1
    report = (tmp_path / "out" / "nondegeneracy.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == NONDEGENERACY_SHA256


@pytest.mark.parametrize("splus,xi,witness", [
    ("6 7", "13/10 17/10", ""),
    ("20 21 22", "3/2 3/2 3/2", "corto100_rank_one_det"),
], ids=["6 7 passes", "20 21 22 fails"])
def test_twist_nondegeneracy_names_the_failed_records(tmp_path, splus, xi, witness):
    out = tmp_path / "out"
    rc = main(["twist", "--config", write_config(tmp_path, BASE), "--out", str(out),
               "--set", f"problem.splus={splus}", "--set", f"problem.xi={xi}",
               "--set", "scan.j_bound=12"])
    assert rc == (1 if witness else 0)
    checks = {c["check"]: c for c in json.loads((out / "summary.json").read_text())["checks"]}
    assert checks["nondegeneracy"]["witness"] == witness
    assert checks["nondegeneracy"]["pass"] is (witness == "")


def test_spectrum_cmd(tmp_path):
    cfg = write_config(
        tmp_path,
        BASE + "[scan]\nident_j_max = 10\nspectrum_j_max = 12\nj_bound = 60\n",
    )
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", cfg, "--out", out])
    assert rc == 0
    csv = (tmp_path / "out" / "spectrum.csv").read_text()
    assert csv.splitlines()[0] == "j,lambda,ell_j,kappa_j,j_kappa_j,d0_j"


def test_measure_cmd_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        BASE + "[mc]\nfamily = G0_1\nsamples = 2000\neps_values = 0.15 0.2\n"
               "ell_max = 4\n",
    )
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    rc1 = main(["measure", "--config", cfg, "--out", out1, "--seed", "7"])
    rc2 = main(["measure", "--config", cfg, "--out", out2, "--seed", "7"])
    assert rc1 in (0, 1) and rc2 == rc1
    csv1 = (tmp_path / "o1" / "measure.csv").read_bytes()
    csv2 = (tmp_path / "o2" / "measure.csv").read_bytes()
    assert csv1 == csv2  # byte-identical for identical config + seed
    summary = json.loads((tmp_path / "o1" / "measure_summary.json").read_text())
    assert summary["family"] == "G0_1"


@pytest.mark.parametrize("family,checks", [
    ("G0_0", ["slab_within_lemma_bound", "mc_within_quadrature"]),
    ("first_melnikov", ["mc_within_quadrature"]),
])
def test_measure_cmd_checks(tmp_path, family, checks):
    # the Monte-Carlo fraction is checked against the slab quadrature of every
    # family, and G0_0's quadrature against the measure lemma; both hold
    cfg = write_config(
        tmp_path,
        BASE + f"[mc]\nfamily = {family}\nsamples = 2000\neps_values = 0.08 0.16\n"
               "ell_max = 4\n",
    )
    out = str(tmp_path / "out")
    assert main(["measure", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [c["check"] for c in summary["checks"]] == checks
    quad = json.loads((tmp_path / "out" / "measure_summary.json").read_text())
    assert len(quad["slab_quadrature_fractions"]) == 2


# every CSV artifact at a small size, byte for byte
CSV_SHA256 = {
    "resonances.csv": ("resonances", "[scan]\norder = 4\nbound = 3\n", [],
                       "0fa284b468be989126659fe3fe56848ca7335a008dbf3c0785057771430cfc49"),
    "spectrum.csv": ("spectrum", "[scan]\nident_j_max = 10\nspectrum_j_max = 12\nj_bound = 60\n",
                     [], "a41398038c0353c867752f36d2988e2b82c9aaa9371cd5c7be89a41eb30222ee"),
    "measure.csv": ("measure", "[mc]\nfamily = G0_1\nsamples = 2000\neps_values = 0.15 0.2\n"
                               "ell_max = 4\n", ["--seed", "7"],
                    "e69dc0534dd2fa1c04202c18025548ff5c0cefea9dd2d0e7a8cae7991d18e4ae"),
    "trajectory.csv": ("evolve", "[truncation]\nn_x = 16\nn_phi = 4\n[evolve]\nT = 1\n"
                                 "n_modes = 32\n", [],
                       "0f5589c3fedcea75fdaf38c433d6448a620174d37e4507bbc4d29e4cd1712f8c"),
}


@pytest.mark.parametrize("name,verb,extra,args,sha256",
                         [(name, *row) for name, row in CSV_SHA256.items()], ids=list(CSV_SHA256))
def test_csv_bytes(tmp_path, name, verb, extra, args, sha256):
    out = tmp_path / "out"
    assert main([verb, "--config", write_config(tmp_path, BASE + extra), "--out", str(out)]
                + args) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256


def test_solve_and_evolve_cmd(tmp_path):
    cfg = write_config(
        tmp_path,
        BASE + "[truncation]\nn_x = 16\nn_phi = 4\n[evolve]\nT = 5\nn_modes = 48\n",
    )
    out = str(tmp_path / "out")
    rc = main(["solve", "--config", cfg, "--out", out])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass"]
    assert os.path.exists(os.path.join(out, "torus.json"))
    rc2 = main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev"),
                "--set", f"evolve.checkpoint={os.path.join(out, 'torus.json')}"])
    assert rc2 == 0
    traj = (tmp_path / "ev" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,H,K1,sup_norm_u"
    assert len(traj) > 3
    assert float(traj[-1].split(",")[0]) == 5.0  # [evolve] T = 5 from the file
    # the drift checks carry the step accounting of the run
    checks = json.loads((tmp_path / "ev" / "summary.json").read_text())["checks"]
    assert [c["check"] for c in checks] == ["H_drift", "K1_drift"]
    for c in checks:
        assert re.fullmatch(r"T=5\.0, accepted \d+, rejected \d+, dt \S+ to \S+", c["witness"])


@pytest.mark.parametrize("eps, value", [("0.05", "residual stalled"), ("0.2", False)],
                         ids=["solver raises", "no convergence"])
def test_evolve_reports_a_failed_solve(tmp_path, capsys, eps, value):
    # without a checkpoint evolve solves first and reports the solve as solve does
    cfg = write_config(tmp_path, BASE + "[truncation]\nn_x = 16\nn_phi = 4\n"
                                        "[evolve]\nT = 1\nn_modes = 32\n")
    out = tmp_path / "ev"
    rc = main(["evolve", "--config", cfg, "--out", str(out), "--set", f"problem.epsilon={eps}"])
    assert rc == 1 and "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "evolve" and not summary["pass"]
    check = summary["checks"][0]
    assert check["check"] == "newton_converged" and not check["pass"]
    assert check["value"] is value or value in check["value"]
    assert not (out / "trajectory.csv").exists()


def test_evolve_reports_a_failed_flow(tmp_path, monkeypatch):
    def blow_up(*args, **kwargs):
        raise torus.DivergenceError("blow-up detected at t = 0.5")

    monkeypatch.setattr(torus, "evolve", blow_up)
    cfg = write_config(tmp_path, BASE + "[truncation]\nn_x = 16\nn_phi = 4\n[evolve]\nT = 1\n")
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert [c["check"] for c in checks] == ["newton_converged", "counterterm_small",
                                            "flow_completed"]
    assert [c["pass"] for c in checks] == [True, True, False]
    assert "blow-up" in checks[-1]["value"]


def test_evolve_honours_solve_schedule(tmp_path):
    cfg = write_config(tmp_path, BASE + "[truncation]\nn_x = 16\nn_phi = 4\n"
                                        "[solve]\nmax_iter = 1\n[evolve]\nT = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "so")]) == 1
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 1


REJECTED = {
    "unknown key in file": ("resonances", "[truncation]\nnphi = 8\n", [],
                            "unknown config key [truncation] nphi"),
    "unknown key via --set": ("resonances", "", ["--set", "truncation.nphi=8"],
                              "unknown config key [truncation] nphi"),
    "unknown section": ("resonances", "[solver]\ntol = 1e-8\n", [],
                        "unknown config section [solver]"),
    "non-integer order": ("resonances", "", ["--set", "scan.order=four"], "[scan] order: 'four'"),
    "three xi for nu = 2": ("resonances", "", ["--set", "problem.xi=1 3/2 2"],
                            "xi must have 2 entries"),
    "xi 5 5": ("solve", "", ["--set", "problem.xi=5 5"], "xi must lie in [1,2]^2, got 5 5"),
    "xi 0 0": ("solve", "", ["--set", "problem.xi=0 0"], "xi must lie in [1,2]^2, got 0 0"),
    "malformed f_coeffs": ("resonances", "f_coeffs = 9:x\n", [], "[problem] f_coeffs: '9:x'"),
    "f_coeffs below order 9": ("resonances", "f_coeffs = 3:1.0\n", [], "[problem] f_coeffs"),
    "too few samples": ("measure", "", ["--set", "mc.samples=10"], "[mc] samples must be at least"),
    "ell_max 0": ("measure", "", ["--set", "mc.ell_max=0"], "[mc] ell_max must be at least 1"),
    "epsilon above 1": ("measure", "", ["--set", "mc.eps_values=0.1 1.5"],
                        "[mc] epsilon must lie in (0, 1)"),
    "max_order 9": ("wbnf", "", ["--set", "scan.max_order=9"], "[scan] max_order must lie in 1..6"),
    "twist j_bound 0": ("twist", "", ["--set", "scan.j_bound=0"],
                        "[scan] j_bound must be at least 1"),
    "twist j_bound -5": ("twist", "", ["--set", "scan.j_bound=-5"],
                         "[scan] j_bound must be at least 1"),
    "spectrum j_bound 0": ("spectrum", "", ["--set", "scan.j_bound=0"],
                           "[scan] j_bound must be at least 1"),
    # the sites 1 and 2 leave no normal site in |j| <= 2
    "twist j_bound 2 at S+ = {1, 2}": ("twist", "", ["--set", "problem.splus=1 2",
                                                     "--set", "scan.j_bound=2"],
                                       "[scan] j_bound must be at least 3"),
    "order 0": ("resonances", "", ["--set", "scan.order=0"], "[scan] order must lie in 3..8"),
    "order 1": ("resonances", "", ["--set", "scan.order=1"], "[scan] order must lie in 3..8"),
    "order 9": ("resonances", "", ["--set", "scan.order=9"], "[scan] order must lie in 3..8"),
    "bound 0": ("resonances", "", ["--set", "scan.bound=0"], "[scan] bound must be at least 1"),
    "bound -3": ("resonances", "", ["--set", "scan.bound=-3"], "[scan] bound must be at least 1"),
    "n_phi 0": ("solve", "", ["--set", "truncation.n_phi=0"], "[truncation] need n_phi >= 1"),
    "n_phi -1": ("evolve", "", ["--set", "truncation.n_phi=-1"], "[truncation] need n_phi >= 1"),
    "n_x 14": ("solve", "", ["--set", "truncation.n_x=14"], "[truncation] need n_x > 2 jbar1"),
    # problem.ini's lattice holds z modes up to |j| = 24, the packet 6 and 7
    "n_modes 4": ("evolve", "", ["--set", "evolve.n_modes=4", "--set", "evolve.T=1"],
                  "[evolve] n_modes must be at least 24"),
    "T -1": ("evolve", "", ["--set", "evolve.T=-1"], "[evolve] T must be positive"),
    "T 0": ("evolve", "", ["--set", "evolve.T=0"], "[evolve] T must be positive"),
    "drift_tol -1": ("evolve", "", ["--set", "evolve.drift_tol=-1"],
                     "[evolve] drift_tol must be positive"),
    "max_iter -1": ("solve", "", ["--set", "solve.max_iter=-1"],
                    "[solve] max_iter must be at least 1"),
    "n0 0": ("solve", "", ["--set", "solve.n0=0"], "[solve] n0 must be at least 1"),
    "chi 0": ("evolve", "", ["--set", "solve.chi=0"], "[solve] chi must be at least 1"),
    "tol -1": ("solve", "", ["--set", "solve.tol=-1"], "[solve] tol must be positive"),
    # resonance_triviality counts M >= 3 only, so a smaller m_cap counts nothing
    "m_cap 2": ("resonances", "", ["--set", "scan.m_cap=2"], "[scan] m_cap must be at least 3"),
    "m_cap 0": ("resonances", "", ["--set", "scan.m_cap=0"], "[scan] m_cap must be at least 3"),
    "m_cap -1": ("resonances", "", ["--set", "scan.m_cap=-1"], "[scan] m_cap must be at least 3"),
    "ident_j_max 7": ("spectrum", "", ["--set", "scan.ident_j_max=7"],
                      "[scan] ident_j_max must exceed jbar1 = 7"),
    "ident_j_max 0": ("spectrum", "", ["--set", "scan.ident_j_max=0"],
                      "[scan] ident_j_max must exceed jbar1 = 7"),
    "ident_j_max 0, spectrum_j_max 0": ("spectrum", "", ["--set", "scan.ident_j_max=0", "--set",
                                                         "scan.spectrum_j_max=0"],
                                        "8..0 holds no normal mode"),
    "spectrum_j_max 7": ("spectrum", "", ["--set", "scan.spectrum_j_max=7"],
                         "[scan] spectrum_j_min..spectrum_j_max = 8..7 holds no normal mode"),
    "spectrum window 6..7": ("spectrum", "", ["--set", "scan.spectrum_j_min=6", "--set",
                                              "scan.spectrum_j_max=7"], "holds no normal mode"),
    "budget 0": ("resonances", "", ["--budget", "0"], "--budget must be at least 1"),
    "budget -5": ("resonances", "", ["--budget", "-5"], "--budget must be at least 1, got -5"),
    # refused before the sweep starts a thread
    "threads -3": ("measure", "", ["--threads", "-3"], "--threads must be at least 0, got -3"),
    "f_coeffs repeated degree": ("resonances", "", ["--set", "problem.f_coeffs=9:1 9:2"],
                                 "[problem] f_coeffs: '9:1 9:2' (a degree is given twice)"),
    # eps number i keys its Philox stream with seed + i: five eps need seed <= 2^63 - 5
    "seed -1": ("measure", "", ["--seed", "-1"], f"--seed must lie in 0..{2**63 - 5} for 5 eps"),
    "seed 2^63": ("measure", "", ["--seed", str(2**63)], f"got {2**63}"),
}


@pytest.mark.parametrize("verb,extra,args,message", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input_exits_3(tmp_path, capsys, verb, extra, args, message):
    cfg = write_config(tmp_path, BASE + extra)
    rc = main([verb, "--config", cfg, "--out", str(tmp_path / "o")] + args)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("usage error:") and message in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("verb,extra", [
    ("resonances", "[scan]\norder = 4\nbound = 3\n"),
    ("wbnf", "[scan]\nmax_order = 2\n"),
    ("twist", "[scan]\nj_bound = 20\n"),
    ("spectrum", "[scan]\nident_j_max = 10\nspectrum_j_max = 12\nj_bound = 60\n"),
    ("measure", "[mc]\nfamily = G0_0\nsamples = 2000\neps_values = 0.08 0.16\nell_max = 4\n"),
    ("solve", "[truncation]\nn_x = 16\nn_phi = 4\n"),
    ("evolve", "[truncation]\nn_x = 16\nn_phi = 4\n[evolve]\nT = 1\nn_modes = 32\n"),
])
def test_summary_records_have_the_check_shape(tmp_path, verb, extra):
    out = tmp_path / "out"
    assert main([verb, "--config", write_config(tmp_path, BASE + extra), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == verb and summary["checks"]
    assert all(set(c) == {"check", "value", "threshold", "witness", "pass"}
               for c in summary["checks"])


def test_import_leaves_scipy_unloaded():
    # torus, and with it scipy, is imported only by the verbs that solve or evolve
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, dpkam.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_bad_argument_exits_3():
    assert main(["twist", "--no-such-flag"]) == 3


def test_evolve_rejects_checkpoint_of_other_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "[truncation]\nn_x = 16\nn_phi = 4\n")
    prob = cli._torus_problem(load_config(cfg))
    path = str(tmp_path / "torus.json")
    torus.save_embedding(torus.TorusEmbedding.trivial(prob.S, prob.grid), path)
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev"),
               "--set", f"evolve.checkpoint={path}", "--set", "truncation.n_phi=6"])
    err = capsys.readouterr().err
    assert rc == 3 and "Traceback" not in err
    assert "n_phi = 4" in err and "n_phi = 6" in err


def _write_checkpoint(path, payload):
    body = json.dumps(payload, sort_keys=True)
    path.write_text(json.dumps({"sha256": hashlib.sha256(body.encode()).hexdigest(),
                                "data": payload}))


@pytest.mark.parametrize("kind", ["theta/y/z payload", "full-grid x", "no data"])
def test_evolve_rejects_a_file_that_is_not_a_checkpoint(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, BASE + "[truncation]\nn_x = 16\nn_phi = 4\n")
    path = tmp_path / "torus.json"
    n, nj = 9, len(cli._torus_problem(load_config(cfg)).js)

    def zeros(*shape):
        return {"shape": list(shape), "re": [0.0] * math.prod(shape),
                "im": [0.0] * math.prod(shape)}

    if kind == "no data":
        path.write_text(json.dumps({"sha256": "0" * 64}))
    elif kind == "full-grid x":
        # a trivial embedding as checkpoints held every coefficient of the
        # truncation, on the momentum lattice or off it
        _write_checkpoint(path, {"splus": [6, 7], "n_x": 16, "n_phi": 4,
                                 "x": zeros(4 + nj, n, n), "zeta": [0.0, 0.0]})
    else:
        # a trivial embedding as checkpoints kept theta, y and z apart
        _write_checkpoint(path, {"splus": [6, 7], "n_x": 16, "n_phi": 4, "theta": zeros(2, n, n),
                                 "y": zeros(2, n, n), "z": zeros(n, n, nj), "zeta": [0.0, 0.0]})
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev"),
               "--set", f"evolve.checkpoint={path}"])
    err = capsys.readouterr().err
    assert rc == 3 and "Traceback" not in err and str(path) in err
    if kind != "no data":
        assert "solve again" in err


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg, outdir, budget):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.COMMANDS, "twist", broken)
    rc = main(["twist", "--config", write_config(tmp_path, BASE)])
    assert rc == 4
    assert "ZeroDivisionError: boom" in capsys.readouterr().err


def test_file_and_set_mean_the_same(tmp_path):
    from_file = load_config(write_config(tmp_path, BASE + "[evolve]\nT = 5   ; short run\n"))
    from_set = load_config(write_config(tmp_path, BASE), {"evolve.T": "5.0"})
    assert from_file == from_set and from_file["evolve"]["T"] == 5.0
    assert config_hash(from_file) == config_hash(from_set)
    assert config_hash(from_file) != config_hash(load_config(write_config(tmp_path, BASE)))


def test_readme_config(tmp_path):
    with open(README) as fh:
        text = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    cfg = write_config(tmp_path, text)
    load_config(cfg)
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str
    cp.read_string(text)
    assert {s: set(cp[s]) for s in cp.sections()} == {s: set(f) for s, f in SCHEMA.items()}
    for verb in ("twist", "resonances"):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / verb)]) == 0
