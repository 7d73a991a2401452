import configparser
import json
import os
import re

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


def test_twist_cmd(tmp_path):
    cfg = write_config(tmp_path, BASE + "[scan]\nj_bound = 20\n")
    out = str(tmp_path / "out")
    rc = main(["twist", "--config", cfg, "--out", out])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "twist.json").read_text())
    assert payload["det_A"].count("/") == 1
    report = json.loads((tmp_path / "out" / "nondegeneracy.json").read_text())
    assert all(set(r) == {"check", "value", "threshold", "witness", "pass"}
               for r in report)


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
    "malformed f_coeffs": ("resonances", "f_coeffs = 9:x\n", [], "[problem] f_coeffs: '9:x'"),
    "too few samples": ("measure", "", ["--set", "mc.samples=10"], "[mc] samples must be at least"),
    "ell_max 0": ("measure", "", ["--set", "mc.ell_max=0"], "[mc] ell_max must be at least 1"),
    "epsilon above 1": ("measure", "", ["--set", "mc.eps_values=0.1 1.5"],
                        "[mc] epsilon must lie in (0, 1)"),
    "max_order 9": ("wbnf", "", ["--set", "scan.max_order=9"], "[scan] max_order must lie in 1..6"),
}


@pytest.mark.parametrize("verb,extra,args,message", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input_exits_3(tmp_path, capsys, verb, extra, args, message):
    cfg = write_config(tmp_path, BASE + extra)
    rc = main([verb, "--config", cfg, "--out", str(tmp_path / "o")] + args)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("usage error:") and message in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


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
