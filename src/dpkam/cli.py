"""Command-line front-end.

Verbs: resonances, wbnf, twist, spectrum, measure, solve, evolve.
Configuration is a single INI file (key-value with sections, whitespace
separated lists) plus `--set section.key=value` overrides; `SCHEMA` below
lists every key with its type, default and meaning.  Every artifact embeds
the sha256 hash of the resolved configuration, and floating values are
printed with 17 significant digits so identical configs produce
byte-identical outputs.

Exit codes: 0 pass, 1 failed check, 2 budget/resource, 3 usage error (bad
config or arguments), 4 internal error (an unexpected exception).
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import traceback
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import ScalingParams, TangentialSet, float_fmt, fraction_str
from . import measure as measure_mod
from . import spectrum as spectrum_mod
from . import torus as torus_mod
from . import twist as twist_mod
from . import wbnf as wbnf_mod
from .polyham import serialize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(RuntimeError):
    pass


# -- config schema -------------------------------------------------------------


def _list(kind: Callable) -> Callable[[str], tuple]:
    return lambda text: tuple(kind(v) for v in text.split())


def _f_coeffs(text: str) -> dict[int, float]:
    pairs = (item.split(":") for item in text.split())
    return torus_mod.FSpec({int(k): float(c) for k, c in pairs}).coeffs


def _family(text: str) -> str:
    if text not in measure_mod.FAMILIES:
        raise ValueError(f"not one of {' '.join(measure_mod.FAMILIES)}")
    return text


REQUIRED = object()  # default of a key that a verb needs set

# section -> key -> (parser, default, doc).  The default is INI text, or None
# when the verb or the library decides.  Keys are case-sensitive, in files as
# in --set, and an empty value means the default.
SCHEMA: dict[str, dict[str, tuple[Callable[[str], object], object, str]]] = {
    "problem": {
        "splus": (lambda t: TangentialSet.make(t.split()), REQUIRED, "tangential sites S+"),
        "epsilon": (float, REQUIRED, "amplitude of the torus"),
        "a": (float, "0.1", "gamma = epsilon^(2+a), b = 1 + a/2"),
        "xi": (_list(Fraction), None, "amplitudes in [1,2]^nu; unset: 3/2 each"),
        "f_coeffs": (_f_coeffs, "", "density f(u) = sum c_k u^k as k:c_k, k >= 9"),
    },
    "truncation": {
        "n_x": (int, "24", "normal modes |j| <= n_x"),
        "n_phi": (int, "12", "angle modes |l|_inf <= n_phi"),
    },
    "scan": {
        "order": (int, "4", "resonance order (resonances)"),
        "bound": (int, "40", "index bound (resonances)"),
        "m_cap": (int, None, "hierarchy depth M (resonances)"),
        "max_order": (int, "2", "weak BNF steps (wbnf)"),
        "j_bound": (int, None, "pair-scan bound (twist, spectrum); unset: each scan's own"),
        "ident_j_max": (int, "30", "identification sweep bound (spectrum)"),
        "spectrum_j_min": (int, None, "first mode of spectrum.csv; unset: jbar1 + 1"),
        "spectrum_j_max": (int, "60", "last mode of spectrum.csv"),
    },
    "mc": {
        "family": (_family, "G0_0", " | ".join(measure_mod.FAMILIES)),
        "samples": (int, "100000", "Monte-Carlo samples per epsilon"),
        "eps_values": (_list(float), "0.04 0.057 0.08 0.113 0.16", "epsilon sweep"),
        "ell_max": (int, None, "truncation of the diophantine scan"),
        "c_g1": (float, None, "the constant of the five-wave set"),
    },
    "solve": {
        "n0": (float, None, "schedule N_n = n0^(chi^n)"),
        "chi": (float, None, "schedule exponent"),
        "max_iter": (int, None, "Newton iterations"),
        "tol": (float, None, "sup-norm residual tolerance"),
    },
    "evolve": {
        "checkpoint": (str, None, "saved embedding; unset: solve first"),
        "T": (float, "100", "final time"),
        "n_modes": (int, "64", "Fourier modes of the evolver"),
        "drift_tol": (float, "1e-6", "bound on the relative H and K1 drift"),
    },
}


class _Section(dict):
    """One resolved config section; reading a missing required key is a usage error."""

    def __missing__(self, key: str):
        raise UsageError(f"missing required config key {key!r}")


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Resolve the INI file at `path`, then the `section.key -> value`
    overrides, through `SCHEMA`: typed values with every default filled in.
    Unknown sections and keys and values that do not parse raise UsageError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    cp.optionxform = str
    if path:
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
    given = {(s, k): v for s in cp.sections() for k, v in cp.items(s)}
    for name, val in (overrides or {}).items():
        sect, _, key = name.partition(".")
        given[sect, key] = val
    for sect, key in given:
        if sect not in SCHEMA:
            raise UsageError(f"unknown config section [{sect}]")
        if key not in SCHEMA[sect]:
            raise UsageError(f"unknown config key [{sect}] {key}")

    cfg = {}
    for sect, fields in SCHEMA.items():
        cfg[sect] = _Section()
        for key, (parse, default, _) in fields.items():
            text = given.get((sect, key), "").strip() or default
            if text is REQUIRED:
                continue
            try:
                cfg[sect][key] = None if text is None else parse(text)
            except (ValueError, ArithmeticError) as exc:
                raise UsageError(f"bad value for [{sect}] {key}: {text!r} ({exc})") from None

    problem = cfg["problem"]
    if "splus" in problem:
        nu = problem["splus"].nu
        problem["xi"] = problem["xi"] or (Fraction(3, 2),) * nu
        if len(problem["xi"]) != nu:
            raise UsageError(f"xi must have {nu} entries, one per site of splus")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _given(section: dict, *keys: str) -> dict:
    """The set `keys` of `section` (default: all); library defaults cover the rest."""
    return {k: section[k] for k in keys or section if section[k] is not None}


def _scaling(cfg: dict, S: TangentialSet) -> ScalingParams:
    try:
        return ScalingParams(epsilon=cfg["problem"]["epsilon"], a=cfg["problem"]["a"], nu=S.nu)
    except ValueError as exc:
        raise UsageError(f"[problem] {exc}") from None


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _summary(outdir: str, cfg: dict, command: str, checks: list[dict]) -> int:
    ok = all(c["pass"] for c in checks)
    payload = {
        "command": command,
        "config_hash": config_hash(cfg),
        "pass": ok,
        "checks": checks,
    }
    _write(outdir, "summary.json", json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_PASS if ok else EXIT_FAIL


# -- verbs ---------------------------------------------------------------------


def cmd_resonances(cfg: dict, outdir: str, budget: int) -> int:
    order, bound = cfg["scan"]["order"], cfg["scan"]["bound"]
    if order > wbnf_mod.DEGREE_CAP:
        raise UsageError(f"order capped at {wbnf_mod.DEGREE_CAP}")
    try:
        tuples = wbnf_mod.enumerate_h2_resonances(
            order, bound, budget=budget, **_given(cfg["scan"], "m_cap")
        )
    except wbnf_mod.BudgetExceeded as exc:
        _write(outdir, "resonances.csv", f"# budget exceeded: {exc}\n")
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    lines = ["order,indices,m_resonant_up_to,trivial,permutations"]
    nontrivial_resonant = []
    for t in tuples:
        lines.append(
            f"{t.order},{' '.join(map(str, t.indices))},{t.m_resonant_up_to},"
            f"{int(t.trivial)},{t.permutations}"
        )
        if not t.trivial and t.m_resonant_up_to >= 3:
            nontrivial_resonant.append(t)
    _write(outdir, "resonances.csv", "\n".join(lines) + "\n")
    checks = [
        {
            "check": "resonance_triviality",
            "value": len(nontrivial_resonant),
            "threshold": 0,
            "witness": str([t.indices for t in nontrivial_resonant[:3]]),
            "pass": not nontrivial_resonant,
        }
    ]
    return _summary(outdir, cfg, "resonances", checks)


def cmd_wbnf(cfg: dict, outdir: str, budget: int) -> int:
    S = cfg["problem"]["splus"]
    max_order = cfg["scan"]["max_order"]
    if not 1 <= max_order <= wbnf_mod.DEGREE_CAP - 2:
        raise UsageError(f"[scan] max_order must lie in 1..{wbnf_mod.DEGREE_CAP - 2}")
    res = wbnf_mod.run_wbnf(S, max_order, budget=budget)
    for deg, gen in res.generators.items():
        _write(outdir, f"generator_deg{deg}.txt", serialize(gen))
    for deg, z in res.z_pieces.items():
        _write(outdir, f"normalform_deg{deg}.txt", serialize(z))
    checks = []
    if 4 in res.z_pieces:
        closed = wbnf_mod.h40_closed_form(S)
        checks.append(
            {
                "check": "degree4_closed_form",
                "value": "exact" if res.z_pieces[4].terms == closed.terms else "mismatch",
                "threshold": "exact",
                "witness": f"{len(closed)} monomials",
                "pass": res.z_pieces[4].terms == closed.terms,
            }
        )
    odd_ok = all(res.z_pieces[d].is_zero() for d in res.z_pieces if d % 2 == 1)
    checks.append(
        {"check": "odd_kernels_vanish", "value": odd_ok, "threshold": True,
         "witness": "", "pass": odd_ok}
    )
    return _summary(outdir, cfg, "wbnf", checks)


def cmd_twist(cfg: dict, outdir: str, budget: int) -> int:
    S = cfg["problem"]["splus"]
    td = twist_mod.twist_matrix(S)
    report = twist_mod.nondegeneracy_report(S, **_given(cfg["scan"], "j_bound"))
    _write(outdir, "nondegeneracy.json", report.to_json())
    det_norm = abs(td.det_A) / Fraction(S.jbar1) ** (3 * S.nu)
    payload = {
        "splus": list(S.splus),
        "det_A": fraction_str(td.det_A),
        "det_A_float": float_fmt(float(td.det_A)),
        "det_normalized": float_fmt(float(det_norm)),
        "omega_bar": [fraction_str(w) for w in td.omega_bar],
    }
    _write(outdir, "twist.json", json.dumps(payload, indent=2))
    checks = [
        {"check": "det_nonzero", "value": float_fmt(float(td.det_A)),
         "threshold": "!= 0", "witness": "", "pass": td.det_A != 0},
        {"check": "nondegeneracy", "value": report.all_pass(),
         "threshold": True, "witness": "", "pass": report.all_pass()},
    ]
    return _summary(outdir, cfg, "twist", checks)


def cmd_spectrum(cfg: dict, outdir: str, budget: int) -> int:
    S = cfg["problem"]["splus"]
    sc = _scaling(cfg, S)
    xi = cfg["problem"]["xi"]
    opts = cfg["scan"]
    model = spectrum_mod.EigenModel(S, xi, sc)
    j_lo = S.jbar1 + 1 if opts["spectrum_j_min"] is None else opts["spectrum_j_min"]
    js = [j for j in range(j_lo, opts["spectrum_j_max"] + 1) if S.in_sc(j)]
    _write(outdir, "spectrum.csv", model.csv(js))

    ident_hi = opts["ident_j_max"]
    ident_all = True
    for j in range(S.jbar1 + 1, ident_hi + 1):
        if not S.in_sc(j):
            continue
        _, _, ok = spectrum_mod.identification_check(S, j)
        ident_all = ident_all and ok
    wb = wbnf_mod.run_wbnf(S, 1)
    try:
        spectrum_mod.c_via_f2(S, xi, wb.generators[3])
        c_ok = True
    except spectrum_mod.SpectrumError:
        c_ok = False
    scan = spectrum_mod.min_divisor_scan(S, **_given(opts, "j_bound"))
    checks = [
        {"check": "identification_sweep", "value": ident_all, "threshold": True,
         "witness": f"j <= {ident_hi}", "pass": ident_all},
        {"check": "c_via_f2", "value": c_ok, "threshold": True, "witness": "",
         "pass": c_ok},
        {"check": "min_divisor_positive", "value": float_fmt(float(scan.min_abs)),
         "threshold": "> 0",
         "witness": f"ell={scan.witness.ell}, j={scan.witness.j}, j'={scan.witness.jp}",
         "pass": scan.min_abs > 0},
    ]
    return _summary(outdir, cfg, "spectrum", checks)


def cmd_measure(cfg: dict, outdir: str, budget: int, seed: int, threads: int = 0) -> int:
    S = cfg["problem"]["splus"]
    a = cfg["problem"]["a"]
    mc = cfg["mc"]
    family, samples, eps_values = mc["family"], mc["samples"], mc["eps_values"]
    if samples < measure_mod.MIN_SAMPLES:
        raise UsageError(f"[mc] samples must be at least {measure_mod.MIN_SAMPLES}")
    try:  # the library's own range checks, before any work
        cfgs = measure_mod.sweep_configs(S, a, eps_values, **_given(mc, "c_g1", "ell_max"))
    except ValueError as exc:
        raise UsageError(f"[mc] {exc}") from None
    if threads <= 0:
        threads = os.cpu_count() or 1
    sweep = measure_mod.measure_sweep(S, cfgs, family, samples, seed, threads=threads)
    lines = ["eps,gamma,samples,excluded,fraction,stderr,volume,measure"]
    for est in sweep.estimates:
        g = est.eps ** (2.0 + a)
        lines.append(
            f"{float_fmt(est.eps)},{float_fmt(g)},{est.samples},{est.excluded},"
            f"{float_fmt(est.fraction)},{float_fmt(est.stderr)},"
            f"{float_fmt(est.volume)},{float_fmt(est.measure)}"
        )
    _write(outdir, "measure.csv", "\n".join(lines) + "\n")
    summary = {
        "family": family,
        "samples": samples,
        "fractions": [float_fmt(e.fraction) for e in sweep.estimates],
        "stderr": [float_fmt(e.stderr) for e in sweep.estimates],
        "fitted_exponent": float_fmt(sweep.slope),
        "fitted_exponent_stderr": float_fmt(sweep.slope_stderr),
        "theory_exponent": float_fmt(sweep.theory_slope),
        "notes": sweep.estimates[0].notes,
    }
    if family == "G0_0":
        # deterministic cross-check: exact per-slab quadrature of the same
        # exclusion condition (union bound), exposing magnitudes that may be
        # below Monte-Carlo resolution
        summary["slab_quadrature_fractions"] = [
            float_fmt(measure_mod.g0_slab_measure(S, c)) for c in cfgs]
    _write(outdir, "measure_summary.json", json.dumps(summary, indent=2))
    ok = sweep.slope_consistent()
    checks = [
        {"check": "scaling_exponent", "value": float_fmt(sweep.slope),
         "threshold": f"{float_fmt(sweep.theory_slope)} +- 3 sigma",
         "witness": f"stderr {float_fmt(sweep.slope_stderr)}", "pass": bool(ok)}
    ]
    return _summary(outdir, cfg, "measure", checks)


def _torus_problem(cfg: dict) -> torus_mod.TorusProblem:
    S = cfg["problem"]["splus"]
    sc = _scaling(cfg, S)
    xi, trunc = cfg["problem"]["xi"], cfg["truncation"]
    try:
        grid = torus_mod.TruncationGrid(n_x=trunc["n_x"], n_phi=trunc["n_phi"], jbar1=S.jbar1)
    except ValueError as exc:
        raise UsageError(f"[truncation] {exc}") from None
    eps_frac = Fraction(str(sc.epsilon)).limit_denominator(10**12)
    omega = np.array([float(w) for w in twist_mod.frequency_map(S, xi, eps_frac)])
    return torus_mod.TorusProblem(
        S=S, grid=grid, xi=tuple(float(v) for v in xi), scaling=sc, omega=omega,
        f_spec=torus_mod.FSpec(cfg["problem"]["f_coeffs"]),
    )


def cmd_solve(cfg: dict, outdir: str, budget: int) -> int:
    prob = _torus_problem(cfg)
    sched = torus_mod.NewtonSchedule(**_given(cfg["solve"]))
    try:
        sol = torus_mod.newton_solve(prob, schedule=sched)
    except torus_mod.TorusError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return _summary(outdir, cfg, "solve", [
            {"check": "newton_converged", "value": str(exc), "threshold": "",
             "witness": "", "pass": False}])
    os.makedirs(outdir, exist_ok=True)
    digest = torus_mod.save_embedding(sol.emb, os.path.join(outdir, "torus.json"))
    hist = "\n".join(float_fmt(r) for r in sol.residuals)
    _write(outdir, "residual_history.txt", hist + "\n")
    checks = [
        {"check": "newton_converged", "value": bool(sol.converged),
         "threshold": f"sup residual < {sched.tol}",
         "witness": f"{sol.iterations} iterations, final "
                    f"{float_fmt(sol.residuals[-1])}, checkpoint {digest}",
         "pass": bool(sol.converged)},
        {"check": "counterterm_small",
         "value": float_fmt(float(np.abs(sol.emb.zeta).max())),
         "threshold": "< 1e-9",
         "witness": "", "pass": bool(np.abs(sol.emb.zeta).max() < 1e-9)},
    ]
    return _summary(outdir, cfg, "solve", checks)


def cmd_evolve(cfg: dict, outdir: str, budget: int) -> int:
    prob = _torus_problem(cfg)
    ev = cfg["evolve"]
    if ev["checkpoint"] is not None:
        try:
            emb = torus_mod.load_embedding(ev["checkpoint"])
        except (OSError, ValueError, torus_mod.TorusError) as exc:
            raise UsageError(f"cannot load checkpoint: {exc}") from None
        for name, saved, wanted in (("splus", emb.S.splus, prob.S.splus),
                                    ("n_x", emb.grid.n_x, prob.grid.n_x),
                                    ("n_phi", emb.grid.n_phi, prob.grid.n_phi)):
            if saved != wanted:
                raise UsageError(f"checkpoint has {name} = {saved}, the config {name} = {wanted}")
    else:
        sol = torus_mod.newton_solve(prob, schedule=torus_mod.NewtonSchedule(**_given(cfg["solve"])))
        if not sol.converged:
            print("newton did not converge; cannot evolve", file=sys.stderr)
            return EXIT_FAIL
        emb = sol.emb
    u0 = torus_mod.action_angle_embed(prob, emb, (0.0, 0.0))
    T, tol = ev["T"], ev["drift_tol"]
    res = torus_mod.evolve(u0, T=T, n_modes=ev["n_modes"], f_spec=prob.f_spec)
    lines = ["t,H,K1,sup_norm_u"]
    for t, h, k1, s in zip(res.times, res.h_values, res.k1_values, res.sup_values):
        lines.append(f"{float_fmt(t)},{float_fmt(h)},{float_fmt(k1)},{float_fmt(s)}")
    _write(outdir, "trajectory.csv", "\n".join(lines) + "\n")
    checks = [
        {"check": "H_drift", "value": float_fmt(res.h_drift), "threshold": f"< {tol}",
         "witness": f"T={T}", "pass": bool(res.h_drift < tol)},
        {"check": "K1_drift", "value": float_fmt(res.k1_drift), "threshold": f"< {tol}",
         "witness": f"T={T}", "pass": bool(res.k1_drift < tol)},
    ]
    return _summary(outdir, cfg, "evolve", checks)


COMMANDS = {
    "resonances": cmd_resonances,
    "wbnf": cmd_wbnf,
    "twist": cmd_twist,
    "spectrum": cmd_spectrum,
    "measure": cmd_measure,
    "solve": cmd_solve,
    "evolve": cmd_evolve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpkam",
        description="Desk-scale KAM toolkit for the dispersive DP equation",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker parallelism (0 = automatic)")
    parser.add_argument("--budget", type=int, default=wbnf_mod.DEFAULT_BUDGET)
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="config override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_PASS

    try:
        overrides = {}
        for item in args.set:
            key, eq, val = item.partition("=")
            if not eq:
                raise UsageError(f"bad override {item!r}; use section.key=value")
            overrides[key] = val
        cfg = load_config(args.config, overrides)
        fn = COMMANDS[args.command]
        if args.command == "measure":
            return fn(cfg, args.out, args.budget, args.seed, args.threads)
        return fn(cfg, args.out, args.budget)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except wbnf_mod.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
