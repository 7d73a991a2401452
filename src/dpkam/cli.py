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
import math
import os
import sys
import traceback
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import ScalingParams, TangentialSet, check, float_fmt, fraction_str
from . import measure as measure_mod
from . import spectrum as spectrum_mod
from . import twist as twist_mod
from . import wbnf as wbnf_mod
from .polyham import serialize

if TYPE_CHECKING:  # only the verbs that solve or evolve import torus
    from . import torus as torus_mod

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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _f_coeffs(text: str) -> dict[int, float]:
    pairs = [(int(k), _finite(c)) for k, c in (item.split(":") for item in text.split())]
    coeffs = dict(pairs)
    if len(coeffs) < len(pairs):
        raise ValueError("a degree is given twice")
    if not coeffs:
        return coeffs
    from . import torus as torus_mod

    return torus_mod.FSpec(coeffs).coeffs


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
        "epsilon": (_finite, REQUIRED, "amplitude of the torus"),
        "a": (_finite, "0.1", "gamma = epsilon^(2+a), b = 1 + a/2"),
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
        "eps_values": (_list(_finite), "0.04 0.057 0.08 0.113 0.16", "epsilon sweep"),
        "ell_max": (int, None, "truncation of the diophantine scan"),
        "c_g1": (_finite, None, "the constant of the five-wave set"),
    },
    "solve": {
        "max_iter": (int, None, "Newton iterations"),
        "tol": (_finite, None, "sup-norm residual tolerance"),
    },
    "evolve": {
        "checkpoint": (str, None, "saved embedding; unset: solve first"),
        "T": (_finite, "100", "final time"),
        "n_modes": (int, "64", "Fourier modes of the evolver"),
        "drift_tol": (_finite, "1e-6", "bound on the relative H and K1 drift"),
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
        if not all(1 <= x <= 2 for x in problem["xi"]):
            raise UsageError(f"xi must lie in [1,2]^{nu}, got "
                             f"{' '.join(map(str, problem['xi']))}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _given(section: dict, *keys: str) -> dict:
    """The set `keys` of `section` (default: all); library defaults cover the rest."""
    return {k: section[k] for k in keys or section if section[k] is not None}


def _j_bound(cfg: dict, S: TangentialSet, default: int) -> int:
    """[scan] j_bound of the twist and spectrum scans, `default` when unset;
    the window |j| <= j_bound must hold a normal site."""
    j_bound = default if cfg["scan"]["j_bound"] is None else cfg["scan"]["j_bound"]
    lowest = next(j for j in range(1, S.jbar1 + 2) if S.in_sc(j))
    if j_bound < lowest:
        raise UsageError(f"[scan] j_bound must be at least {lowest}")
    return j_bound


def _within_budget(budget: int, work: int, what: str, unit: str = "steps") -> None:
    """Refuse, before any work, a task of `work` units beyond `budget`."""
    if work > budget:
        raise wbnf_mod.BudgetExceeded(f"{what} of {work} {unit} exceeds the budget {budget}")


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


def _write_csv(outdir: str, name: str, header: tuple[str, ...], rows) -> str:
    """One CSV line per row after the header: floats through `float_fmt`,
    every other cell through `str`."""
    lines = [",".join(header)]
    lines += [",".join(float_fmt(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return _write(outdir, name, "\n".join(lines) + "\n")


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


def cmd_resonances(cfg: dict, outdir: str, budget: int) -> list[dict]:
    order, bound, m_cap = cfg["scan"]["order"], cfg["scan"]["bound"], cfg["scan"]["m_cap"]
    if not 3 <= order <= wbnf_mod.DEGREE_CAP:
        raise UsageError(f"[scan] order must lie in 3..{wbnf_mod.DEGREE_CAP}")
    if bound < 1:
        raise UsageError("[scan] bound must be at least 1")
    # resonance_triviality counts the tuples resonant up to M >= 3
    if m_cap is not None and m_cap < 3:
        raise UsageError("[scan] m_cap must be at least 3")
    tuples = wbnf_mod.enumerate_h2_resonances(order, bound, budget=budget,
                                              **_given(cfg["scan"], "m_cap"))
    _write_csv(outdir, "resonances.csv",
               ("order", "indices", "m_resonant_up_to", "trivial", "permutations"),
               ((t.order, " ".join(map(str, t.indices)), t.m_resonant_up_to, int(t.trivial),
                 t.permutations) for t in tuples))
    nontrivial_resonant = [t for t in tuples if not t.trivial and t.m_resonant_up_to >= 3]
    return [check("resonance_triviality", len(nontrivial_resonant), 0, not nontrivial_resonant,
                  str([t.indices for t in nontrivial_resonant[:3]]))]


def cmd_wbnf(cfg: dict, outdir: str, budget: int) -> list[dict]:
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
        same = res.z_pieces[4].terms == closed.terms
        checks.append(check("degree4_closed_form", "exact" if same else "mismatch", "exact", same,
                            f"{len(closed)} monomials"))
    odd_ok = all(res.z_pieces[d].is_zero() for d in res.z_pieces if d % 2 == 1)
    return checks + [check("odd_kernels_vanish", odd_ok, True, odd_ok)]


def cmd_twist(cfg: dict, outdir: str, budget: int) -> list[dict]:
    S = cfg["problem"]["splus"]
    j_bound = _j_bound(cfg, S, twist_mod.NONDEG_J_BOUND)
    n = 2 * (j_bound - sum(s <= j_bound for s in S.splus))  # normal sites |j| <= j_bound
    _within_budget(budget, n * (n - 1) // 2, "the twist pair scan")
    td = twist_mod.twist_matrix(S)
    records = twist_mod.nondegeneracy_report(S, j_bound=j_bound)
    _write(outdir, "nondegeneracy.json", json.dumps(records, indent=2))
    det_norm = abs(td.det_A) / Fraction(S.jbar1) ** (3 * S.nu)
    payload = {
        "splus": list(S.splus),
        "det_A": fraction_str(td.det_A),
        "det_A_float": float_fmt(float(td.det_A)),
        "det_normalized": float_fmt(float(det_norm)),
        "omega_bar": [fraction_str(w) for w in td.omega_bar],
    }
    _write(outdir, "twist.json", json.dumps(payload, indent=2))
    failed = [r["check"] for r in records if not r["pass"]]
    return [check("det_nonzero", float_fmt(float(td.det_A)), "!= 0", td.det_A != 0),
            check("nondegeneracy", not failed, True, not failed, ", ".join(failed))]


def cmd_spectrum(cfg: dict, outdir: str, budget: int) -> list[dict]:
    S = cfg["problem"]["splus"]
    sc = _scaling(cfg, S)
    xi = cfg["problem"]["xi"]
    opts = cfg["scan"]
    j_bound = _j_bound(cfg, S, spectrum_mod.DIVISOR_J_BOUND)
    j_lo = S.jbar1 + 1 if opts["spectrum_j_min"] is None else opts["spectrum_j_min"]
    js = [j for j in range(j_lo, opts["spectrum_j_max"] + 1) if S.in_sc(j)]
    if not js:
        raise UsageError(f"[scan] spectrum_j_min..spectrum_j_max = {j_lo}..{opts['spectrum_j_max']}"
                         " holds no normal mode")
    # every mode above jbar1 is normal, so the sweep checks at least one
    ident_hi = opts["ident_j_max"]
    if ident_hi <= S.jbar1:
        raise UsageError(f"[scan] ident_j_max must exceed jbar1 = {S.jbar1}")
    ells = spectrum_mod.momentum_ells(S, spectrum_mod.DIVISOR_ELL_BOUND)
    _within_budget(budget, len(ells) * (2 * j_bound + 1), "the divisor scan")
    model = spectrum_mod.EigenModel(S, xi, sc)
    _write_csv(outdir, "spectrum.csv", spectrum_mod.EigenModel.COLUMNS, map(model.row, js))

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
    scan = spectrum_mod.min_divisor_scan(S, j_bound=j_bound)
    w = scan.witness
    return [check("identification_sweep", ident_all, True, ident_all, f"j <= {ident_hi}"),
            check("c_via_f2", c_ok, True, c_ok),
            check("min_divisor_positive", float_fmt(float(scan.min_abs)), "> 0",
                  scan.min_abs > 0, f"ell={w.ell}, j={w.j}, j'={w.jp}")]


def cmd_measure(cfg: dict, outdir: str, budget: int, seed: int, threads: int) -> list[dict]:
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
    # eps number i draws from the Philox stream keyed by seed + i, a 64-bit integer
    top = 2**63 - len(eps_values)
    if not 0 <= seed <= top:
        raise UsageError(f"--seed must lie in 0..{top} for {len(eps_values)} eps values, "
                         f"got {seed}")
    _within_budget(budget, samples * S.nu, "the per-eps sample array", "floats")
    if threads <= 0:
        threads = os.cpu_count() or 1
    sweep = measure_mod.measure_sweep(S, cfgs, family, samples, seed, threads=threads)
    _write_csv(outdir, "measure.csv",
               ("eps", "gamma", "samples", "excluded", "fraction", "stderr", "volume", "measure"),
               ((e.eps, e.eps ** (2.0 + a), e.samples, e.excluded, e.fraction, e.stderr,
                 e.volume, e.measure) for e in sweep.estimates))
    summary = {
        "family": family,
        "samples": samples,
        "fractions": [float_fmt(e.fraction) for e in sweep.estimates],
        "stderr": [float_fmt(e.stderr) for e in sweep.estimates],
        "fitted_exponent": float_fmt(sweep.slope),
        "fitted_exponent_stderr": float_fmt(sweep.slope_stderr),
        "theory_exponent": float_fmt(sweep.theory_slope),
        "slab_quadrature_fractions": [float_fmt(e.quadrature) for e in sweep.estimates],
        "notes": sweep.estimates[0].notes,
    }
    _write(outdir, "measure_summary.json", json.dumps(summary, indent=2))
    # the union-bound slab quadrature bounds the excluded fraction from above,
    # so the Monte-Carlo fraction may exceed it only by sampling error
    z = [(e.fraction - e.quadrature) / measure_mod.binomial_stderr(e.quadrature, samples)
         for e in sweep.estimates]
    w = int(np.argmax(z))
    checks = [check("mc_within_quadrature", float_fmt(z[w]),
                    "<= 3 standard errors at the quadrature", all(v <= 3.0 for v in z),
                    f"eps={float_fmt(eps_values[w])}")]
    if family == "G0_0":
        lemma_c = measure_mod.g0_lemma_constant(S, cfgs[0].scaling.tau, cfgs[0].ell_max)
        bounds = [lemma_c * c.scaling.epsilon ** (2 * (S.nu - 1)) * c.gamma for c in cfgs]
        measures = [e.quadrature * e.volume for e in sweep.estimates]
        ratio = [m / b for m, b in zip(measures, bounds)]
        w = int(np.argmax(ratio))
        checks.insert(0, check("slab_within_lemma_bound", float_fmt(ratio[w]),
                               "quadrature measure <= C eps^(2(nu-1)) gamma",
                               all(m <= b for m, b in zip(measures, bounds)),
                               f"eps={float_fmt(eps_values[w])}, C={float_fmt(lemma_c)}"))
    return checks


def _torus_problem(cfg: dict) -> torus_mod.TorusProblem:
    from . import torus as torus_mod

    S = cfg["problem"]["splus"]
    sc = _scaling(cfg, S)
    trunc = cfg["truncation"]
    try:  # the grid's own bounds, and n_x against the sites
        return torus_mod.TorusProblem(
            S=S, grid=torus_mod.TruncationGrid(n_x=trunc["n_x"], n_phi=trunc["n_phi"]),
            xi=cfg["problem"]["xi"], scaling=sc,
            f_spec=torus_mod.FSpec(cfg["problem"]["f_coeffs"]),
        )
    except ValueError as exc:
        raise UsageError(f"[truncation] {exc}") from None


def _failed(name: str, exc: Exception, witness: str = "") -> dict:
    print(f"{name} failed: {exc}", file=sys.stderr)
    return check(name, str(exc), "", False, witness)


def _schedule(cfg: dict) -> torus_mod.NewtonSchedule:
    from . import torus as torus_mod

    try:  # the schedule's own domain
        return torus_mod.NewtonSchedule(**_given(cfg["solve"]))
    except ValueError as exc:
        raise UsageError(f"[solve] {exc}") from None


def _solve(sched: torus_mod.NewtonSchedule, prob: torus_mod.TorusProblem, outdir: str,
           budget: int):
    """Newton on `prob`: writes the checkpoint and the residual history to
    `outdir` and returns the embedding, None unless it converged, and the
    solve checks.  A solver failure is a failed newton_converged check.  A
    Jacobian of more than `budget` index pairs is refused before the solve."""
    from . import torus as torus_mod

    n = len(prob.lattice.fam) + prob.S.nu
    _within_budget(budget, n * n, "the Newton Jacobian", "index pairs")
    try:
        sol = torus_mod.newton_solve(prob, schedule=sched)
    except torus_mod.TorusError as exc:
        return None, [_failed("newton_converged", exc)]
    os.makedirs(outdir, exist_ok=True)
    digest = torus_mod.save_embedding(sol.emb, os.path.join(outdir, "torus.json"))
    hist = "\n".join(float_fmt(r) for r in sol.residuals)
    _write(outdir, "residual_history.txt", hist + "\n")
    converged, zeta = bool(sol.converged), float(np.abs(sol.emb.zeta).max())
    checks = [
        check("newton_converged", converged, f"sup residual < {sched.tol}", converged,
              f"{sol.iterations} iterations, final {float_fmt(sol.residuals[-1])}, "
              f"checkpoint {digest}"),
        check("counterterm_small", float_fmt(zeta), "< 1e-9", zeta < 1e-9),
    ]
    return (sol.emb if sol.converged else None), checks


def cmd_solve(cfg: dict, outdir: str, budget: int) -> list[dict]:
    prob, sched = _torus_problem(cfg), _schedule(cfg)
    return _solve(sched, prob, outdir, budget)[1]


def cmd_evolve(cfg: dict, outdir: str, budget: int) -> list[dict]:
    """Evolve from the checkpoint, or from a fresh solve whose checks (and
    files) it reports as `solve` does; a failed solve or flow is a failed check."""
    from . import torus as torus_mod

    prob, sched = _torus_problem(cfg), _schedule(cfg)
    ev = cfg["evolve"]
    T, tol = ev["T"], ev["drift_tol"]
    if not T > 0:
        raise UsageError(f"[evolve] T must be positive, got {T}")
    if not tol > 0:
        raise UsageError(f"[evolve] drift_tol must be positive, got {tol}")
    # the evolver keeps |j| <= n_modes: the sites and every normal mode of the lattice
    top = int(max(np.abs(prob.lattice.j).max(), prob.S.jbar1))
    if ev["n_modes"] < top:
        raise UsageError(f"[evolve] n_modes must be at least {top}, the largest mode "
                         f"|j| of the embedding, got {ev['n_modes']}")
    checks = []
    if ev["checkpoint"] is not None:
        try:
            emb = torus_mod.load_embedding(ev["checkpoint"])
        except (OSError, ValueError, torus_mod.TorusError) as exc:
            raise UsageError(f"cannot load checkpoint {ev['checkpoint']}: {exc}") from None
        for name, saved, wanted in (("splus", emb.S.splus, prob.S.splus),
                                    ("n_x", emb.grid.n_x, prob.grid.n_x),
                                    ("n_phi", emb.grid.n_phi, prob.grid.n_phi)):
            if saved != wanted:
                raise UsageError(f"checkpoint has {name} = {saved}, the config {name} = {wanted}")
    else:
        emb, checks = _solve(sched, prob, outdir, budget)
        if emb is None:
            return checks
    try:
        u0 = torus_mod.action_angle_embed(prob, emb, (0.0,) * prob.S.nu)
        res = torus_mod.evolve(u0, T=T, n_modes=ev["n_modes"], f_spec=prob.f_spec)
    except torus_mod.TorusError as exc:
        return checks + [_failed("flow_completed", exc, f"T={T}")]
    _write_csv(outdir, "trajectory.csv", ("t", "H", "K1", "sup_norm_u"),
               zip(res.times, res.h_values, res.k1_values, res.sup_values))
    steps = (f"T={T}, accepted {res.accepted}, rejected {res.rejected}, "
             f"dt {res.dt_min:.6g} to {res.dt_max:.6g}")
    return checks + [check(name, float_fmt(drift), f"< {tol}", bool(drift < tol), steps)
                     for name, drift in (("H_drift", res.h_drift), ("K1_drift", res.k1_drift))]


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
        if args.budget < 1:
            raise UsageError(f"--budget must be at least 1, got {args.budget}")
        if args.threads < 0:
            raise UsageError(f"--threads must be at least 0, got {args.threads}")
        cfg = load_config(args.config, overrides)
        extra = (args.seed, args.threads) if args.command == "measure" else ()
        checks = COMMANDS[args.command](cfg, args.out, args.budget, *extra)
        return _summary(args.out, cfg, args.command, checks)
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
