#!/usr/bin/env python3
"""Time-to-artifact benchmark of the dpkam CLI.

    python3 perfbench/run.py --workload {exact,torus,mc} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it runs the package from ``src/`` and
fails without a result when ``src/dpkam`` is missing.  One closed-loop
client runs the workload's verbs in order, each as a fresh
``python -m dpkam.cli <verb>`` process.  It runs the chain twice, and again
while another pass would still end within ``--seconds``.  Times are reported
at a reference machine speed, measured by a calibration reading taken before
every timed process.  Every artifact is checked against the references in
``refs.json``.  The last line of standard output
is the JSON result; the run record (machine, versions, every sample) goes
to ``.perfbench_out/record-<workload>-seed<N>-trace<T>.json``.

``--trace 1`` alternates plain passes with passes run through
``perfbench/traced.py`` and reports the per-layer metrics instead.
``--record`` writes the references of one pass into ``refs.json``.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CONFIG = os.path.join(HERE, "problem.ini")
REFS = os.path.join(HERE, "refs.json")

MC_SEEDS = 16  # measure seeds with recorded references; --seed N runs seed N % 16
# import probes before every pass, so that the set-up median samples the
# whole run and not one moment of it
SETUP_PROBES_PER_PASS = 2
# every process still running this long after the benchmark started is
# killed, so that a hung verb ends a run at --seconds 36 well inside 180 s;
# a longer --seconds moves the limit out with it
START = time.perf_counter()
DEADLINE_MIN_S = 165.0
DEADLINE_PER_SECOND = 3.0


def cli(verb: str, *sets: str) -> list[str]:
    return ["cli", verb] + [arg for s in sets for arg in ("--set", s)]


# measure families whose excluded count is a per-layer metric; G0_0 and
# second_melnikov exclude no sample at any eps or seed used here, so their
# counts are only checked against the references
EXCLUDING = ("G0_1", "first_melnikov")

# Each workload is the chain of verbs a user runs, in order; "{pass}" is the
# pass's work directory, so later verbs read the 1/1000 checkpoint of "solve".
# "quick" sizes serve the self-test only.
WORKLOADS = {
    "exact": {
        "full": [
            ("resonances", cli("resonances", "scan.order=6", "scan.bound=24", "scan.m_cap=8")),
            ("wbnf", cli("wbnf", "scan.max_order=4")),
            ("twist", cli("twist", "scan.j_bound=60")),
            ("spectrum", cli("spectrum", "scan.j_bound=2000", "scan.ident_j_max=30")),
        ],
        "quick": [
            ("resonances", cli("resonances", "scan.order=4", "scan.bound=20", "scan.m_cap=4")),
            ("wbnf", cli("wbnf", "scan.max_order=2")),
            ("twist", cli("twist", "scan.j_bound=20")),
            ("spectrum", cli("spectrum", "scan.j_bound=200", "scan.ident_j_max=12")),
        ],
    },
    "torus": {
        "full": [
            ("solve", cli("solve")),
            ("solve_hard", cli("solve", "problem.epsilon=0.004")),
            ("linop", ["linop", "--checkpoint", "{pass}/solve/torus.json"]),
            ("evolve", cli("evolve", "evolve.T=25", "evolve.n_modes=64",
                           "evolve.checkpoint={pass}/solve/torus.json")),
        ],
        "quick": [
            ("solve", cli("solve", "truncation.n_x=16", "truncation.n_phi=8")),
            ("solve_hard", cli("solve", "truncation.n_x=16", "truncation.n_phi=8",
                               "problem.epsilon=0.002")),
            ("linop", ["linop", "--checkpoint", "{pass}/solve/torus.json", "--ell-cut", "3",
                       "--set", "truncation.n_x=16", "--set", "truncation.n_phi=8"]),
            ("evolve", cli("evolve", "truncation.n_x=16", "truncation.n_phi=8", "evolve.T=2",
                           "evolve.n_modes=32", "evolve.checkpoint={pass}/solve/torus.json")),
        ],
    },
    "mc": {
        "full": [
            ("measure_g0_1", cli("measure", "mc.family=G0_1", "mc.samples=10000",
                                 "mc.eps_values=0.08")),
            ("measure_first_melnikov", cli("measure", "mc.family=first_melnikov",
                                           "mc.samples=2000", "mc.ell_max=6",
                                           "mc.eps_values=0.04 0.08 0.16")),
            ("measure_second_melnikov", cli("measure", "mc.family=second_melnikov",
                                            "mc.samples=2000", "mc.ell_max=4",
                                            "mc.eps_values=0.04 0.08 0.16")),
            ("measure_g0_0", cli("measure", "mc.family=G0_0", "mc.samples=20000",
                                 "mc.ell_max=20")),
        ],
        "quick": [
            ("measure_g0_1", cli("measure", "mc.family=G0_1", "mc.samples=1000",
                                 "mc.eps_values=0.08")),
            ("measure_first_melnikov", cli("measure", "mc.family=first_melnikov",
                                           "mc.samples=1000", "mc.ell_max=2",
                                           "mc.eps_values=0.08 0.16")),
            ("measure_second_melnikov", cli("measure", "mc.family=second_melnikov",
                                            "mc.samples=1000", "mc.ell_max=2",
                                            "mc.eps_values=0.08 0.16")),
            ("measure_g0_0", cli("measure", "mc.family=G0_0", "mc.samples=1000",
                                 "mc.ell_max=5")),
        ],
    },
}
FAMILIES = ("G0_1", "first_melnikov", "second_melnikov", "G0_0")
# processes per plain pass of verbs whose run medians spread most on two
# samples; the runs of `torus` and `mc` have room for two passes only
REPEATS = {"linop": 2, "evolve": 2, "measure_first_melnikov": 2}

# artifacts compared byte for byte with the reference (exact layers only)
HASHED = ("resonances.csv", "generator_deg*.txt", "normalform_deg*.txt",
          "twist.json", "spectrum.csv")
# nondegeneracy.json records holding floating minima of a scan
SCANNED = {"corto_pair_scan", "cortissimo_single_scan", "w_decay_fitted_constant"}
SCAN_RTOL = 1e-12


# -- processes ---------------------------------------------------------------


# BLAS and OpenMP pools of the verb processes.  With a pool per CPU, the
# OpenBLAS threads spin-wait for each other and a verb's time follows the
# load of other tenants of the host; `measure` keeps its own thread pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# -- machine speed -----------------------------------------------------------

# The benchmark runs on a few cores of a shared host whose speed drifts by
# 20-30 % over seconds to hours; CPU time drifts with wall time, so this is
# not CPU steal.  Before every process it times, the benchmark times a fixed
# piece of work of its own.  Every reported time is scaled by
# CAL_REF_S / (median of the run's readings): it is the time at the speed at
# which that piece of work takes CAL_REF_S, about its median on the 2-CPU
# box the benchmark was built on.
CAL_REF_S = 0.13
CALIBRATION: list[float] = []  # readings of this run, in seconds


def calibrate() -> float:
    """Seconds of a fixed piece of work in this process, of the package's three
    kinds: exact arithmetic on dicts and Fractions, a sparse LU factorisation
    and many small FFTs."""
    import numpy as np
    import scipy.fft as sfft
    import scipy.sparse as sp
    import scipy.sparse.linalg as sla

    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(240_000):
        k = (i * i) % 1009
        acc[k] = acc.get(k, 0) + i
    f = Fraction(0)
    for j in range(1, 800):
        f += Fraction(j % 7 + 1, j * j + 1)
    n = 80
    eye = sp.identity(n)
    tri = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    off = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
    sla.splu((sp.kron(eye, tri) + sp.kron(off, eye) + 0.3 * sp.kron(off, off)).tocsc())
    x = np.cos(np.arange(288.0)).reshape(24, 12) + 0j
    for _ in range(600):
        x = sfft.ifft2(sfft.fft2(x) * 0.5) + 1.0
    return time.perf_counter() - t0


def speed_scale() -> float:
    """Factor that takes this run's seconds to seconds at the reference speed."""
    return CAL_REF_S / statistics.median(CALIBRATION)


def spawn(argv: list[str], stderr_path: str, deadline: float) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS in MB).

    A calibration reading is taken first.  A process still running at
    `deadline` is killed and reported with a negative exit code, as a crash."""
    CALIBRATION.append(calibrate())
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def verb_argv(prog: list[str], passdir: str, outdir: str, mc_seed: int,
              spans: str | None) -> list[str]:
    kind, *args = [a.replace("{pass}", passdir) for a in prog]
    args += ["--config", CONFIG, "--out", outdir]
    if kind == "cli" and args[0] == "measure":
        args += ["--seed", str(mc_seed)]
    if spans:
        return [sys.executable, os.path.join(HERE, "traced.py"), spans, kind] + args
    if kind == "cli":
        return [sys.executable, "-m", "dpkam.cli"] + args
    return [sys.executable, os.path.join(HERE, "linop.py")] + args


# -- correctness -------------------------------------------------------------


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def observe(outdir: str) -> tuple[dict, bool]:
    """What the reference pins down in one verb's output directory."""
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    obs: dict = {"checks": {c["check"]: c["pass"] for c in summary["checks"]}}
    hashes = {os.path.basename(p): sha256(p)
              for pattern in HASHED for p in glob.glob(os.path.join(outdir, pattern))}
    if hashes:
        obs["sha256"] = dict(sorted(hashes.items()))
    nondeg = os.path.join(outdir, "nondegeneracy.json")
    if os.path.exists(nondeg):
        with open(nondeg) as fh:
            obs["nondegeneracy"] = json.load(fh)
    table = os.path.join(outdir, "measure.csv")
    if os.path.exists(table):
        with open(table) as fh:
            obs["excluded"] = [int(row["excluded"]) for row in csv.DictReader(fh)]
    return obs, bool(summary["pass"])


def _same_record(got: dict, ref: dict) -> bool:
    if ref["check"] not in SCANNED:
        return got == ref
    return (got["check"] == ref["check"] and got["pass"] == ref["pass"]
            and math.isclose(got["value"], ref["value"], rel_tol=SCAN_RTOL, abs_tol=0.0))


def mismatches(obs: dict, ref: dict) -> list[str]:
    """Differences from the reference.  A check that is red in the reference
    (expected red) is recorded, not counted, whatever it reads now."""
    bad = [f"check {name} failed" for name, passed in ref["checks"].items()
           if passed and not obs["checks"].get(name, False)]
    for key in ("sha256", "excluded"):
        if obs.get(key) != ref.get(key):
            bad.append(f"{key} differs: {obs.get(key)} != {ref.get(key)}")
    if "nondegeneracy" in ref:
        got = obs.get("nondegeneracy") or []
        if len(got) != len(ref["nondegeneracy"]) or not all(
                _same_record(g, r) for g, r in zip(got, ref["nondegeneracy"])):
            bad.append("nondegeneracy.json records differ")
    return bad


def classify(rc: int, outdir: str, ref: dict | None) -> tuple[str, str]:
    """pass, failed_check or crash.  The CLI exits 1 both for a traceback and
    for a failed check, so exit 1 without a fresh summary.json is a crash."""
    if rc < 0 or rc >= 2:
        return "crash", f"exit {rc}"
    if not os.path.exists(os.path.join(outdir, "summary.json")):
        return "crash", f"exit {rc} without summary.json"
    obs, passed = observe(outdir)
    if passed != (rc == 0):
        return "failed_check", f"exit {rc} but summary pass={passed}"
    if ref is None:
        return "failed_check", "no reference recorded"
    bad = mismatches(obs, ref)
    return ("failed_check", "; ".join(bad)) if bad else ("pass", "")


# -- passes ------------------------------------------------------------------


def ref_key(size: str, workload: str, verb: str, prog: list[str], mc_seed: int) -> str:
    key = f"{size}/{workload}/{verb}"
    return key + f"/seed{mc_seed}" if prog[1:2] == ["measure"] else key


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pass(args, tag: str, traced: bool, refs: dict) -> dict:
    passdir = os.path.join(OUT, "work", tag)
    shutil.rmtree(passdir, ignore_errors=True)
    os.makedirs(passdir)
    runs = []
    for name, prog in WORKLOADS[args.workload][args.size]:
        key = ref_key(args.size, args.workload, name, prog, args.mc_seed)
        for rep in range(1 if traced else REPEATS.get(name, 1)):
            label = name if rep == 0 else f"{name}-{rep}"
            outdir = os.path.join(passdir, label)
            spans = os.path.join(passdir, label + ".spans.json") if traced else None
            argv = verb_argv(prog, passdir, outdir, args.mc_seed, spans)
            rc, wall, rss = spawn(argv, os.path.join(passdir, label + ".stderr"), args.deadline)
            runs.append({"verb": name, "label": label, "outdir": outdir, "key": key, "rc": rc,
                         "wall_s": wall, "rss_mb": rss, "spans": spans})
    for run in runs:
        outdir = run["outdir"]
        run["status"], run["why"] = classify(run["rc"], outdir, refs.get(run["key"]))
        run["artifact_bytes"] = dir_bytes(outdir)
        if run["spans"]:
            if os.path.exists(run["spans"]):
                with open(run["spans"]) as fh:
                    run["spans"] = json.load(fh)["spans"]
            else:
                run["spans"] = []
        if run["status"] != "pass":
            print(f"perfbench: {tag} {run['label']}: {run['status']}: {run['why']}",
                  file=sys.stderr)
    # the chain as a user runs it: each verb once, a repeated verb at its mean
    chain = sum(statistics.mean(w) for w in verb_walls([runs]).values())
    return {"tag": tag, "traced": traced, "wall_s": chain, "runs": runs}


def verb_walls(passes_runs: list[list[dict]]) -> dict[str, list[float]]:
    """Wall times per verb, in chain order, over the given passes' runs."""
    walls: dict[str, list[float]] = {}
    for runs in passes_runs:
        for r in runs:
            walls.setdefault(r["verb"], []).append(r["wall_s"])
    return walls


def setup_times(deadline: float) -> list[float]:
    """Wall time of fresh processes that only import the CLI, which every verb pays."""
    times = []
    os.makedirs(OUT, exist_ok=True)
    for _ in range(SETUP_PROBES_PER_PASS):
        rc, wall, _ = spawn([sys.executable, "-c", "import dpkam.cli"],
                            os.path.join(OUT, "setup.stderr"), deadline)
        if rc != 0:
            raise RuntimeError(f"import dpkam.cli failed (exit {rc}); see {OUT}/setup.stderr")
        times.append(wall)
    return times


# -- metrics -----------------------------------------------------------------


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Medians of the run, times at the reference speed (see CAL_REF_S)."""
    med, scale = statistics.median, speed_scale()
    metrics = {
        "setup_s": (med(setup) * scale, "s"),
        "wall_s": (med(p["wall_s"] for p in passes) * scale, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p["runs"]), "MB"),
    }
    for i, walls in enumerate(verb_walls([p["runs"] for p in passes]).values()):
        metrics[f"verb{i + 1}_s"] = (med(walls) * scale, "s")
    return metrics


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called `name` that do not sit inside another span of that name."""
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


def _busy(spans: list[dict]) -> float:
    """Length of the union of the spans' intervals (threads overlap)."""
    total, end = 0.0, -math.inf
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["end"] > end:
            total += s["end"] - max(s["start"], end)
            end = s["end"]
    return total


def per_layer(traced: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    m: dict = {}

    def total(name):
        return sum(s["end"] - s["start"]
                   for r in traced["runs"] for s in _outermost(r["spans"], name))

    def spans(name):
        return [s for r in traced["runs"] for s in r["spans"] if s["name"] == name]

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in spans(name) if s["attrs"])

    def attr_max(name, key):
        return max((s["attrs"][key] for s in spans(name)), default=0)

    m["polyham.bracket_calls"] = (len(spans("polyham.bracket")), "count")
    m["polyham.bracket_s"] = (total("polyham.bracket"), "s")
    m["polyham.homological_s"] = (total("polyham.homological"), "s")
    m["polyham.conjugate_s"] = (total("polyham.conjugate"), "s")
    m["wbnf.enumerate_s"] = (total("wbnf.enumerate"), "s")
    m["wbnf.resonance_tuples"] = (attr_sum("wbnf.enumerate", "tuples"), "count")
    m["wbnf.normal_form_s"] = (total("wbnf.normal_form"), "s")
    m["wbnf.monomials"] = (attr_sum("wbnf.normal_form", "monomials"), "count")
    m["twist.nondeg_s"] = (total("twist.nondeg"), "s")
    m["twist.nondeg_pairs"] = (attr_sum("twist.nondeg", "pairs"), "count")

    calls = len(spans("spectrum.ell_j_form"))
    # distinct j per process: a cache could only share work within one verb
    distinct = sum(len({s["attrs"]["j"] for s in r["spans"] if s["name"] == "spectrum.ell_j_form"})
                   for r in traced["runs"])
    m["spectrum.ell_j_form_calls"] = (calls, "count")
    m["spectrum.ell_j_form_s"] = (total("spectrum.ell_j_form"), "s")
    m["spectrum.ell_j_form_distinct_ratio"] = (distinct / calls if calls else 0.0, "1")
    m["spectrum.divisor_scan_s"] = (total("spectrum.divisor_scan"), "s")
    m["spectrum.identification_s"] = (total("spectrum.identification"), "s")

    estimates = spans("measure.estimate")
    for fam in FAMILIES:
        mine = [s for s in estimates if s["attrs"]["family"] == fam]
        busy = sum(s["end"] - s["start"] for s in mine)
        samples = sum(s["attrs"]["samples"] for s in mine)
        m[f"measure.estimate_s.{fam}"] = (busy, "s")
        m[f"measure.samples_per_s.{fam}"] = (samples / busy if busy else 0.0, "1/s")
        if fam in EXCLUDING:
            m[f"measure.excluded.{fam}"] = (sum(s["attrs"]["excluded"] for s in mine), "count")
    for fam, pattern in (("G0_1", r"over (\d+) momentum cases"),
                         ("first_melnikov", r"\|j\| <= (\d+)"),
                         ("second_melnikov", r"\|j\| <= (\d+)")):
        cases = [int(mt.group(1)) for s in estimates if s["attrs"]["family"] == fam
                 for note in s["attrs"]["notes"] for mt in [re.search(pattern, note)] if mt]
        m[f"measure.cases.{fam}"] = (max(cases, default=0), "count")

    for r in traced["runs"]:
        if r["verb"] in ("solve", "solve_hard"):
            iters = [s["attrs"]["iterations"] for s in r["spans"] if s["name"] == "torus.newton"]
            m[f"torus.newton_iters.{r['verb']}"] = (sum(iters), "count")
    m.setdefault("torus.newton_iters.solve", (0, "count"))
    m.setdefault("torus.newton_iters.solve_hard", (0, "count"))
    m["torus.residual_calls"] = (len(spans("torus.residual")), "count")
    m["torus.residual_s"] = (total("torus.residual"), "s")
    m["torus.jacobian_calls"] = (len(spans("torus.jacobian")), "count")
    m["torus.jacobian_s"] = (total("torus.jacobian"), "s")
    m["torus.jacobian_nnz"] = (attr_max("torus.jacobian", "nnz"), "count")
    m["torus.lu_s"] = (total("torus.lu"), "s")
    m["torus.lu_fill"] = (attr_max("torus.lu", "fill"), "1")
    m["torus.linop_s"] = (total("torus.linop"), "s")
    m["torus.etdrk4_calls"] = (len(spans("torus.etdrk4")), "count")
    m["torus.nonlinear_calls"] = (len(spans("torus.nonlinear")), "count")
    m["torus.evolve_s"] = (total("torus.evolve"), "s")
    m["torus.h_drift"] = (attr_max("torus.evolve", "h_drift"), "1")
    m["torus.checkpoint_bytes"] = (attr_sum("torus.checkpoint", "bytes"), "B")
    m["torus.checkpoint_s"] = (total("torus.checkpoint"), "s")

    m["cli.artifact_bytes"] = (sum(r["artifact_bytes"] for r in traced["runs"]), "B")
    m["cli.overhead_s"] = (sum(r["wall_s"] - _busy([s for s in r["spans"] if s["parent"] is None])
                               for r in traced["runs"]), "s")
    return m


def core_scalar_us(repeats: int = 5) -> float:
    """Mean microseconds per call of lam(j) and kr_weight(r, j), |j| <= 2000, r <= 8."""
    sys.path.insert(0, SRC)
    from dpkam.core import kr_weight, lam

    js = [j for j in range(-2000, 2001) if j != 0]
    rs = range(2, 9)
    calls = len(js) * (1 + len(rs))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for j in js:
            lam(j)
            for r in rs:
                kr_weight(r, j)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


# -- run record --------------------------------------------------------------


def run_record(args, passes: list[dict], setup: list[float]) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dpkam", "*.py"))):
        src_hash.update(sha256(path).encode())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip()
                        for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    verbs = {}
    for traced in (False, True):
        mine = [p["runs"] for p in passes if p["traced"] == traced]
        for name, walls in verb_walls(mine).items():
            verbs[name + (" traced" if traced else "")] = {
                "samples": len(walls), "median_s": statistics.median(walls), "wall_s": walls,
                "status": [r["status"] for runs in mine for r in runs if r["verb"] == name]}
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "measure_seed": args.mc_seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
        "thread_env": {v: child_env().get(v) for v in THREAD_VARS},
        "setup_s": {"samples": len(setup), "median_s": statistics.median(setup), "wall_s": setup},
        "calibration": {"ref_s": CAL_REF_S, "samples": len(CALIBRATION),
                        "median_s": statistics.median(CALIBRATION), "scale": speed_scale(),
                        "readings_s": CALIBRATION},
        "passes": len(passes), "verbs": verbs,
        "failures": [{"pass": p["tag"], "verb": r["verb"], "status": r["status"], "why": r["why"]}
                     for p in passes for r in p["runs"] if r["status"] != "pass"],
    }


# -- main --------------------------------------------------------------------


def record_refs(args, refs: dict) -> int:
    """Run one plain pass and store what it produced as the references."""
    done = run_pass(args, f"record-{args.workload}", False, {})
    firsts = [run for run in done["runs"] if run["label"] == run["verb"]]
    for run in firsts:
        if run["status"] == "crash":
            print(f"perfbench: {run['verb']} crashed: {run['why']}", file=sys.stderr)
            return 1
        refs[run["key"]] = observe(run["outdir"])[0]
    with open(args.refs, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(firsts)} references into {args.refs}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="quick: reduced sizes for the self-test")
    parser.add_argument("--refs", default=REFS, help="reference file")
    parser.add_argument("--record", action="store_true",
                        help="record the references of one pass instead of measuring")
    args = parser.parse_args(argv)
    args.mc_seed = args.seed % MC_SEEDS
    args.deadline = START + max(DEADLINE_MIN_S, DEADLINE_PER_SECOND * args.seconds)

    if not os.path.isfile(os.path.join(SRC, "dpkam", "cli.py")):
        print(f"perfbench: no src/dpkam/cli.py under {ROOT}; run from a dpkam checkout",
              file=sys.stderr)
        return 2
    refs = {}
    if os.path.exists(args.refs):
        with open(args.refs) as fh:
            refs = json.load(fh)
    if args.record:
        return record_refs(args, refs)

    setup_times(args.deadline)  # warm-up: byte-code caches and page cache
    setup, passes, round_s = [], [], []
    t0 = time.perf_counter()
    # at least two rounds, so that every median has two samples; another
    # only if it should end within --seconds even if it is the slowest yet
    while True:
        t_round = time.perf_counter()
        setup += setup_times(args.deadline)
        passes.append(run_pass(args, f"{args.workload}-{len(round_s)}", False, refs))
        if args.trace:
            passes.append(run_pass(args, f"{args.workload}-{len(round_s)}-traced", True, refs))
        round_s.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t0
        if len(round_s) >= 2 and elapsed + max(round_s) > args.seconds:
            break

    runs = [r for p in passes for r in p["runs"]]
    failed = sum(r["status"] != "pass" for r in runs)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = [per_layer(p) for p in traced]
        metrics = {name: (statistics.median(m[name][0] for m in layer), unit)
                   for name, (_, unit) in layer[0].items()}
        metrics["core.scalar_us"] = (core_scalar_us(), "us")
        metrics["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0, "1")
    else:
        metrics = end_to_end(plain, setup)

    record = run_record(args, passes, setup)
    record["fail_frac"] = failed / len(runs)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, info in record["verbs"].items():
        print(f"{args.workload} {name}: median {info['median_s']:.3f} s over {info['samples']}")
    print(f"fail_frac {failed}/{len(runs)}; run record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
