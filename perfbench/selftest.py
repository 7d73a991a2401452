#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced sizes (about three minutes on 2 CPUs).

    python3 perfbench/selftest.py        # from the root of a checkout

For every workload it runs run.py with ``--size quick``, plain and traced.
It checks that the last line is a result with exactly the keys of the
contract, that the metric names and units are those listed in
BENCHMARK.json, that no operation failed, and that the traced run saw its
layers work.  Then it tampers with one reference hash and checks that the
benchmark reports the affected verb as a failed operation in every pass.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")

# per-layer counts that must be nonzero when the workload's layers work
ACTIVE = {
    "exact": ["wbnf.resonance_tuples", "wbnf.monomials", "polyham.bracket_calls",
              "twist.nondeg_pairs", "spectrum.ell_j_form_calls"],
    "torus": ["torus.newton_iters.solve", "torus.newton_iters.solve_hard",
              "torus.residual_calls", "torus.jacobian_nnz", "torus.etdrk4_calls",
              "torus.nonlinear_calls", "torus.checkpoint_bytes"],
    "mc": ["measure.cases.G0_1", "measure.cases.first_melnikov",
           "spectrum.ell_j_form_calls", "measure.samples_per_s.G0_0"],
}


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--size", "quick",
                           "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, units: dict, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int) and result["failed"] >= 0, what
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(units)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (what, name)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (what, name)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (wl["name"] for wl in bench["workloads"]):
        plain = run("--workload", w, "--trace", "0")
        check_result(plain, e2e, f"{w} trace 0")
        traced = run("--workload", w, "--trace", "1")
        check_result(traced, layer, f"{w} trace 1")
        for result in (plain, traced):
            assert result["correct"] and result["failed"] == 0, (w, result)
        idle = [n for n in ACTIVE[w] if not traced["metrics"][n]["value"] > 0]
        assert not idle, f"{w}: traced run saw no work in {idle}"
        print(f"selftest: {w}: {plain['attempted']} + {traced['attempted']} verbs pass")

    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    ref = refs["quick/exact/resonances"]["sha256"]
    ref["resonances.csv"] = "0" * 64
    os.makedirs(OUT, exist_ok=True)
    tampered = os.path.join(OUT, "tampered_refs.json")
    with open(tampered, "w") as fh:
        json.dump(refs, fh)
    result = run("--workload", "exact", "--refs", tampered)
    passes = result["attempted"] // 4
    assert result["failed"] == passes and not result["correct"], result
    print(f"selftest: tampered reference hash fails resonances in each of {passes} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
