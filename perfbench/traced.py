"""Run one benchmark verb with spans around the public functions of each layer.

    python perfbench/traced.py SPANS.json cli VERB ARGS...   # a dpkam CLI verb
    python perfbench/traced.py SPANS.json linop ARGS...      # perfbench/linop.py

The spans are installed by replacing module attributes after import, so the
package source is unchanged.  Each span records its id, name, start, end,
parent span and thread, plus attributes read from the wrapped call (counts
such as Newton iterations or Jacobian nonzeros).  Spans stay in memory and
are written to SPANS.json when the verb returns, also when it raises.

The hot exact scalars of ``core`` (``lam``, ``kr_weight``) are not wrapped:
a wrapper would cost as much as the call.  The benchmark times them directly.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span recorder; safe to call from the measure thread pool."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, attrs]
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, attrs=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [next(ids), name, 0.0, 0.0, stack[-1] if stack else None,
                   threading.get_ident(), None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(out, *args, **kwargs)
            return out

        return traced

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": [dict(zip(keys, rec)) for rec in self.spans]}))


def _patch(tracer: Tracer, owner, attr: str, name: str, attrs=None) -> None:
    """Wrap ``owner.attr`` and every dpkam module global bound to the same object."""
    orig = getattr(owner, attr)
    new = tracer.wrap(name, orig, attrs)
    setattr(owner, attr, new)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("dpkam") and getattr(mod, attr, None) is orig:
            setattr(mod, attr, new)


class _ModuleProxy:
    """Stands in for a module inside one dpkam module, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _nondeg_pairs(report_fn):
    """Size figure of the twist pair scan: n (n - 1) / 2 for the n normal
    sites |j| <= j_bound.  It is derived from the call's arguments, not
    counted inside the scan, so it cannot show a pruned scan; the span's
    time (twist.nondeg_s) does."""
    sig = inspect.signature(report_fn)

    def attrs(out, *args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        S, j_bound = call.arguments["S"], call.arguments["j_bound"]
        n = sum(1 for j in range(-j_bound, j_bound + 1) if S.in_sc(j))
        return {"pairs": n * (n - 1) // 2}

    return attrs


def install(tracer: Tracer) -> None:
    from dpkam import measure, polyham, spectrum, torus, twist, wbnf

    _patch(tracer, polyham, "poisson_bracket", "polyham.bracket")
    _patch(tracer, polyham, "solve_homological", "polyham.homological")
    _patch(tracer, polyham, "flow_conjugate", "polyham.conjugate")

    _patch(tracer, wbnf, "enumerate_h2_resonances", "wbnf.enumerate",
           lambda out, *a, **k: {"tuples": len(out)})
    _patch(tracer, wbnf, "run_wbnf", "wbnf.normal_form",
           lambda out, *a, **k: {"monomials": sum(
               len(p) for p in (*out.generators.values(), *out.z_pieces.values()))})

    _patch(tracer, twist, "nondegeneracy_report", "twist.nondeg",
           _nondeg_pairs(twist.nondegeneracy_report))

    _patch(tracer, spectrum, "ell_j_form", "spectrum.ell_j_form",
           lambda out, S, j: {"j": j})
    _patch(tracer, spectrum, "min_divisor_scan", "spectrum.divisor_scan")
    _patch(tracer, spectrum, "identification_check", "spectrum.identification")

    _patch(tracer, measure, "estimate_excluded_measure", "measure.estimate",
           lambda out, *a, **k: {"family": out.family, "samples": out.samples,
                                 "excluded": out.excluded, "notes": out.notes})

    _patch(tracer, torus, "newton_solve", "torus.newton",
           lambda out, *a, **k: {"iterations": out.iterations})
    _patch(tracer, torus, "residual", "torus.residual")
    _patch(tracer, torus, "jacobian", "torus.jacobian",
           lambda out, *a, **k: {"nnz": int(out.nnz)})
    # sparse LU as called from torus only: the module sees a proxy of scipy's
    splu = tracer.wrap("torus.lu", torus.spla.splu,
                       lambda lu, A, *a, **k: {"fill": (lu.L.nnz + lu.U.nnz) / A.nnz})
    torus.spla = _ModuleProxy(torus.spla, splu=splu)
    _patch(tracer, torus, "linearized_normal_operator", "torus.linop")
    _patch(tracer, torus, "evolve", "torus.evolve",
           lambda out, *a, **k: {"h_drift": float(out.h_drift)})
    _patch(tracer, torus.DPEvolver, "step_etdrk4", "torus.etdrk4")
    _patch(tracer, torus.DPEvolver, "nonlinear", "torus.nonlinear")
    _patch(tracer, torus, "save_embedding", "torus.checkpoint",
           lambda out, emb, path: {"bytes": os.path.getsize(path)})
    _patch(tracer, torus, "load_embedding", "torus.checkpoint")


def main(argv: list[str]) -> int:
    spans_path, target, *rest = argv
    tracer = Tracer()
    import dpkam.cli

    install(tracer)
    if target == "cli":
        entry = dpkam.cli.main
    else:
        import linop

        entry = linop.main
    try:
        return entry(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
