"""Linearized normal-direction operator on a saved torus checkpoint.

    python perfbench/linop.py --config CFG --checkpoint torus.json --out DIR [--set S.K=V]

The CLI has no verb for ``torus.linearized_normal_operator``, so the
benchmark runs it through this script, in a fresh process like every verb.
It builds the problem from the config the way ``dpkam solve`` does and writes
a ``summary.json`` in the CLI's format with one check: the spectrum of a
Hamiltonian torus is purely imaginary, max |Re eig| < 1e-10.
Exit codes follow the CLI: 0 pass, 1 failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

RE_EIG_TOL = 1e-10


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="linop")
    parser.add_argument("--config", required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ell-cut", type=int, default=6)
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="config override, as in the CLI")
    args = parser.parse_args(argv)

    from dpkam import cli, torus
    from dpkam.core import float_fmt

    cfg = cli.load_config(args.config, dict(item.split("=", 1) for item in args.set))
    prob = cli._torus_problem(cfg)
    emb = torus.load_embedding(args.checkpoint)
    op = torus.linearized_normal_operator(prob, emb, ell_cut=args.ell_cut, phib_order=2)
    max_re = float(abs(op.eigvals.real).max())
    ok = max_re < RE_EIG_TOL
    summary = {
        "command": "linop",
        "config_hash": cli.config_hash(cfg),
        "pass": ok,
        "checks": [
            {"check": "max_abs_re_eig", "value": float_fmt(max_re),
             "threshold": f"< {RE_EIG_TOL}",
             "witness": f"{len(op.eigvals)} eigenvalues, ell_cut={args.ell_cut}",
             "pass": ok},
        ],
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
