"""Symbolic-lattice runner: the verify lattice over symbolic coefficients.

For every ``d >= q >= 1`` with ``d+q <= --smax`` and every ``k``, the forms are
``symbolic_forms(d+q-2k)``; ``det_direct`` and ``det_closed_form`` run once
and ``det_schur_expansion`` runs for every split ``u``, all compared as
polynomials.  The package has no CLI entry for this yet, so the benchmark
drives the public library API from this script::

    PYTHONPATH=src python3 perfbench/symbolic.py --smax 8 --seed 0

The computation is the same for every seed; the seed only shuffles the order
in which the ``(d, q, k)`` triples run.  Output is one JSON line holding each
triple's direct determinant as a term list, so the harness can check it
against an independent rational oracle.  Exit code 1 means some route
disagreed, as in ``lefdet verify``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from lefdet import (
    MultiPoly,
    RingParams,
    SplitForms,
    det_closed_form,
    det_direct,
    det_schur_expansion,
    symbolic_forms,
)


def triples(smax: int) -> list[tuple[int, int, int]]:
    """All (d, q, k) with d >= q >= 1, d+q <= smax, 0 <= k <= (d+q)/2."""
    return [
        (s - q, q, k)
        for s in range(2, smax + 1)
        for q in range(1, s // 2 + 1)
        for k in range(s // 2 + 1)
    ]


def run_triple(d: int, q: int, k: int) -> dict:
    n = d + q - 2 * k
    rp = RingParams(d, q)
    forms, _ = symbolic_forms(n)
    direct = det_direct(rp, k, forms)
    closed_equal = det_closed_form(rp, k, forms) == direct
    expansion_equal = [
        det_schur_expansion(rp, k, SplitForms.split(forms, u)).value == direct
        for u in range(n + 1)
    ]
    if not isinstance(direct, MultiPoly):
        direct = MultiPoly.constant(2 * n, direct)
    return {
        "d": d,
        "q": q,
        "k": k,
        "det_direct": [[list(expo), str(c)] for expo, c in sorted(direct.terms.items())],
        "closed_equal": closed_equal,
        "expansion_equal": expansion_equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smax", type=int, required=True, help="largest d+q")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    order = triples(args.smax)
    random.Random(args.seed).shuffle(order)
    records = [run_triple(*triple) for triple in order]
    mismatches = sum(
        (not r["closed_equal"]) + r["expansion_equal"].count(False) for r in records
    )
    sys.stdout.write(json.dumps({"triples": records, "mismatches": mismatches}, sort_keys=True) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
