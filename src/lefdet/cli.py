"""Command-line front end.

Subcommands: ``det`` (one determinant by any method), ``verify`` (seeded
cross-check sweep with exit-code semantics), ``sweep`` (the same lattice as a
flat per-trial table), ``slp`` (strong Lefschetz scan), ``schur`` (the three
Schur evaluators side by side), ``duality`` (rectangular Schur identities),
``report`` (full side-by-side record for one instance).

All rationals in output are strings ``p`` or ``p/q`` in lowest terms; there
is no floating point anywhere.  ``verify`` and ``sweep`` evaluate cells in
order in one thread, each by a pure function keyed on (seed, cell
coordinates), so output for a fixed seed is byte-identical from run to run.
``--threads`` is accepted for compatibility and ignored.

Exit codes: 0 success or all-match, 1 verified mismatch between the direct
determinant and the expansion or closed form, 2 usage error.  Literal-case
audit findings are reported but never change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

from .formulas import (
    SplitForms,
    complement_identity_check,
    det_closed_form,
    det_schur_expansion,
    discrepancy_report,
    duality_check,
)
from .partitions import Partition
from .ring import LinearForm, RingParams, det_direct, slp_check
from .symfunc import schur_bialternant, schur_jacobi_trudi, schur_tableaux

SCHEMA = "lefdet/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# parsing and formatting


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def parse_values(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_rational(tok) for tok in text.split(","))


def parse_forms(text: str) -> list[LinearForm]:
    """Wire format: semicolon-separated pairs, e.g. ``2,1;1,3``."""
    text = text.strip()
    if not text:
        return []
    forms = []
    for chunk in text.split(";"):
        coords = parse_values(chunk)
        if len(coords) != 2:
            raise ValueError(f"form {chunk!r} must be two rationals a,b")
        forms.append(LinearForm(coords[0], coords[1]))
    return forms


def fmt(value) -> str:
    return str(Fraction(value))


def form_doc(form: LinearForm) -> list[str]:
    return [fmt(form.a), fmt(form.b)]


def term_doc(term) -> dict:
    return {
        "delta": list(term.delta),
        "lam": str(term.lam),
        "nu": str(term.nu),
        "value": fmt(term.value),
    }


# ---------------------------------------------------------------------------
# seeded randomness: one independent generator per (seed, cell) coordinate


def cell_rng(seed: int, *coords) -> random.Random:
    key = ":".join([str(seed)] + [str(c) for c in coords])
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_rational(rng: random.Random, allow_zero: bool = False) -> Fraction:
    num = rng.randint(-9, 9) if allow_zero else rng.choice(
        [n for n in range(-9, 10) if n]
    )
    den = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, den)


def random_form(rng: random.Random, allow_zero: bool = False) -> LinearForm:
    while True:
        a = random_rational(rng, allow_zero)
        b = random_rational(rng, allow_zero)
        if a or b:
            return LinearForm(a, b)


# ---------------------------------------------------------------------------
# sweep lattice


def lattice_cells(smax: int) -> list[tuple[int, int, int, int]]:
    """All (d, q, k, u) with d >= q >= 1, d+q <= smax, sorted."""
    cells = []
    for s in range(2, smax + 1):
        for q in range(1, s // 2 + 1):
            d = s - q
            for k in range(s // 2 + 1):
                for u in range(s - 2 * k + 1):
                    cells.append((d, q, k, u))
    return cells


def eval_cell(seed: int, cell: tuple[int, int, int, int], trials: int, allow_zero: bool) -> dict:
    d, q, k, u = cell
    rp = RingParams(d, q)
    n = d + q - 2 * k
    rows = []
    for t in range(trials):
        rng = cell_rng(seed, d, q, k, u, t)
        forms = [random_form(rng, allow_zero) for _ in range(n)]
        record = discrepancy_report(rp, k, SplitForms.split(forms, u))
        # the report carries the closed form only for the trivial split
        closed = record["det_closed_form"]
        if closed is None:
            closed = det_closed_form(rp, k, forms)
        if record["literal_case_error"] is None:
            audit = [
                {
                    "case": c["case"],
                    "value": fmt(c["value"]),
                    "matches_direct": c["matches_direct"],
                }
                for c in record["literal_case_audit"]
            ]
        else:
            audit = "undefined"
        rows.append(
            {
                "trial": t,
                "forms": [form_doc(f) for f in forms],
                "det_direct": fmt(record["det_direct"]),
                "det_expansion": fmt(record["det_expansion"]),
                "det_closed": fmt(closed),
                "match": record["matches"]["expansion"] and closed == record["det_direct"],
                "literal_case_audit": audit,
            }
        )
    return {"d": d, "q": q, "k": k, "u": u, "trials": rows}


def run_lattice(cells, seed: int, trials: int, allow_zero: bool) -> list[dict]:
    return [eval_cell(seed, cell, trials, allow_zero) for cell in cells]


# ---------------------------------------------------------------------------
# subcommands


def cmd_det(args) -> tuple[dict, int]:
    rp = RingParams(args.d, args.q)
    forms = parse_forms(args.forms)
    doc = {
        "schema": SCHEMA,
        "command": "det",
        "inputs": {
            "d": args.d,
            "q": args.q,
            "k": args.k,
            "forms": [form_doc(f) for f in forms],
            "method": args.method,
        },
    }
    if args.method == "direct":
        doc["det"] = fmt(det_direct(rp, args.k, forms))
        return doc, EXIT_OK
    direct = det_direct(rp, args.k, forms)
    if args.method == "closed":
        value = det_closed_form(rp, args.k, forms)
        doc["det"] = fmt(value)
    else:
        u = len(forms) if args.u is None else args.u
        doc["inputs"]["u"] = u
        expansion = det_schur_expansion(rp, args.k, SplitForms.split(forms, u))
        value = expansion.value
        doc["det"] = fmt(value)
        doc["terms"] = [term_doc(term) for term in expansion.terms]
    doc["match_direct"] = value == direct
    return doc, EXIT_OK if value == direct else EXIT_MISMATCH


def _sweep_cells(args) -> list[tuple[int, int, int, int]]:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.d is not None:
        if args.q is None:
            raise ValueError("--q is required with --d")
        kmax = (args.d + args.q) // 2
        ks = [args.k] if args.k is not None else list(range(kmax + 1))
        cells = []
        for k in ks:
            if not 0 <= k <= kmax:
                raise ValueError(f"k={k} outside 0..{kmax}")
            n = args.d + args.q - 2 * k
            us = [args.u] if args.u is not None else list(range(n + 1))
            for u in us:
                if not 0 <= u <= n:
                    raise ValueError(f"split {u} outside 0..{n}")
                cells.append((args.d, args.q, k, u))
        return cells
    if args.dmax < 2:
        raise ValueError(f"--dmax {args.dmax} gives no cells; need --dmax >= 2")
    return lattice_cells(args.dmax)


def cmd_verify(args) -> tuple[dict, int]:
    cells = _sweep_cells(args)
    results = run_lattice(cells, args.seed, args.trials, args.allow_zero)
    mismatches = sum(
        1 for cell in results for row in cell["trials"] if not row["match"]
    )
    literal_flagged = sorted(
        {
            (cell["d"], cell["q"], cell["k"], cell["u"])
            for cell in results
            for row in cell["trials"]
            if isinstance(row["literal_case_audit"], list)
            and any(not case["matches_direct"] for case in row["literal_case_audit"])
        }
    )
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "inputs": {
            "seed": args.seed,
            "trials": args.trials,
            "allow_zero": args.allow_zero,
            "cells": len(cells),
        },
        "cells": results,
        "summary": {
            "trials": len(cells) * args.trials,
            "mismatches": mismatches,
            "literal_case_flagged_cells": [list(c) for c in literal_flagged],
        },
    }
    return doc, EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def cmd_sweep(args) -> tuple[dict, int]:
    cells = _sweep_cells(args)
    results = run_lattice(cells, args.seed, args.trials, args.allow_zero)
    rows = []
    for cell in results:
        for row in cell["trials"]:
            rows.append(
                {
                    "d": cell["d"],
                    "q": cell["q"],
                    "k": cell["k"],
                    "u": cell["u"],
                    "seed": args.seed,
                    "trial": row["trial"],
                    "det_direct": row["det_direct"],
                    "det_expansion": row["det_expansion"],
                    "det_closed": row["det_closed"],
                    "match": row["match"],
                }
            )
    mismatches = sum(1 for r in rows if not r["match"])
    doc = {
        "schema": SCHEMA,
        "command": "sweep",
        "inputs": {
            "seed": args.seed,
            "trials": args.trials,
            "allow_zero": args.allow_zero,
        },
        "rows": rows,
        "summary": {"rows": len(rows), "mismatches": mismatches},
    }
    return doc, EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def cmd_slp(args) -> tuple[dict, int]:
    rp = RingParams(args.d, args.q)
    forms = parse_forms(args.forms)
    if len(forms) != 1:
        raise ValueError("slp needs exactly one form")
    report = slp_check(rp, forms[0])
    doc = {
        "schema": SCHEMA,
        "command": "slp",
        "inputs": {"d": args.d, "q": args.q, "form": form_doc(forms[0])},
        "per_k": [
            {"k": e.k, "det": fmt(e.det), "nonzero": e.nonzero} for e in report.entries
        ],
        "slp": report.holds,
    }
    return doc, EXIT_OK


def cmd_schur(args) -> tuple[dict, int]:
    lam = Partition.from_text(args.partition)
    values = parse_values(args.values)
    doc = {
        "schema": SCHEMA,
        "command": "schur",
        "inputs": {"partition": str(lam), "values": [fmt(v) for v in values]},
    }
    results = {}
    results["jacobi_trudi_of_conjugate"] = fmt(schur_jacobi_trudi(lam.conjugate(), values))
    for key, fn in (("bialternant", schur_bialternant), ("tableaux", schur_tableaux)):
        try:
            results[key] = fmt(fn(lam, values))
        except ValueError as exc:
            results[key] = None
            doc[f"{key}_error"] = str(exc)
    doc.update(results)
    computed = [v for v in results.values() if v is not None]
    doc["agree"] = len(set(computed)) == 1
    return doc, EXIT_OK if doc["agree"] else EXIT_MISMATCH


def cmd_duality(args) -> tuple[dict, int]:
    doc = {"schema": SCHEMA, "command": "duality"}
    if args.partition is not None:
        if args.n is None:
            raise ValueError("--n is required for the complement identity")
        lam = Partition.from_text(args.partition)
        x = parse_values(args.x)
        y = parse_values(args.y)
        result = complement_identity_check(lam, args.r, args.n, x, y)
        doc["inputs"] = {
            "identity": "complement",
            "partition": str(lam),
            "r": args.r,
            "n": args.n,
            "x": [fmt(v) for v in x],
            "y": [fmt(v) for v in y],
        }
        doc["mu"] = str(result.mu)
    else:
        if args.m is None:
            raise ValueError("--m is required for the rectangle duality")
        a = parse_values(args.a)
        b = parse_values(args.b)
        result = duality_check(args.r, args.m, a, b)
        doc["inputs"] = {
            "identity": "rectangle",
            "r": args.r,
            "m": args.m,
            "a": [fmt(v) for v in a],
            "b": [fmt(v) for v in b],
        }
    doc["lhs"] = fmt(result.lhs)
    doc["rhs"] = fmt(result.rhs)
    doc["equal"] = result.equal
    return doc, EXIT_OK if result.equal else EXIT_MISMATCH


def cmd_report(args) -> tuple[dict, int]:
    rp = RingParams(args.d, args.q)
    forms = parse_forms(args.forms)
    u = len(forms) if args.u is None else args.u
    record = discrepancy_report(rp, args.k, SplitForms.split(forms, u))
    doc = {
        "schema": SCHEMA,
        "command": "report",
        "inputs": {
            "d": args.d,
            "q": args.q,
            "k": args.k,
            "u": u,
            "forms": [form_doc(f) for f in forms],
        },
        "det_direct": fmt(record["det_direct"]),
        "det_expansion": fmt(record["det_expansion"]),
        "expansion_terms": [term_doc(t) for t in record["expansion_terms"]],
        "det_closed_form": None
        if record["det_closed_form"] is None
        else fmt(record["det_closed_form"]),
        "literal_case_audit": [
            {**c, "value": fmt(c["value"])} for c in record["literal_case_audit"]
        ],
        "literal_case_error": record["literal_case_error"],
        "matches": record["matches"],
    }
    ok = record["matches"]["expansion"] and record["matches"]["closed_form"] is not False
    return doc, EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# output


def emit(doc: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    if output == "csv":
        rows = doc.get("rows")
        if rows is None:
            raise ValueError("csv output is only available for sweep")
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=[
                "d", "q", "k", "u", "seed", "trial",
                "det_direct", "det_expansion", "det_closed", "match",
            ],
            lineterminator="\n",
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("true" if v else "false") if isinstance(v, bool) else v
                 for k, v in row.items()}
            )
        sys.stdout.write(buf.getvalue())
        return
    # text: terse human summary, one fact per line
    skip = {"schema", "command", "cells", "rows", "terms", "expansion_terms"}
    sys.stdout.write(f"{doc['command']}\n")
    for key in sorted(doc):
        if key in skip:
            continue
        sys.stdout.write(f"  {key}: {json.dumps(doc[key], sort_keys=True)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefdet",
        description="Exact determinants of multiplication maps on K[x,y]/(x^(d+1), y^(q+1))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", choices=["json", "csv", "text"], default="json")

    p = sub.add_parser("det", help="one determinant by the chosen method")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--forms", default="", help="semicolon-separated pairs, e.g. 2,1;1,3")
    p.add_argument("--u", type=int, default=None, help="split point for the expansion")
    p.add_argument("--method", choices=["direct", "expansion", "closed"], default="direct")
    add_output(p)

    for name, help_text in (
        ("verify", "seeded cross-check sweep; exit 1 on any direct mismatch"),
        ("sweep", "same lattice as a flat per-trial table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dmax", type=int, default=6, help="largest d+q in the lattice")
        p.add_argument("--d", type=int, default=None, help="single-cell mode")
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--u", type=int, default=None)
        p.add_argument("--trials", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--allow-zero", action="store_true", dest="allow_zero",
                       help="allow zero coordinates in random forms")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored")
        add_output(p)

    p = sub.add_parser("slp", help="strong Lefschetz scan for one form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--forms", required=True, help="exactly one pair a,b")
    add_output(p)

    p = sub.add_parser("schur", help="the three Schur evaluators side by side")
    p.add_argument("--partition", required=True, help="e.g. [2,1]")
    p.add_argument("--values", default="", help="comma-separated rationals")
    add_output(p)

    p = sub.add_parser("duality", help="rectangular Schur identities")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="rectangle duality: 2m values per side")
    p.add_argument("--a", default="", help="rectangle duality numerators")
    p.add_argument("--b", default="", help="rectangle duality denominators")
    p.add_argument("--partition", default=None, help="complement identity: the shape")
    p.add_argument("--n", type=int, default=None, help="complement identity: box height")
    p.add_argument("--x", default="")
    p.add_argument("--y", default="")
    add_output(p)

    p = sub.add_parser("report", help="side-by-side record for one instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--forms", default="")
    add_output(p)

    return parser


COMMANDS = {
    "det": cmd_det,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "slp": cmd_slp,
    "schur": cmd_schur,
    "duality": cmd_duality,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = COMMANDS[args.command](args)
        emit(doc, args.output)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stdout.write(
            json.dumps({"schema": SCHEMA, "error": str(exc)}, sort_keys=True) + "\n"
        )
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
