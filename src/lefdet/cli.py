"""Command-line front end.

Subcommands: ``det`` (one determinant by any method), ``verify`` (seeded
cross-check sweep with exit-code semantics), ``sweep`` (the same lattice as a
flat per-trial table), ``slp`` (strong Lefschetz scan, by the hook-content
product of ``det_power``), ``schur`` (the three Schur evaluators side by
side), ``duality`` (rectangular Schur identities), ``report`` (full
side-by-side record for one instance).  ``verify``, ``sweep``, ``report`` and
``det --method expansion|closed`` format every route from the one
``CellRecord`` that ``discrepancy_report`` builds per cell, which runs every
route in ``int`` on the cell's scaled forms; ``det --method direct`` gives no
verdict and reduces the forms as given.

All rationals in output are strings ``p`` or ``p/q`` in lowest terms; there
is no floating point anywhere.  ``verify`` and ``sweep`` evaluate cells in
order in one thread, each by a pure function keyed on (seed, cell
coordinates), so output for a fixed seed is byte-identical from run to run.
``--threads`` is accepted for compatibility and ignored.

One rule for failures.  Each subcommand returns its document body and its
failure: ``None``, or the pair (what, command) for the first verified
disagreement it found.  The command is the argv after ``lefdet`` that exits
1 on the same fault, as a tuple, or ``None`` when the invocation is its own
reproducer.  ``main`` alone adds the ``schema``/``command`` envelope, writes
the document and, for a failure, then writes the one stderr line ``lefdet:
{what}; reproduce with: lefdet {command}``, the command quoted by
``shlex.join``, and exits 1.  A mismatching ``verify`` or ``sweep`` trial
names the ``report`` command for that trial, and then no anchor runs; a
``det --method expansion|closed`` whose routes disagree names the ``report``
command for its cell, which prints every route; a
failed anchor names the ``verify --d D --q Q --k K --u U --trials 1``
command for its cell (``summary.mismatches`` counts trials, so it stays 0).
Exit codes:
0 no failure, 1 a failure and nothing else, 2 usage error (argparse's own
included), an arithmetic fault (a failed exactness check) or any other
exception raised inside a subcommand, reported as an error document on
stdout with nothing on stderr; ``SystemExit`` and ``KeyboardInterrupt`` pass
through.  Literal-case audit findings never change the exit code.

Anchors.  ``verify``, ``sweep``, ``report`` and ``det --method
expansion|closed`` anchor every cell (d, q, k, u) they give a verdict on,
through ``failed_anchor``, which runs ``formulas.degree_anchor`` once per
ring degree (d, q, k): at d+q-2k copies of ``ANCHOR_FORM`` = 4/3 x - 10/7 y,
the direct route, the expansion at u and the closed form must each equal
``det_power``, the hook-content product, which takes no determinant, builds
no E-table and never calls ``scaled_forms``.  Every route of a record reduces through the
same ``linalg.det`` and the same scaled cell, so a determinant kernel that
returns 0, or a scaling fault, makes all of them agree on every trial; the
anchor still sees it.  The form's scale factor (2/21)^((d+q-2k)*dim(R_k))
has a denominator half and a gcd half that are both not 1.  ``det`` anchors
its own split, which for ``--method closed`` is u = d+q-2k, where the
expansion has one term.  ``report`` and ``det --method expansion|closed``
share one verdict, ``judged``: a route of the cell's record that differs from
the direct one, else a failed anchor.  ``report`` reproduces a route failure
with its own invocation.  An expansion's value is the sum of its terms, so
the verdict reads the very terms that ``det`` and ``report`` print.  A record
whose literal audit is ``None`` (a vanishing group product) prints as
``"undefined"`` in ``verify`` and as ``literal_case_error`` in ``report``.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import groupby

from .formulas import (
    ANCHOR_FORM,
    SplitForms,
    complement_identity_check,
    degree_anchor,
    discrepancy_report,
    duality_check,
    slp_check,
)
from .mpoly import parse_int
from .partitions import Partition
from .ring import LinearForm, RingParams, det_direct
from .symfunc import schur, schur_bialternant, schur_tableaux

SCHEMA = "lefdet/1"
# str of an int this size stays inside Python's default 4,300-digit limit
STR_BITS = 14_000
RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# report's note for a record whose literal audit is None
LITERAL_UNDEFINED = "literal case formula undefined: a group product vanishes"

# what failed, and the argv after ``lefdet`` that reproduces it (None: the invocation itself)
Failure = tuple[str, tuple[str, ...] | None]

# one row of ``sweep``: its JSON keys and, in this order, its CSV columns
SWEEP_COLUMNS = (
    "d", "q", "k", "u", "seed", "trial", "det_direct", "det_expansion", "det_closed", "match",
)


# ---------------------------------------------------------------------------
# parsing and formatting


def parse_rational(text: str) -> Fraction:
    """Only ``p`` or ``p/q`` in ASCII digits; ``Fraction`` alone would expand ``1e999999999``."""
    text = text.strip()
    if not RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"bad rational {text!r}: need p or p/q in ASCII digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
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


def decimal_digits(n: int) -> str:
    """``str(n)`` for an ``int`` of any size, in subquadratic time.

    Up to ``STR_BITS`` bits this is ``str``.  A larger value splits on a power
    of two, and the halves recombine in ``decimal`` under an exact context,
    whose multiplication is subquadratic (the method of CPython 3.12's
    ``Lib/_pylong.py``); ``str`` of an ``int`` is quadratic, and past 4,300
    digits Python 3.10.7+ refuses it.
    """
    if n.bit_length() <= STR_BITS:
        return str(n)
    powers = {}

    def power_of_two(w):
        if w not in powers:
            powers[w] = (Decimal(2) ** w if w <= STR_BITS
                         else power_of_two(w >> 1) * power_of_two(w - (w >> 1)))
        return powers[w]

    def convert(n, w):
        if w <= STR_BITS:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power_of_two(half)

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.traps[Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def fmt(value) -> str:
    """``p`` or ``p/q`` in lowest terms, of any size, for an ``int`` or ``Fraction``.

    Both types carry ``numerator`` and ``denominator`` (an ``int``'s is 1),
    so neither is rebuilt.  ``decimal_digits`` converts the numerator and
    denominator, so Python's int-to-str digit limit stays in force
    throughout; it bounds the quadratic str -> int that parsing argv runs.
    """
    if value.denominator == 1:
        return decimal_digits(value.numerator)
    return f"{decimal_digits(value.numerator)}/{decimal_digits(value.denominator)}"


def form_doc(form: LinearForm) -> list[str]:
    return [fmt(form.a), fmt(form.b)]


def term_doc(term) -> dict:
    return {
        "delta": list(term.delta),
        "lam": str(term.lam),
        "nu": str(term.nu),
        "value": fmt(term.value),
    }


def audit_doc(case, direct) -> dict:
    """One literal audit case, flagged against the direct determinant."""
    return {"case": case.case_id, "value": fmt(case.value), "matches_direct": case.value == direct}


# ---------------------------------------------------------------------------
# seeded randomness: one independent generator per (seed, cell) coordinate


def cell_rng(seed: int, *coords) -> random.Random:
    import hashlib  # here, not at the top: loading OpenSSL would slow every command's start-up

    key = ":".join([str(seed)] + [str(c) for c in coords])
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_NONZERO_DIGITS = [n for n in range(-9, 10) if n]


def random_rational(rng: random.Random, allow_zero: bool = False) -> Fraction:
    num = rng.randint(-9, 9) if allow_zero else rng.choice(_NONZERO_DIGITS)
    den = rng.choice(_NONZERO_DIGITS)
    return Fraction(num, den)


def random_form(rng: random.Random, allow_zero: bool = False) -> LinearForm:
    while True:
        a = random_rational(rng, allow_zero)
        b = random_rational(rng, allow_zero)
        if a or b:
            return LinearForm(a, b)


# ---------------------------------------------------------------------------
# sweep lattice


def ring_cells(d: int, q: int) -> list[tuple[int, int, int, int]]:
    """Every (d, q, k, u) of one ring: 0 <= k <= (d+q)/2, 0 <= u <= d+q-2k, sorted."""
    s = d + q
    return [(d, q, k, u) for k in range(s // 2 + 1) for u in range(s - 2 * k + 1)]


def lattice_cells(smax: int) -> list[tuple[int, int, int, int]]:
    """All (d, q, k, u) with d >= q >= 1, d+q <= smax, sorted."""
    return [
        cell
        for s in range(2, smax + 1)
        for q in range(1, s // 2 + 1)
        for cell in ring_cells(s - q, q)
    ]


def eval_cell(seed: int, cell: tuple[int, int, int, int], trials: int, allow_zero: bool) -> dict:
    """The cell's document, one row per trial."""
    d, q, k, u = cell
    rp = RingParams(d, q)
    n = d + q - 2 * k
    rows = []
    for t in range(trials):
        rng = cell_rng(seed, d, q, k, u, t)
        forms = [random_form(rng, allow_zero) for _ in range(n)]
        record = discrepancy_report(rp, k, SplitForms.split(forms, u))
        rows.append(
            {
                "trial": t,
                "forms": [form_doc(f) for f in forms],
                "det_direct": fmt(record.direct),
                "det_expansion": fmt(record.expansion.value),
                "det_closed": fmt(record.closed),
                "match": record.agrees,
                "literal_case_audit": "undefined"
                if record.literal is None
                else [audit_doc(c, record.direct) for c in record.literal],
            }
        )
    return {"d": d, "q": q, "k": k, "u": u, "trials": rows}


def cell_flags(d: int, q: int, k: int, u: int) -> tuple[str, ...]:
    return "--d", str(d), "--q", str(q), "--k", str(k), "--u", str(u)


def report_command(d: int, q: int, k: int, u: int, forms) -> tuple[str, ...]:
    """The ``report`` argv for one cell, given its forms as ``form_doc`` pairs."""
    text = ";".join(",".join(pair) for pair in forms)
    return "report", *cell_flags(d, q, k, u), f"--forms={text}"


def cell_name(d: int, q: int, k: int, u: int) -> str:
    return f"(d,q,k,u) = ({d},{q},{k},{u})"


def failed_anchor(cells) -> Failure | None:
    """The failure of the first cell (d, q, k, u), in order, whose anchor fails, or None.

    ``degree_anchor`` runs once for each run of consecutive cells that share
    (d, q, k); the lattice's sort makes each degree one run.  The failure
    names the ``verify`` argv that runs that cell's anchor again.
    """
    for (d, q, k), degree in groupby(cells, key=lambda cell: cell[:3]):
        splits = [u for *_, u in degree]
        for u, holds in zip(splits, degree_anchor(RingParams(d, q), k, splits)):
            if not holds:
                return (f"anchor failed at {cell_name(d, q, k, u)}: the routes at "
                        f"{d + q - 2 * k} copies of the form {','.join(form_doc(ANCHOR_FORM))} "
                        f"do not all give det_power",
                        ("verify", *cell_flags(d, q, k, u), "--trials", "1"))
    return None


# ---------------------------------------------------------------------------
# subcommands


def read_cell(args) -> tuple[RingParams, SplitForms, dict]:
    """The ring, the split forms and the inputs document from the cell flags
    of ``det`` and ``report``; the split defaults to all forms in the check group."""
    rp = RingParams(args.d, args.q)
    forms = parse_forms(args.forms)
    sf = SplitForms.split(forms, len(forms) if args.u is None else args.u)
    inputs = {"d": args.d, "q": args.q, "k": args.k, "forms": [form_doc(f) for f in forms]}
    return rp, sf, inputs


def judged(record, cell, command=None) -> Failure | None:
    """The failure of ``det`` and ``report`` on the record of their one cell
    (d, q, k, u): a route that misses the direct one, reproduced by
    ``command``, or else the cell's failed anchor."""
    if not record.agrees:
        return f"the routes at {cell_name(*cell)} do not all give det_direct", command
    return failed_anchor([cell])


def cmd_det(args) -> tuple[dict, Failure | None]:
    if args.u is not None and args.method != "expansion":
        raise ValueError(f"--u splits the expansion; --method {args.method} takes no split")
    rp, sf, inputs = read_cell(args)
    body = {"inputs": {**inputs, "method": args.method}}
    if args.method == "direct":
        # no verdict to anchor: the forms as given
        body["det"] = fmt(det_direct(rp, args.k, sf.all_forms))
        return body, None
    record = discrepancy_report(rp, args.k, sf)
    if args.method == "closed":
        value = record.closed
    else:
        body["inputs"]["u"] = sf.u
        value = record.expansion.value
        body["terms"] = [term_doc(term) for term in record.expansion.terms]
    body["det"] = fmt(value)
    body["match_direct"] = value == record.direct
    cell = args.d, args.q, args.k, sf.u
    # the report of the cell prints every route, the one that missed included
    return body, judged(record, cell, report_command(*cell, inputs["forms"]))


def _sweep_cells(args) -> list[tuple[int, int, int, int]]:
    """The lattice up to --dmax, or the cells of one ring that --k and --u select."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.d is None:
        stray = [f"--{name}" for name in "qku" if getattr(args, name) is not None]
        if stray:
            raise ValueError(f"{', '.join(stray)} without --d: single-cell flags need --d")
        dmax = 6 if args.dmax is None else args.dmax
        if dmax < 2:
            raise ValueError(f"--dmax {dmax} gives no cells; need --dmax >= 2")
        return lattice_cells(dmax)
    if args.q is None:
        raise ValueError("--q is required with --d")
    RingParams(args.d, args.q)  # a bad ring fails its own rule, not as "selects no cell"
    cells = [
        cell for cell in ring_cells(args.d, args.q)
        if args.k in (None, cell[2]) and args.u in (None, cell[3])
    ]
    if not cells:
        picked = " ".join(f"--{name} {getattr(args, name)}" for name in "dqku"
                          if getattr(args, name) is not None)
        raise ValueError(
            f"{picked} selects no cell: need 0 <= k <= (d+q)/2 and 0 <= u <= d+q-2k"
        )
    return cells


def run_sweep(args) -> tuple[dict, list[dict], int, Failure | None]:
    """Evaluate the cells that ``verify`` or ``sweep`` selects.

    Returns the inputs document, one result per cell, the number of
    mismatching trials and the failure: the first mismatching trial, with the
    ``report`` argv that recomputes it, or else the first failed
    anchor.
    """
    cells = _sweep_cells(args)
    results = [eval_cell(args.seed, cell, args.trials, args.allow_zero) for cell in cells]
    mismatches = [(cell, row) for cell in results for row in cell["trials"] if not row["match"]]
    if mismatches:
        cell, row = mismatches[0]
        d, q, k, u = cell["d"], cell["q"], cell["k"], cell["u"]
        failure = (f"first mismatch at (d,q,k,u,trial) = ({d},{q},{k},{u},{row['trial']})",
                   report_command(d, q, k, u, row["forms"]))
    else:
        failure = failed_anchor(cells)
    inputs = {"seed": args.seed, "trials": args.trials, "allow_zero": args.allow_zero}
    return inputs, results, len(mismatches), failure


def cmd_verify(args) -> tuple[dict, Failure | None]:
    inputs, results, mismatches, failure = run_sweep(args)
    literal_flagged = sorted(
        {
            (cell["d"], cell["q"], cell["k"], cell["u"])
            for cell in results
            for row in cell["trials"]
            if isinstance(row["literal_case_audit"], list)
            and any(not case["matches_direct"] for case in row["literal_case_audit"])
        }
    )
    body = {
        "inputs": {**inputs, "cells": len(results)},
        "cells": results,
        "summary": {
            "trials": len(results) * args.trials,
            "mismatches": mismatches,
            "literal_case_flagged_cells": [list(c) for c in literal_flagged],
        },
    }
    return body, failure


def cmd_sweep(args) -> tuple[dict, Failure | None]:
    inputs, results, mismatches, failure = run_sweep(args)
    rows = []
    for cell in results:
        for row in cell["trials"]:
            source = {**cell, "seed": args.seed, **row}
            rows.append({key: source[key] for key in SWEEP_COLUMNS})
    body = {
        "inputs": inputs,
        "rows": rows,
        "summary": {"rows": len(rows), "mismatches": mismatches},
    }
    return body, failure


def cmd_slp(args) -> tuple[dict, Failure | None]:
    rp = RingParams(args.d, args.q)
    forms = parse_forms(args.forms)
    if len(forms) != 1:
        raise ValueError("slp needs exactly one form")
    report = slp_check(rp, forms[0])
    body = {
        "inputs": {"d": args.d, "q": args.q, "form": form_doc(forms[0])},
        "per_k": [
            {"k": e.k, "det": fmt(e.det), "nonzero": e.nonzero} for e in report.entries
        ],
        "slp": report.holds,
    }
    return body, None


def cmd_schur(args) -> tuple[dict, Failure | None]:
    lam = Partition.from_text(args.partition)
    values = parse_values(args.values)
    if not values:
        raise ValueError("schur needs at least one value: over none, every evaluator "
                         "returns its convention (1 or 0) and compares nothing")
    body = {"inputs": {"partition": str(lam), "values": [fmt(v) for v in values]}}
    results = {}
    results["jacobi_trudi_of_conjugate"] = fmt(schur(lam, values))
    for key, fn in (("bialternant", schur_bialternant), ("tableaux", schur_tableaux)):
        try:
            results[key] = fmt(fn(lam, values))
        except ValueError as exc:
            results[key] = None
            body[f"{key}_error"] = str(exc)
    computed = [v for v in results.values() if v is not None]
    if len(computed) < 2:
        raise ValueError("schur needs two defined evaluators to compare, got one; "
                         + "; ".join(f"{key}: {body[key + '_error']}" for key in results
                                     if results[key] is None))
    body.update(results)
    body["agree"] = len(set(computed)) == 1
    return body, None if body["agree"] else ("the Schur evaluators disagree", None)


def cmd_duality(args) -> tuple[dict, Failure | None]:
    complement = args.partition is not None
    stray = [f"--{name}" for name in ("mab" if complement else "nxy")
             if getattr(args, name) is not None]
    if stray:
        identity = "the complement identity" if complement else "the rectangle duality"
        raise ValueError(f"{', '.join(stray)} do not apply to {identity}")
    body = {}
    if complement:
        if args.n is None:
            raise ValueError("--n is required for the complement identity")
        lam = Partition.from_text(args.partition)
        x = parse_values(args.x or "")
        y = parse_values(args.y or "")
        result = complement_identity_check(lam, args.r, args.n, x, y)
        body["inputs"] = {
            "identity": "complement",
            "partition": str(lam),
            "r": args.r,
            "n": args.n,
            "x": [fmt(v) for v in x],
            "y": [fmt(v) for v in y],
        }
        body["mu"] = str(result.mu)
    else:
        if args.m is None:
            raise ValueError("--m is required for the rectangle duality")
        a = parse_values(args.a or "")
        b = parse_values(args.b or "")
        result = duality_check(args.r, args.m, a, b)
        body["inputs"] = {
            "identity": "rectangle",
            "r": args.r,
            "m": args.m,
            "a": [fmt(v) for v in a],
            "b": [fmt(v) for v in b],
        }
    body["lhs"] = fmt(result.lhs)
    body["rhs"] = fmt(result.rhs)
    body["equal"] = result.equal
    return body, None if result.equal else (
        f"the {body['inputs']['identity']} identity does not hold", None)


def cmd_report(args) -> tuple[dict, Failure | None]:
    rp, sf, inputs = read_cell(args)
    record = discrepancy_report(rp, args.k, sf)
    body = {
        "inputs": {**inputs, "u": sf.u},
        "det_direct": fmt(record.direct),
        "det_expansion": fmt(record.expansion.value),
        "expansion_terms": [term_doc(t) for t in record.expansion.terms],
        "det_closed_form": fmt(record.closed),
        "literal_case_audit": [
            {
                **audit_doc(c, record.direct),
                "condition": c.condition,
                "skipped_terms": c.skipped_terms,
            }
            for c in record.literal or ()
        ],
        "literal_case_error": LITERAL_UNDEFINED if record.literal is None else None,
        "matches": {"expansion": record.expansion_matches, "closed_form": record.closed_matches},
    }
    return body, judged(record, (args.d, args.q, args.k, sf.u))


# ---------------------------------------------------------------------------
# output


def emit(doc: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    if output == "csv":
        import csv  # here, not at the top: only --output csv needs it

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in doc["rows"]:
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


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so that ``main`` reports them as error documents."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lefdet",
        description="Exact determinants of multiplication maps on K[x,y]/(x^(d+1), y^(q+1))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, choices=("json", "text")):
        p.add_argument("--output", choices=choices, default="json")

    def add_cell(p):
        # the cell flags of det and report, read back by read_cell
        p.add_argument("--d", type=parse_int, required=True)
        p.add_argument("--q", type=parse_int, required=True)
        p.add_argument("--k", type=parse_int, required=True)
        p.add_argument("--u", type=parse_int, default=None,
                       help="split point of the expansion (default: all forms in the check group)")
        p.add_argument("--forms", default="", help="semicolon-separated pairs, e.g. 2,1;1,3")

    p = sub.add_parser("det", help="one determinant by the chosen method")
    add_cell(p)
    p.add_argument("--method", choices=["direct", "expansion", "closed"], default="direct")
    add_output(p)

    for name, help_text, outputs in (
        ("verify", "seeded cross-check sweep; exit 1 on any direct mismatch or failed anchor",
         ("json", "text")),
        ("sweep", "same lattice as a flat per-trial table", ("json", "csv", "text")),
    ):
        p = sub.add_parser(name, help=help_text)
        cells = p.add_mutually_exclusive_group()
        cells.add_argument("--dmax", type=parse_int, default=None,
                           help="largest d+q in the lattice (default 6)")
        cells.add_argument("--d", type=parse_int, default=None,
                           help="single-cell mode: the cells of one ring, filtered by --k and --u")
        p.add_argument("--q", type=parse_int, default=None)
        p.add_argument("--k", type=parse_int, default=None)
        p.add_argument("--u", type=parse_int, default=None)
        p.add_argument("--trials", type=parse_int, default=5)
        p.add_argument("--seed", type=parse_int, default=0)
        p.add_argument("--allow-zero", action="store_true", dest="allow_zero",
                       help="allow zero coordinates in random forms")
        p.add_argument("--threads", type=parse_int, default=None,
                       help="accepted for compatibility and ignored")
        add_output(p, outputs)

    p = sub.add_parser("slp", help="strong Lefschetz scan for one form")
    p.add_argument("--d", type=parse_int, required=True)
    p.add_argument("--q", type=parse_int, required=True)
    p.add_argument("--forms", required=True, help="exactly one pair a,b")
    add_output(p)

    p = sub.add_parser("schur", help="the three Schur evaluators side by side")
    p.add_argument("--partition", required=True, help="e.g. [2,1]")
    p.add_argument("--values", default="", help="comma-separated rationals")
    add_output(p)

    p = sub.add_parser("duality", help="rectangular Schur identities")
    p.add_argument("--r", type=parse_int, required=True)
    p.add_argument("--m", type=parse_int, default=None,
                   help="rectangle duality: 2m values per side")
    p.add_argument("--a", default=None, help="rectangle duality numerators")
    p.add_argument("--b", default=None, help="rectangle duality denominators")
    p.add_argument("--partition", default=None, help="complement identity: the shape")
    p.add_argument("--n", type=parse_int, default=None, help="complement identity: box height")
    p.add_argument("--x", default=None, help="complement identity numerators")
    p.add_argument("--y", default=None, help="complement identity denominators")
    add_output(p)

    p = sub.add_parser("report", help="side-by-side record for one instance")
    add_cell(p)
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
    try:
        args = build_parser().parse_args(argv)
        body, failure = COMMANDS[args.command](args)
        emit({"schema": SCHEMA, "command": args.command, **body}, args.output)
    except Exception as exc:
        # exit 1 is kept for a verified mismatch: any other fault is an error document
        message = str(exc) if isinstance(exc, (ValueError, ArithmeticError)) else repr(exc)
        sys.stdout.write(
            json.dumps({"schema": SCHEMA, "error": message}, sort_keys=True) + "\n"
        )
        return EXIT_USAGE
    if failure is None:
        return EXIT_OK
    import shlex  # here, not at the top: only a failure line needs it

    what, command = failure
    if command is None:
        command = sys.argv[1:] if argv is None else argv
    sys.stderr.write(f"lefdet: {what}; reproduce with: {shlex.join(['lefdet', *command])}\n")
    return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
