"""The benchmark's four workloads: seeded inputs and independent output oracles.

Each workload turns a seed into a list of jobs (one program invocation each)
and checks a job's exit code and stdout outside the timed window.  The
oracles never reuse the route whose time is measured:

- verify-lattice: the CLI's own verdicts, plus Laplace expansion of the
  one-shot multiplication matrix on every trial against the printed Bareiss
  ``det_direct``;
- symbolic-lattice: the three routes agree as polynomials, and the direct
  polynomial evaluated at a seeded rational point equals ``det_direct`` on
  those rational forms;
- large-cells: ``match_direct``, the expansion term count against the
  binomial the harness computes, and ``det_closed_form`` against the printed
  expansion value;
- slp-scan: one determinant per ``k``, each equal to the closed form of the
  repeated form.  The closed form is evaluated once per ``(d, q)`` on the
  form ``x + y`` and carried to ``a x + b y`` by the torus automorphism
  ``x -> a x, y -> b y``, whose determinant on degree ``m`` is the product of
  ``a^i b^j`` over the basis monomials ``x^i y^j``; this keeps the oracle
  far cheaper than the scan it checks.

An item (a trial, a cell or one per-``k`` determinant) fails on a wrong exit
code, a mismatch, a failed oracle or unparsable output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from lefdet import (
    LinearForm,
    MultiPoly,
    RingParams,
    det_closed_form,
    det_direct,
    det_laplace,
    mult_matrix_block,
)
from symbolic import triples

PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Job:
    """One program invocation: ``entry`` is ``lefdet`` (the CLI) or
    ``symbolic`` (``perfbench/symbolic.py``, which calls the library API)."""

    entry: str
    args: tuple[str, ...]
    items: int

    def argv(self) -> list[str]:
        if self.entry == "lefdet":
            return ["-m", "lefdet", *self.args]
        return ["perfbench/symbolic.py", *self.args]

    def traced_argv(self, spans_path: str) -> list[str]:
        return ["perfbench/tracing.py", spans_path, self.entry, *self.args]


@dataclass
class Verdict:
    failed: int
    sizes: dict


def dim(d: int, q: int, k: int) -> int:
    """dim R_k of K[x,y]/(x^(d+1), y^(q+1)), computed independently of lefdet."""
    return min(d, k) - max(0, k - q) + 1 if 0 <= k <= d + q else 0


def seeded_form(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(a, b) = (+-p1/p2, +-p3/p4) for a random ordering of the primes 2, 3, 5, 7.

    Every form then has the same height (210), so the cost of a job depends
    on the seed only through signs and the placement of primes, not through
    the bit size of its inputs.
    """
    p = rng.sample(PRIMES, 4)
    return (
        Fraction(rng.choice((-1, 1)) * p[0], p[1]),
        Fraction(rng.choice((-1, 1)) * p[2], p[3]),
    )


def forms_arg(forms) -> str:
    """Forms always go as ``--forms=...``: a leading ``-`` after a separate
    ``--forms`` would be read by argparse as a flag."""
    return "--forms=" + ";".join(f"{a},{b}" for a, b in forms)


def bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _load(code: int, stdout: bytes):
    """The JSON document of a successful run, or None."""
    if code != 0:
        return None
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _cells_at(s: int) -> int:
    """Cells (d, q, k, u) with d+q = s: sum over q and k of the s-2k+1 splits."""
    return (s // 2) * sum(s - 2 * k + 1 for k in range(s // 2 + 1))


class VerifyLattice:
    """``lefdet verify`` over every cell with d+q <= dmax, with a worker pool."""

    workers = 2

    def __init__(self, dmax: int, trials: int):
        self.dmax = dmax
        self.trials = trials

    def jobs(self, seed: int, workers: int) -> list[Job]:
        cells = sum(_cells_at(s) for s in range(2, self.dmax + 1))
        args = ("verify", "--dmax", str(self.dmax), "--trials", str(self.trials),
                "--seed", str(seed), "--threads", str(workers))
        return [Job("lefdet", args, cells * self.trials)]

    def check(self, job: Job, code: int, stdout: bytes) -> Verdict:
        doc = _load(code, stdout)
        try:
            rows = [(cell, row) for cell in doc["cells"] for row in cell["trials"]]
            if len(rows) != job.items or doc["summary"]["trials"] != job.items:
                raise ValueError("wrong trial count")
            bad = {
                i for i, (_, row) in enumerate(rows)
                if not (row["match"] and row["det_direct"] == row["det_expansion"] == row["det_closed"])
            }
            if doc["summary"]["mismatches"] != len(bad):
                raise ValueError("summary disagrees with the trials")
            for i, (cell, row) in enumerate(rows):
                forms = [LinearForm(Fraction(a), Fraction(b)) for a, b in row["forms"]]
                block = mult_matrix_block(RingParams(cell["d"], cell["q"]), forms, cell["k"])
                if det_laplace(block) != Fraction(row["det_direct"]):
                    bad.add(i)
            sizes = {
                "cells": len(doc["cells"]),
                "trials": len(rows),
                "max_matrix_dim": max(dim(c["d"], c["q"], c["k"]) for c, _ in rows),
                "max_result_bits": max(bits(Fraction(r["det_direct"])) for _, r in rows),
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return Verdict(job.items, {})
        return Verdict(len(bad), sizes)


class SymbolicLattice:
    """The verify lattice over symbolic coefficients, through the library API."""

    workers = 1

    def __init__(self, smax: int):
        self.smax = smax

    def jobs(self, seed: int, workers: int) -> list[Job]:
        cells = sum(_cells_at(s) for s in range(2, self.smax + 1))
        return [Job("symbolic", ("--smax", str(self.smax), "--seed", str(seed)), cells)]

    def check(self, job: Job, code: int, stdout: bytes) -> Verdict:
        doc = _load(code, stdout)
        try:
            rng = random.Random(" ".join(job.args))
            failed = 0
            seen = set()
            for rec in doc["triples"]:
                d, q, k = rec["d"], rec["q"], rec["k"]
                seen.add((d, q, k))
                n = d + q - 2 * k
                poly = MultiPoly(2 * n, {tuple(e): Fraction(c) for e, c in rec["det_direct"]})
                point = [_nonzero_rational(rng) for _ in range(2 * n)]
                forms = [LinearForm(point[i], point[n + i]) for i in range(n)]
                if rec["closed_equal"] is not True or poly.eval(point) != det_direct(
                    RingParams(d, q), k, forms
                ):
                    failed += n + 1
                elif len(rec["expansion_equal"]) != n + 1:
                    raise ValueError("wrong split count")
                else:
                    failed += rec["expansion_equal"].count(False)
            expected = set(triples(self.smax))
            if seen != expected or len(doc["triples"]) != len(expected):
                raise ValueError("wrong cell set")
            sizes = {
                "cells": job.items,
                "triples": len(seen),
                "max_matrix_dim": max(dim(*t) for t in seen),
                "max_result_terms": max(len(r["det_direct"]) for r in doc["triples"]),
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return Verdict(job.items, {})
        return Verdict(failed, sizes)


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


class LargeCells:
    """``lefdet det --method expansion`` on a few deep rational cells."""

    workers = 1

    def __init__(self, cells):
        self.cells = tuple(cells)

    def jobs(self, seed: int, workers: int) -> list[Job]:
        rng = random.Random(f"large-cells:{seed}")
        out = []
        for d, q, k, u in self.cells:
            forms = [seeded_form(rng) for _ in range(d + q - 2 * k)]
            args = ("det", "--d", str(d), "--q", str(q), "--k", str(k), "--u", str(u),
                    "--method", "expansion", forms_arg(forms))
            out.append(Job("lefdet", args, 1))
        return out

    def check(self, job: Job, code: int, stdout: bytes) -> Verdict:
        doc = _load(code, stdout)
        try:
            inputs = doc["inputs"]
            d, q, k, u = inputs["d"], inputs["q"], inputs["k"], inputs["u"]
            forms = [LinearForm(Fraction(a), Fraction(b)) for a, b in inputs["forms"]]
            if forms_arg((f.a, f.b) for f in forms) != job.args[-1]:
                raise ValueError("inputs not echoed")
            size = dim(d, q, k)
            lo, hi = max(0, k + u - d), min(k + u, q)
            value = Fraction(doc["det"])
            ok = (
                doc["match_direct"] is True
                and len(doc["terms"]) == comb(hi - lo + 1, size)
                and det_closed_form(RingParams(d, q), k, forms) == value
            )
            sizes = {
                "cells": 1,
                "terms": len(doc["terms"]),
                "max_matrix_dim": size,
                "max_result_bits": bits(value),
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return Verdict(job.items, {})
        return Verdict(0 if ok else 1, sizes)


# The cost of one scan depends on the magnitudes of a and b (at d=60, q=40
# the slowest form seen took 1.5 times as long as the fastest), so an
# slp-scan pass uses these magnitudes for every seed and the seed chooses the
# signs and the order of the forms.
SLP_MAGNITUDES = (
    (Fraction(7, 2), Fraction(5, 3)),
    (Fraction(3, 2), Fraction(7, 5)),
)


class SlpScan:
    """``lefdet slp`` on one large ring for a few seeded forms."""

    workers = 1

    def __init__(self, d: int, q: int):
        self.d, self.q = d, q
        self._unit: list[Fraction] | None = None

    def jobs(self, seed: int, workers: int) -> list[Job]:
        rng = random.Random(f"slp-scan:{seed}")
        order = rng.sample(SLP_MAGNITUDES, len(SLP_MAGNITUDES))
        per_form = (self.d + self.q) // 2 + 1
        return [
            Job("lefdet", ("slp", "--d", str(self.d), "--q", str(self.q),
                           forms_arg([(rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * b)])),
                per_form)
            for a, b in order
        ]

    def unit_dets(self) -> list[Fraction]:
        """Closed-form determinants for the form x + y, one per k."""
        if self._unit is None:
            rp = RingParams(self.d, self.q)
            one = LinearForm(Fraction(1), Fraction(1))
            self._unit = [
                Fraction(det_closed_form(rp, k, [one] * (self.d + self.q - 2 * k)))
                for k in range((self.d + self.q) // 2 + 1)
            ]
        return self._unit

    def torus(self, m: int, a: Fraction, b: Fraction) -> Fraction:
        """Determinant of x -> a x, y -> b y on degree m: prod of a^i b^(m-i)."""
        lo, hi = max(0, m - self.q), min(self.d, m)
        xs = sum(range(lo, hi + 1))
        return a**xs * b ** ((hi - lo + 1) * m - xs)

    def check(self, job: Job, code: int, stdout: bytes) -> Verdict:
        doc = _load(code, stdout)
        try:
            a, b = (Fraction(c) for c in doc["inputs"]["form"])
            if forms_arg([(a, b)]) != job.args[-1]:
                raise ValueError("inputs not echoed")
            per_k = doc["per_k"]
            if len(per_k) != job.items:
                raise ValueError("wrong number of determinants")
            socle = self.d + self.q
            failed = 0
            values = []
            for k, entry in enumerate(per_k):
                value = Fraction(entry["det"])
                values.append(value)
                want = self.unit_dets()[k] * self.torus(socle - k, a, b) / self.torus(k, a, b)
                if entry["k"] != k or value != want or entry["nonzero"] is not (value != 0):
                    failed += 1
            if doc["slp"] is not all(values):
                failed = job.items
            sizes = {
                "determinants": len(values),
                "max_matrix_dim": max(dim(self.d, self.q, k) for k in range(len(values))),
                "max_result_bits": max(bits(v) for v in values),
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return Verdict(job.items, {})
        return Verdict(failed, sizes)


# Sizes keep every job near or under a second and every pass at one or two
# jobs (2 vCPUs), so that one run repeats each job often enough for its
# median to be reproducible.
WORKLOADS = {
    "verify-lattice": VerifyLattice(dmax=7, trials=5),
    "symbolic-lattice": SymbolicLattice(smax=8),
    "large-cells": LargeCells([(24, 24, 12, 2), (26, 18, 9, 3)]),
    "slp-scan": SlpScan(d=40, q=30),
}

# The same workloads at sizes that run in about a second, for the harness tests.
SMOKE = {
    "verify-lattice": VerifyLattice(dmax=5, trials=2),
    "symbolic-lattice": SymbolicLattice(smax=5),
    "large-cells": LargeCells([(6, 4, 2, 1), (5, 5, 2, 2)]),
    "slp-scan": SlpScan(d=8, q=5),
}
