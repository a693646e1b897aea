"""Mutation gate: every listed mutant must make its ``lefdet`` commands fail.

    python3 tools/mutants.py

Copies ``src`` to a temporary directory and runs each gate command there on
the unmutated copy, where each must exit 0.  Then, once per row of
``MUTANTS`` with that row's edit applied, it runs the row's commands, each of
which must exit 1 and name the reproduce command on stderr.  Most rows run
``VERIFY`` alone (``OWN``).  A row marked ``SHARED`` breaks what every route
of a record shares (the determinant kernel, or the scale factor of the cell
evaluator that builds both the record and the anchor), so only an
anchor can see it; the gate also runs ``REPORT``, ``DET_CLOSED`` and
``DET_EXPANSION`` on it, each of which runs its one cell's full anchor, as
``VERIFY`` does for each of its cells.  The row marked ``FRACTION`` breaks
only Bareiss on ``Fraction`` entries, which the record and the anchor never
build, since they run in ``int``; it runs ``SCHUR``, whose evaluators reduce
the rational values as given.  That makes 26 rows: 16 ``OWN``, 9 ``SHARED``
(run on four commands each) and 1 ``FRACTION``.  A row's ``old``
text must occur exactly once in its file, so a row that no longer matches
the source fails loudly instead of testing nothing.  Children run with
``-B``: a cached ``.pyc`` is keyed on the source's size and whole-second
mtime, so bytecode written for the unmutated copy could otherwise stand in
for a same-length mutant written within the same second.  Exit 0 when every mutant is killed,
1 otherwise.  Standard library only; each run of ``VERIFY`` takes under half
a second on a 2-vCPU host.

    python3 tools/mutants.py --scan

prints the full operator-swap table instead, and is not a CI step (452
mutants, about 45 s on a 2-vCPU host).  Over ``SCAN_FILES`` it swaps each
binary ``+``/``-`` and ``*``/``//`` (augmented assignments too), flips each
comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``) and raises each
``int`` literal by one, runs ``VERIFY`` on each mutant and prints one line
per mutant:
``killed`` (exit 1 with the reproduce line), ``error`` (exit 2, an error
document), ``SURVIVED`` (exit 0), or the exit code or ``timeout``.  Each
mutant replaces one source span of the original text, found through ``ast``
positions and ``tokenize``; nothing is re-rendered, so every other byte,
and every ``MUTANTS`` row text, stays as it is.  Exit 0 unless the
unmutated source fails.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ["-m", "lefdet", "verify", "--dmax", "6", "--trials", "3", "--seed", "1"]
REPORT = ["-m", "lefdet", "report", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
          "--forms", "2,1;1,3"]
DET_CLOSED = ["-m", "lefdet", "det", "--d", "2", "--q", "2", "--k", "1", "--method", "closed",
              "--forms", "2,1;1,3"]
DET_EXPANSION = ["-m", "lefdet", "det", "--d", "3", "--q", "2", "--k", "1", "--u", "2",
                 "--method", "expansion", "--forms=2/3,1;1,3;-5/2,7"]
# rational values that every Schur evaluator reduces as given, in Fraction
SCHUR = ["-m", "lefdet", "schur", "--partition", "[2,1]", "--values", "1/2,-3,5"]

# the commands a row must make exit 1 with the reproduce line
OWN = (VERIFY,)
SHARED = (VERIFY, REPORT, DET_CLOSED, DET_EXPANSION)
FRACTION = (SCHUR,)

# (file under src, old text, new text, what the mutant breaks, commands)
MUTANTS = [
    (
        "lefdet/symfunc.py",
        "for a_i, b_i in zip(self.a, self.b):",
        "for b_i, a_i in zip(self.a, self.b):",
        "a<->b swap in the E-table: every closed form evaluates b x + a y",
        OWN,
    ),
    (
        "lefdet/symfunc.py",
        "table.append(a_i * table[-1])",
        "table.append(b_i * table[-1])",
        "E-table's new top entry is b_i, not a_i, times the old top: E_n reads prod b",
        OWN,
    ),
    (
        "lefdet/symfunc.py",
        "b_i * table[j] + a_i * table[j - 1]",
        "b_i * table[j] + 2 * a_i * table[j - 1]",
        "E-table weights a_i twice: E_m picks up a factor 2^m",
        OWN,
    ),
    (
        "lefdet/linalg.py",
        "        content *= g\n        a.append(",
        "        a.append(",
        "Bareiss drops the row contents it divided out",
        OWN,
    ),
    (
        "lefdet/linalg.py",
        "a[col], a[pivot_row] = a[pivot_row], a[col]\n            sign = -sign",
        "a[col], a[pivot_row] = a[pivot_row], a[col]",
        "Bareiss swaps rows without flipping the sign",
        OWN,
    ),
    (
        "lefdet/ring.py",
        "power = dim(rp, k)",
        "power = dim(rp, k) - 1",
        "scale factor raised to dim(R_k) - 1 instead of dim(R_k)",
        SHARED,
    ),
    (
        "lefdet/ring.py",
        "Fraction(gcds**power, dens**power)",
        "Fraction(dens**power, gcds**power)",
        "scale factor inverted: multiplies by the scaling instead of undoing it",
        SHARED,
    ),
    (
        "lefdet/formulas.py",
        "closed = det_closed_form(rp, k, scaled) * factor",
        "closed = det_closed_form(rp, k, scaled) * factor * factor",
        "the cell evaluator applies the scale factor to its closed form twice",
        OWN,
    ),
    (
        "lefdet/formulas.py",
        "direct = det_direct(rp, k, scaled) * factor",
        "direct = det_direct(rp, k, scaled) * factor * factor",
        "the cell evaluator applies the scale factor to its direct route twice",
        OWN,
    ),
    (
        "lefdet/formulas.py",
        "return rp.d - k, k + 1",
        "return rp.d - k + 1, k + 1",
        "closed form's rectangle one column too wide for k <= q",
        OWN,
    ),
    (
        "lefdet/formulas.py",
        "return rp.socle - 2 * k, rp.q + 1",
        "return rp.socle - 2 * k + 1, rp.q + 1",
        "closed form's rectangle one column too wide for k > q",
        OWN,
    ),
    (
        "lefdet/ring.py",
        "shift = i - j",
        "shift = i - j + 1",
        "direct block reads each product coefficient one place off",
        OWN,
    ),
    (
        "lefdet/symfunc.py",
        "range(p - i, p - i + size)",
        "range(p + i, p + i - size, -1)",
        "Jacobi-Trudi entries read E at lam_i + i - j instead of lam_i - i + j",
        OWN,
    ),
    (
        "lefdet/symfunc.py",
        "if 0 <= m < n else 0",
        "if 0 <= m < n else 1",
        "e_matrix reads 1 instead of 0 off the E-table",
        OWN,
    ),
    (
        "lefdet/ring.py",
        "coeffs[i] = f.a * coeffs[i] + f.b * coeffs[i - 1]\n        coeffs[0] = f.a * coeffs[0]",
        "coeffs[i] = f.b * coeffs[i] + f.a * coeffs[i - 1]\n        coeffs[0] = f.b * coeffs[0]",
        "a<->b swap in the direct route's product coefficients",
        OWN,
    ),
    (
        "lefdet/formulas.py",
        "return HomogPair(pair.b, pair.a)",
        "return pair",
        "hat group keeps the check group's roles: no a<->b swap",
        OWN,
    ),
    (
        "lefdet/ring.py",
        "gcds *= g",
        "gcds //= g",
        "scale factor's gcd half divides by each form's gcd instead of multiplying",
        SHARED,
    ),
    (
        "lefdet/formulas.py",
        "t.value * factor",
        "t.value // factor",
        "the cell evaluator's expansion terms floor-divide by the scale factor, and so does "
        "its total",
        OWN,
    ),
    (
        "lefdet/formulas.py",
        "scaled, factor = scaled_forms(rp, k, forms)",
        "scaled, factor = scaled_forms(rp, k, forms); factor = 2 * factor",
        "the cell evaluator doubles its scale factor: every route of a record doubles alike",
        SHARED,
    ),
    (
        "lefdet/linalg.py",
        "x.numerator * (den // x.denominator)",
        "x.numerator",
        "primitive_part drops the denominator scaling: (1/2, 1/3) reads as (1, 1) / 6",
        SHARED,
    ),
    (
        "lefdet/formulas.py",
        "sum(t.value for t in self.terms)",
        "sum(t.value for t in self.terms[1:])",
        "an expansion's value, the sum of its terms, drops its first term",
        OWN,
    ),
    # zero-kernel rows: each makes every determinant of size 2 or more 0, so
    # every route of every trial agrees and only the anchor sees the fault
    (
        "lefdet/linalg.py",
        "if g == 0:",
        "if g != 0:",
        "Bareiss returns 0 on any nonzero row",
        SHARED,
    ),
    (
        "lefdet/linalg.py",
        "for col in range(n - 1):",
        "for col in range(n + 1):",
        "Bareiss runs past the last column, which finds no pivot: 0",
        SHARED,
    ),
    (
        "lefdet/linalg.py",
        "value = sign * content * a[n - 1][n - 1]",
        "value = sign * content * a[n - 1][n - 2]",
        "Bareiss returns an entry its elimination has zeroed",
        SHARED,
    ),
    (
        "lefdet/linalg.py",
        "self.entries[r * self.cols : (r + 1) * self.cols]",
        "self.entries[r // self.cols : (r + 1) * self.cols]",
        "ExactMatrix.row starts each row at entry r // cols",
        SHARED,
    ),
    # the record and the anchor reduce only int matrices, so only a command
    # that evaluates rational values as given reaches Bareiss's Fraction half
    (
        "lefdet/linalg.py",
        "scale = 1",
        "scale = 2",
        "Bareiss halves every rational determinant",
        FRACTION,
    ),
]


# the modules the scan mutates, under src/lefdet
SCAN_FILES = ("ring.py", "symfunc.py", "formulas.py", "linalg.py", "partitions.py")
SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}
# a mutant that loops or grows without bound is cut off, not waited for
SCAN_TIMEOUT_S = 60


class Mutant(NamedTuple):
    """``text[start:end]`` (the characters ``old`` on line ``line``) becomes ``new``."""

    file: str
    line: int
    start: int
    end: int
    old: str
    new: str

    def apply(self, text: str) -> str:
        return text[: self.start] + self.new + text[self.end :]


def scan_mutants(text: str, file: str) -> list[Mutant]:
    """Every operator-swap and literal mutant of one module's source, in source order."""
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes; offsets into ``text`` count characters
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:byte_col].decode())

    ops = [  # (offset, line, symbol) of every operator token
        (starts[tok.start[0] - 1] + tok.start[1], tok.start[0], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.OP
    ]

    def operator_after(node: ast.AST, op: ast.AST, suffix: str = "") -> Mutant:
        # the operator is the first token after its left operand, past any ")"
        old, new = (symbol + suffix for symbol in SWAPS[type(op)])
        after = offset(node.end_lineno, node.end_col_offset)
        at, line, symbol = next((at, line, s) for at, line, s in ops if at >= after and s != ")")
        if symbol != old:
            raise ValueError(f"{file}:{line}: expected {old!r}, found {symbol!r}")
        return Mutant(file, line, at, at + len(old), old, new)

    def code_nodes(tree: ast.AST):
        # f-strings are one token each, and only build messages: skip them
        stack = [tree]
        while stack:
            node = stack.pop()
            if not isinstance(node, ast.JoinedStr):
                yield node
                stack.extend(ast.iter_child_nodes(node))

    mutants = []
    for node in code_nodes(ast.parse(text)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            mutants.append(operator_after(node.left, node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            mutants.append(operator_after(node.target, node.op, "="))
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                if type(op) in SWAPS:
                    mutants.append(operator_after(left, op))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            mutants.append(
                Mutant(file, node.lineno, start, end, text[start:end], str(node.value + 1))
            )
    return sorted(mutants, key=lambda m: m.start)


def run(src: Path, command, timeout=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-B", *command], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def outcome(src: Path) -> str:
    """How ``VERIFY`` ends on the source under ``src``, in the scan's words."""
    try:
        proc = run(src, VERIFY, timeout=SCAN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 1 and "reproduce with:" in proc.stderr:
        return "killed"
    return {0: "SURVIVED", 2: "error"}.get(proc.returncode, f"exit {proc.returncode}")


def scan(src: Path) -> int:
    """Print the outcome of every ``scan_mutants`` mutant and a tally."""
    if outcome(src) != "SURVIVED":
        print("unmutated source does not pass", file=sys.stderr)
        return 1
    tally = Counter()
    for name in SCAN_FILES:
        path = src / "lefdet" / name
        original = path.read_text()
        for mutant in scan_mutants(original, f"lefdet/{name}"):
            path.write_text(mutant.apply(original))
            try:
                result = outcome(src)
            finally:
                path.write_text(original)
            tally[result] += 1
            print(f"{result:8} {mutant.file}:{mutant.line}: {mutant.old!r} -> {mutant.new!r}",
                  flush=True)
    print(f"{sum(tally.values())} mutants: "
          + ", ".join(f"{count} {result}" for result, count in sorted(tally.items())))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scan", action="store_true",
                        help="print the full operator-swap table instead of running the gate")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if args.scan:
            return scan(src)
        if any(run(src, command).returncode != 0
               for command in (*SHARED, *FRACTION)):
            print("unmutated source does not pass", file=sys.stderr)
            return 1
        survivors = 0
        for file, old, new, reason, commands in MUTANTS:
            path = src / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"{file}: {old!r} occurs {original.count(old)} times", file=sys.stderr)
                return 1
            path.write_text(original.replace(old, new))
            try:
                procs = [run(src, command) for command in commands]
            finally:
                path.write_text(original)
            killed = all(p.returncode == 1 and "reproduce with:" in p.stderr for p in procs)
            survivors += not killed
            codes = ", ".join(str(p.returncode) for p in procs)
            print(f"{'killed' if killed else 'SURVIVED'} (exit {codes}): {file}: {reason}")
        return 1 if survivors else 0

if __name__ == "__main__":
    raise SystemExit(main())
