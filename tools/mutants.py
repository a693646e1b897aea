"""Mutation gate: every listed mutant must make ``lefdet verify`` fail.

    python3 tools/mutants.py

Copies ``src`` to a temporary directory and runs ``VERIFY`` there, first on
the unmutated copy, which must exit 0, then once per row of ``MUTANTS`` with
that row's edit applied, which must exit 1 and name the reproduce command on
stderr.  A row marked ``SHARED`` breaks what every route of a record shares
(the determinant kernel or the scale factor), so only an anchor can see it;
the gate also runs ``REPORT`` and ``DET_CLOSED`` on it, each of which runs
its one cell's full anchor, as ``VERIFY`` does for each of its cells, and
must fail the same way; on the unmutated copy they must exit 0.  A row's ``old``
text must occur exactly once in its file, so a row that no longer matches
the source fails loudly instead of testing nothing.  Children run with
``-B``: a cached ``.pyc`` is keyed on the source's size and whole-second
mtime, so bytecode written for the unmutated copy could otherwise stand in
for a same-length mutant written within the same second.  Exit 0 when every mutant is killed,
1 otherwise.  Standard library only; each run of ``VERIFY`` takes under half
a second on a 2-vCPU host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ["-m", "lefdet", "verify", "--dmax", "6", "--trials", "3", "--seed", "1"]
REPORT = ["-m", "lefdet", "report", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
          "--forms", "2,1;1,3"]
DET_CLOSED = ["-m", "lefdet", "det", "--d", "2", "--q", "2", "--k", "1", "--method", "closed",
              "--forms", "2,1;1,3"]

# the commands a row must make exit 1 with the reproduce line
OWN = (VERIFY,)
SHARED = (VERIFY, REPORT, DET_CLOSED)

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
        "rows=height) * factor",
        "rows=height) * factor * factor",
        "closed form applies the scale factor twice",
        OWN,
    ),
    (
        "lefdet/ring.py",
        "det(mult_matrix_block(rp, scaled, k)) * factor",
        "det(mult_matrix_block(rp, scaled, k)) * factor * factor",
        "direct route applies the scale factor twice",
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
        "lefdet/linalg.py",
        "x.numerator * (den // x.denominator)",
        "x.numerator",
        "primitive_part drops the denominator scaling: (1/2, 1/3) reads as (1, 1) / 6",
        SHARED,
    ),
    (
        "lefdet/formulas.py",
        "Expansion(scaled_expansion.value * factor, terms)",
        "Expansion(scaled_expansion.value, terms)",
        "the record's expansion total drops the scale factor",
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
]


def run(src: Path, command) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-B", *command], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if any(run(src, command).returncode != 0 for command in SHARED):
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
