"""Span tracing for the benchmark's traced runs, from outside the package.

The harness wraps the public functions of each ``lefdet`` module and records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory and are written out when the traced process ends; the
harness then derives each layer's self time (its spans' duration minus the
part covered by child spans) and call counts.

No source file of the package changes.  Because ``from .x import f`` copies
the name, a wrapper replaces every module global in the package that is bound
to the original function, and ``MultiPoly`` operators are replaced on the
class.  Traced runs use one worker, so a single span stack is enough.

Run as a script, this module is the traced child process::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json lefdet verify --dmax 4 --threads 1
    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json symbolic --smax 5 --seed 0
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from lefdet.ring import dim

# span name -> (module, attribute); the span name's prefix is the layer.
FUNCTIONS = {
    "cli.cell_rng": ("lefdet.cli", "cell_rng"),
    "cli.random_form": ("lefdet.cli", "random_form"),
    "cli.eval_cell": ("lefdet.cli", "eval_cell"),
    "cli.emit": ("lefdet.cli", "emit"),
    "formulas.det_literal_cases": ("lefdet.formulas", "det_literal_cases"),
    "formulas.det_schur_expansion": ("lefdet.formulas", "det_schur_expansion"),
    "formulas.det_closed_form": ("lefdet.formulas", "det_closed_form"),
    "ring.det_direct": ("lefdet.ring", "det_direct"),
    "ring.product_coefficients": ("lefdet.ring", "product_coefficients"),
    "symfunc.schur_homog": ("lefdet.symfunc", "schur_homog"),
    "linalg.det_bareiss": ("lefdet.linalg", "det_bareiss"),
    "linalg.det_laplace": ("lefdet.linalg", "det_laplace"),
}
# span name -> MultiPoly methods sharing one wrapper (__rmul__ is __mul__).
OPERATORS = {
    "mpoly.mul": ("__mul__", "__rmul__"),
    "mpoly.add": ("__add__", "__radd__"),
}

# Per-layer metric -> (unit, better, end-to-end metric and workload it should
# move).  BENCHMARK.json lists the same names; a harness test keeps them equal.
PER_LAYER = {
    "cli.forms_s": ("s", "lower", "wall_s on verify-lattice"),
    "cli.record_s": ("s", "lower", "wall_s on verify-lattice"),
    "cli.emit_s": ("s", "lower", "wall_s on verify-lattice"),
    "cli.worker_efficiency": ("frac", "higher", "wall_s on verify-lattice"),
    "formulas.literal_audit_s": ("s", "lower", "wall_s on verify-lattice"),
    "formulas.literal_audit_incl_s": ("s", "lower", "wall_s on verify-lattice"),
    "formulas.literal_audit_calls": ("count", "lower", "wall_s on verify-lattice"),
    "formulas.expansion_s": ("s", "lower", "items_per_s on large-cells and symbolic-lattice"),
    "formulas.expansion_terms": ("count", "lower", "items_per_s on large-cells and symbolic-lattice"),
    "formulas.expansion_zero_terms": ("count", "lower", "items_per_s on large-cells and symbolic-lattice"),
    "formulas.closed_form_s": ("s", "lower", "items_per_s on verify-lattice"),
    "ring.det_direct_s": ("s", "lower", "wall_s on slp-scan"),
    "ring.det_direct_calls": ("count", "lower", "wall_s on slp-scan"),
    "ring.direct_dim_max": ("rows", "lower", "wall_s on slp-scan"),
    "ring.product_coefficients_s": ("s", "lower", "wall_s on slp-scan"),
    "symfunc.schur_homog_s": ("s", "lower", "items_per_s on verify-lattice and large-cells"),
    "symfunc.schur_homog_calls": ("count", "lower", "items_per_s on verify-lattice and large-cells"),
    "symfunc.homog_tables": ("count", "lower", "items_per_s on verify-lattice and large-cells"),
    "linalg.det_bareiss_s": ("s", "lower", "wall_s on large-cells and slp-scan"),
    "linalg.det_bareiss_calls": ("count", "lower", "wall_s on large-cells and slp-scan"),
    "linalg.bareiss_dim_max": ("rows", "lower", "wall_s on large-cells and slp-scan"),
    "linalg.det_laplace_s": ("s", "lower", "items_per_s on symbolic-lattice"),
    "linalg.det_laplace_calls": ("count", "lower", "items_per_s on symbolic-lattice"),
    "mpoly.mul_s": ("s", "lower", "items_per_s and peak_rss_mb on symbolic-lattice"),
    "mpoly.mul_calls": ("count", "lower", "items_per_s and peak_rss_mb on symbolic-lattice"),
    "mpoly.mul_terms_out": ("count", "lower", "items_per_s and peak_rss_mb on symbolic-lattice"),
    "mpoly.add_s": ("s", "lower", "items_per_s on symbolic-lattice"),
    "mpoly.add_calls": ("count", "lower", "items_per_s on symbolic-lattice"),
    "trace.overhead_frac": ("frac", "lower", "none: traced over untraced wall time, minus 1"),
}

# Self-time metric -> the spans whose self time it sums; the largest of these
# names a workload's dominant layer.
SELF_TIME = {
    "cli.forms_s": ("cli.cell_rng", "cli.random_form"),
    "cli.record_s": ("cli.eval_cell",),
    "cli.emit_s": ("cli.emit",),
    "formulas.literal_audit_s": ("formulas.det_literal_cases",),
    "formulas.expansion_s": ("formulas.det_schur_expansion",),
    "formulas.closed_form_s": ("formulas.det_closed_form",),
    "ring.det_direct_s": ("ring.det_direct",),
    "ring.product_coefficients_s": ("ring.product_coefficients",),
    "symfunc.schur_homog_s": ("symfunc.schur_homog",),
    "linalg.det_bareiss_s": ("linalg.det_bareiss",),
    "linalg.det_laplace_s": ("linalg.det_laplace",),
    "mpoly.mul_s": ("mpoly.mul",),
    "mpoly.add_s": ("mpoly.add",),
}
CALLS = {
    "formulas.literal_audit_calls": "formulas.det_literal_cases",
    "ring.det_direct_calls": "ring.det_direct",
    "symfunc.schur_homog_calls": "symfunc.schur_homog",
    "linalg.det_bareiss_calls": "linalg.det_bareiss",
    "linalg.det_laplace_calls": "linalg.det_laplace",
    "mpoly.mul_calls": "mpoly.mul",
    "mpoly.add_calls": "mpoly.add",
}


class Tracer:
    """Records spans as ``[name, start, end, parent]`` plus named counters.

    ``parent`` is the index of the enclosing span, or -1 at top level.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters[key], value)

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(tracer, args, result)`` updates counters."""

        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if note is not None:
                note(self, args, result)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the time covered by child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[index]
    return out


def inclusive_time(spans, name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)


def layer_metrics(spans, counters, worker_efficiency: float, overhead_frac: float) -> dict:
    """Every per-layer metric from one traced pass; the caller supplies the
    two ratios that need untraced wall times."""
    selfs = self_times(spans)
    calls = call_counts(spans)
    metrics = {
        name: sum(selfs.get(span, 0.0) for span in names) for name, names in SELF_TIME.items()
    }
    metrics.update({name: calls.get(span, 0) for name, span in CALLS.items()})
    metrics["formulas.literal_audit_incl_s"] = inclusive_time(spans, "formulas.det_literal_cases")
    metrics["symfunc.homog_tables"] = calls.get("symfunc.schur_homog", 0) + calls.get(
        "ring.product_coefficients", 0
    )
    for key in (
        "formulas.expansion_terms",
        "formulas.expansion_zero_terms",
        "ring.direct_dim_max",
        "linalg.bareiss_dim_max",
        "mpoly.mul_terms_out",
    ):
        metrics[key] = counters.get(key, 0)
    metrics["cli.worker_efficiency"] = worker_efficiency
    metrics["trace.overhead_frac"] = overhead_frac
    return {name: metrics[name] for name in PER_LAYER}


def dominant_layer(metrics: dict) -> str:
    return max(SELF_TIME, key=lambda name: metrics[name])


# ---------------------------------------------------------------------------
# installing the wrappers


def _note_expansion(tracer, args, result):
    tracer.add("formulas.expansion_terms", len(result.terms))
    tracer.add("formulas.expansion_zero_terms", sum(1 for t in result.terms if t.value == 0))


def _note_direct(tracer, args, result):
    tracer.peak("ring.direct_dim_max", dim(args[0], args[1]))


def _note_bareiss(tracer, args, result):
    tracer.peak("linalg.bareiss_dim_max", args[0].rows)


def _note_mul(tracer, args, result):
    if result is not NotImplemented:
        tracer.add("mpoly.mul_terms_out", len(result.terms))


NOTES = {
    "formulas.det_schur_expansion": _note_expansion,
    "ring.det_direct": _note_direct,
    "linalg.det_bareiss": _note_bareiss,
    "mpoly.mul": _note_mul,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding site in ``lefdet``."""
    import lefdet.cli  # noqa: F401  (imports every module of the package)
    from lefdet.mpoly import MultiPoly

    modules = [m for key, m in sys.modules.items() if key == "lefdet" or key.startswith("lefdet.")]
    for name, (module, attribute) in FUNCTIONS.items():
        original = getattr(sys.modules[module], attribute)
        wrapper = tracer.wrap(name, original, NOTES.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for name, methods in OPERATORS.items():
        wrapper = tracer.wrap(name, getattr(MultiPoly, methods[0]), NOTES.get(name))
        for method in methods:
            setattr(MultiPoly, method, wrapper)


def main(argv: list[str]) -> int:
    spans_path, entry, args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    if entry == "lefdet":
        from lefdet.cli import main as entry_main
    elif entry == "symbolic":
        from symbolic import main as entry_main
    else:
        raise SystemExit(f"unknown entry {entry!r}")
    code = entry_main(args)
    sys.stdout.flush()
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
