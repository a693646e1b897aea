"""Benchmark harness for lefdet (standard library only).

    python3 perfbench/run.py --workload verify-lattice --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload is a seeded list of jobs, one program invocation each, run in
a closed loop from this single process: the next job starts when the
previous one exits.  ``--trace 0`` repeats whole passes over the jobs until
``--seconds`` have elapsed, and at least ``MIN_PASSES`` times, and reports
the end-to-end metrics.  ``wall_s`` is the sum over the jobs of each job's
median wall time across passes; ``setup_s`` is the median of one fresh
import before each pass.  Workload sizes keep a pass short enough for about
ten passes in a run, so both medians span the whole run and a burst of load
on a shared host moves few of their samples.
``--trace 1`` runs one pass with span tracing and reports the per-layer
metrics from ``tracing.PER_LAYER``.  Outputs are checked outside the timed
window (see ``workloads``); the last line of stdout is the result object,
the lines before it a human summary.  A record of the run, with the
sha256 and length of every job's stdout, goes to ``perfbench/out/``.

Exit code 2, with no result, when the package or the workload cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
JOB_TIMEOUT_S = 170
MIN_PASSES = 5


class SetupError(Exception):
    pass


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> Proc:
    """Run ``python3 argv`` in the checkout; wall time from start to exit and
    the peak RSS of the process (the largest process, if it waited for
    children of its own)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def import_time() -> float:
    """Wall time of a fresh interpreter that imports lefdet."""
    proc = spawn(["-c", "import lefdet"])
    if proc.code != 0:
        raise SetupError("cannot import lefdet:\n" + proc.stderr.decode(errors="replace"))
    return proc.wall_s


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_all(workload, jobs, procs) -> tuple[int, dict]:
    """Failed items over every job run, and the input sizes of the distinct
    jobs (summed, or the maximum for ``max_`` keys).

    A repeat of a job whose stdout differs from the first run's fails all its
    items: the program is deterministic for fixed inputs.
    """
    failed = 0
    sizes: dict = {}
    first: dict = {}
    for job, proc in zip(jobs, procs):
        if job in first:
            ref, ref_failed = first[job]
            same = (proc.code, proc.stdout) == (ref.code, ref.stdout)
            failed += ref_failed if same else job.items
            continue
        verdict = workload.check(job, proc.code, proc.stdout)
        first[job] = (proc, verdict.failed)
        failed += verdict.failed
        for key, value in verdict.sizes.items():
            sizes[key] = max(sizes.get(key, value), value) if key.startswith("max_") else sizes.get(key, 0) + value
    return failed, sizes


def run_untraced(name: str, workload, seed: int, seconds: float) -> tuple[dict, dict]:
    import_time()  # the first import also compiles bytecode
    jobs = workload.jobs(seed, workload.workers)
    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setups.append(import_time())
        passes.append([spawn(job.argv()) for job in jobs])
    checks = {}
    if workload.workers > 1:
        single = [spawn(job.argv()) for job in workload.jobs(seed, 1)]
        checks["stdout_identical_across_workers"] = all(
            s.stdout == p.stdout for s, p in zip(single, passes[0])
        )
    failed, sizes = check_all(workload, jobs * len(passes), [p for run in passes for p in run])
    items = sum(job.items for job in jobs)
    per_job = list(zip(*passes))
    wall_s = sum(statistics.median(p.wall_s for p in runs) for runs in per_job)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(statistics.median(p.rss_mb for p in runs) for runs in per_job),
    }
    attempted = items * len(passes)
    record = {
        "passes": len(passes),
        "setup_s": setups,
        "job_wall_s": [[p.wall_s for p in runs] for runs in per_job],
        "failed_frac": failed / attempted,
        "checks": checks,
        "sizes": sizes,
        "stdout": [dict(args=list(job.args), code=p.code, **digest(p.stdout)) for job, p in zip(jobs, passes[0])],
    }
    return result(attempted, failed, metrics, checks), record


def run_traced(name: str, workload, seed: int) -> tuple[dict, dict]:
    """One pass at one worker, each job run untraced and then traced."""
    import tracing

    jobs = workload.jobs(seed, 1)
    spans: list = []
    counters: dict = {}
    untraced, traced = [], []
    for index, job in enumerate(jobs):
        untraced.append(spawn(job.argv()))
        path = OUT / f"spans-{name}-{index}.json"
        traced.append(spawn(job.traced_argv(str(path))))
        data = json.loads(path.read_text()) if traced[-1].code == 0 else {"spans": [], "counters": {}}
        offset = len(spans)
        spans.extend([n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in data["spans"])
        for key, value in data["counters"].items():
            counters[key] = max(counters.get(key, 0), value) if key.endswith("_max") else counters.get(key, 0) + value
    overhead = sum(p.wall_s for p in traced) / sum(p.wall_s for p in untraced) - 1
    checks = {"traced_stdout_identical": all(t.stdout == u.stdout for t, u in zip(traced, untraced))}
    efficiency = 0.0
    if workload.workers > 1:
        pool = [spawn(job.argv()) for job in workload.jobs(seed, workload.workers)]
        checks["stdout_identical_across_workers"] = all(
            p.stdout == u.stdout for p, u in zip(pool, untraced)
        )
        busy = tracing.inclusive_time(spans, "cli.eval_cell") / (1 + overhead)
        efficiency = busy / (workload.workers * sum(p.wall_s for p in pool))
    failed, sizes = check_all(workload, jobs, untraced)
    metrics = tracing.layer_metrics(spans, counters, efficiency, overhead)
    attempted = sum(job.items for job in jobs)
    record = {
        "failed_frac": failed / attempted,
        "checks": checks,
        "sizes": sizes,
        "dominant_layer": tracing.dominant_layer(metrics),
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "spans": len(spans),
        "targets": {k: v[2] for k, v in tracing.PER_LAYER.items()},
        "stdout": [dict(args=list(job.args), code=p.code, **digest(p.stdout)) for job, p in zip(jobs, untraced)],
    }
    units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
    return result(attempted, failed, metrics, checks, units), record


END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def result(attempted: int, failed: int, metrics: dict, checks: dict, units=END_TO_END_UNITS) -> dict:
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a copy that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lefdet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(name: str, seed: int, seconds: float, trace: bool, workloads) -> dict:
    workload = workloads[name]
    OUT.mkdir(parents=True, exist_ok=True)
    if trace:
        res, record = run_traced(name, workload, seed)
    else:
        res, record = run_untraced(name, workload, seed, seconds)
    record.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        nproc=os.cpu_count(), python=platform.python_version(),
        git_commit=git_commit(), source_sha256=source_digest(),
        attempted=res["attempted"], failed=res["failed"], correct=res["correct"],
        metrics={k: v["value"] for k, v in res["metrics"].items()},
    )
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{name} seed={seed} trace={int(trace)}: correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for key, metric in res["metrics"].items():
        print(f"  {key} = {metric['value']} {metric['unit']}")
    print(f"  failed_frac = {record['failed_frac']} frac")
    if trace:
        print(f"  dominant layer (largest self time): {record['dominant_layer']}")
    return res


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description="lefdet benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_one(n, args.seed, args.seconds, bool(args.trace), workloads.WORKLOADS) for n in names]
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    if not (SRC / "lefdet" / "__init__.py").is_file():
        print(f"no lefdet package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
