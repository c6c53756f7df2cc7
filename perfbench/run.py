"""agmonlab benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload configs --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that wraps agmonlab's public functions and reports the
per-layer metrics (plus ``trace.overhead_s``, traced minus untraced pass
time).  Every pass runs in its own fresh worker process with BLAS at one
thread; workers run one at a time.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name with its unit.  Provenance, raw samples and
(traced) spans go to ``.perfbench/<workload>-seed<N>-trace<T>.json``.

Exit codes: 0 all checks passed; 1 a correctness check failed; 2 the
repository or BENCHMARK.json is missing; 3 a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Untraced workers start until the run has spent --seconds, but at least
# this many, so every median has a few fresh processes under it.
MIN_WORKERS = 4
TRACED_PAIRS_MAX = 5
WORKER_TIMEOUT_S = 170

# Design predictions checked on every traced run.  "share" is the metric's
# seconds over the traced pass time.
DESIGN = (
    ("configs", "fcalc.hs_apply.calls", "==", 0),
    ("configs", "solver.poisson_bvp.sparse_calls", "==", 0),
    ("strip-decay", "fcalc.hs_apply.calls", "==", 0),
    ("strip-decay", "solver.poisson_bvp.s", "share>", 0.5),
    ("window-calculus", "fcalc.hs_apply.s", "share>", 0.5),
    ("window-calculus", "solver.poisson_bvp.calls", "==", 0),
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, work, *, jobs=1, trace=0):
    """Run one fresh worker process (set-up plus one pass); return its record."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        "--jobs", str(jobs),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        if pct >= 1:
            q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            text += f", p{pct} {q:.6g}"
    else:
        text += f", max {values[-1]:.6g} (no percentile has 10 samples beyond it)"
    return text + f", n={n}"


def check_ops(workers) -> tuple[int, list[str]]:
    """Count operations and list failures; CSV digests must all agree."""
    attempted, failures, first_digest = 0, [], {}
    for w, worker in enumerate(workers):
        for op in worker["ops"]:
            attempted += 1
            where = f"worker {w} {op['op']}"
            if not op["ok"]:
                failures.append(f"{where}: {op['detail']}")
            elif op["digest"] is not None:
                ref = first_digest.setdefault(op["op"], op["digest"])
                if op["digest"] != ref:
                    failures.append(f"{where}: CSV bytes differ from the first pass")
    return attempted, failures


def measure(args) -> tuple[dict, list, dict]:
    """Run the workers; return (values by metric, workers, extra report)."""
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    extra: dict = {}
    if not args.trace:
        # a worker starts only if it should end before the deadline plus
        # half a worker; the jobs=2 worker shares the same --seconds
        deadline = time.perf_counter() + args.seconds
        workers, jobs2, last = [], [], 0.0
        while len(workers) < MIN_WORKERS or time.perf_counter() + 0.5 * last < deadline:
            begun = time.perf_counter()
            workers.append(run_worker(args.workload, args.seed, work))
            last = time.perf_counter() - begun
            if args.workload == "configs" and len(workers) == 1:
                jobs2.append(run_worker(args.workload, args.seed, work, jobs=2))
        values = {
            "setup_s": [w["setup_s"] for w in workers],
            "wall_s": [w["wall_s"] for w in workers],
            "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        }
        if jobs2:
            # what --jobs 2 buys; BENCHMARK.json wants metrics on every workload
            extra["jobs2_wall_s"] = [w["wall_s"] for w in jobs2]
            extra["jobs2_peak_rss_mb"] = [w["peak_rss_mb"] for w in jobs2]
        return values, workers + jobs2, extra

    # untraced and traced workers alternate, so that drift in the machine's
    # speed falls on both sides of trace.overhead_s alike
    workers, traced = [], []
    while len(traced) < TRACED_PAIRS_MAX and (
        len(traced) < 2 or sum(w["wall_s"] for w in workers + traced) < args.seconds
    ):
        workers.append(run_worker(args.workload, args.seed, work))
        traced.append(run_worker(args.workload, args.seed, work, trace=1))
    untraced_wall = statistics.median(w["wall_s"] for w in workers)
    traced_wall = statistics.median(w["wall_s"] for w in traced)
    values = {name: [w["layers"][name] for w in traced] for name in traced[0]["layers"]}
    values["trace.overhead_s"] = [traced_wall - untraced_wall]
    extra["traced_pass_wall_s"] = traced_wall
    extra["untraced_pass_wall_s"] = untraced_wall
    return values, workers + traced, extra


def design_checks(workload, metrics, traced_wall) -> list[dict]:
    checks = []
    for target, name, relation, bound in DESIGN:
        if target != workload:
            continue
        value = metrics[name]
        if relation == "==":
            held = value == bound
        else:
            value = value / traced_wall
            held = value > bound
        checks.append({"metric": name, "relation": relation, "bound": bound,
                       "value": value, "held": held})
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agmonlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "agmonlab" / "__init__.py").is_file() or not any(
        (ROOT / "configs").glob("*.json")
    ):
        print(f"error: no agmonlab sources or configs under {ROOT}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        values, workers, extra = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            print(f"error: metric {entry['name']} was not measured", file=sys.stderr)
            return 3
        metrics[entry["name"]] = {
            "value": statistics.median(values[entry["name"]]),
            "unit": entry["unit"],
        }
    attempted, failures = check_ops(workers)

    provenance = {
        **workers[0]["provenance"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
    }
    print(f"agmonlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds}s, trace {args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for entry in wanted:
        print(f"  {entry['name']} [{entry['unit']}]: {describe(values[entry['name']])}")
    for name, samples in extra.items():
        if isinstance(samples, list):
            print(f"  {name} (not gated): {describe(samples)}")
    frac = len(failures) / attempted
    print(f"  ops_failed_frac: {frac:.6g} ({len(failures)} failed of {attempted} attempted)")
    for failure in failures:
        print(f"  FAILED {failure}")

    report = {
        "provenance": provenance,
        "args": vars(args),
        "elapsed_s": time.perf_counter() - started,
        "metrics": metrics,
        "samples": values,
        "extra": extra,
        "attempted": attempted,
        "failures": failures,
        "workers": [
            {k: v for k, v in w.items() if k not in ("spans", "provenance")}
            for w in workers
        ],
    }
    if args.trace:
        report["design_checks"] = design_checks(
            args.workload,
            {name: statistics.median(v) for name, v in values.items()},
            extra["traced_pass_wall_s"],
        )
        for check in report["design_checks"]:
            state = "held" if check["held"] else "BROKEN"
            print(f"  design {check['metric']} {check['relation']} {check['bound']}: "
                  f"{state} ({check['value']:.6g})")
        report["spans"] = [w["spans"] for w in workers if "spans" in w]
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report) + "\n")
    print(f"report: {out_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
