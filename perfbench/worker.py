"""One fresh benchmark process: set up a workload, run one pass, report.

Started by run.py; prints one JSON object as its last stdout line.  Every
worker runs exactly one timed pass, so a run gets its samples of set-up
time, pass time and peak memory from many fresh processes.  BLAS is
pinned to one thread before numpy is imported.  Set-up time runs from the
start of this script (before numpy and agmonlab are imported) to the first
timed call.  Peak memory is the process's maximum resident set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

T0 = time.perf_counter()

import argparse
import ctypes
import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = ROOT / "configs"


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import agmonlab

    if Path(agmonlab.__file__).resolve().parent != SRC / "agmonlab":
        raise ImportError(f"agmonlab imported from {agmonlab.__file__}, not {SRC}")
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work, CONFIG_DIR)
    setup_s = time.perf_counter() - T0

    start = time.perf_counter()
    ops = workload.run_pass(args.jobs)
    wall_s = time.perf_counter() - start

    result = {
        "jobs": args.jobs,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
