"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: szdl is imported from ``src/``.
With ``--trace 0`` the metrics are BENCHMARK.json's end-to-end ones; with
``--trace 1`` its per-layer ones.  A line ``detail: {...}`` before the
result holds rounds, wall time, set-up times, the workload's own phase
rates, check figures, errors and the environment.  Exit code 0 means a
result was printed; anything else means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def threads() -> int:
    """BLAS threads and augmentation workers: at most two, at most the CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def main(argv=None) -> int:
    if not (ROOT / "src" / "szdl" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/szdl; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # pin BLAS threads before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import numpy as np
    import scipy

    from workloads import WORKLOADS, execute

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds")
    args = parser.parse_args(argv)

    out = execute(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                  workers=threads(), rounds=args.rounds)
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    out["detail"]["env"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                            "blas": blas, "blas_threads": threads(), "workers": threads(),
                            "cpus": len(os.sched_getaffinity(0))}
    print("detail: " + json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
