"""Run every workload, each in a fresh process, and print its metrics.

    python3 bench/suite.py                      # end-to-end metrics
    python3 bench/suite.py --trace              # plus the per-layer table

Run from the root of a source checkout.  For each workload it prints the
operations attempted and failed, every end-to-end metric with its unit and
the workload's phase rates.  With ``--trace`` it then runs each workload
under the tracer for the same number of rounds and prints the per-layer
metrics and the tracing overhead: traced wall time minus untraced wall
time for the same work, the median over three alternating pairs because
run-to-run noise on a small machine can exceed the overhead.  The
workloads are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PAIRS = 3  # traced/untraced pairs behind the overhead figure
PHASE_UNITS = {"train_samples_per_s": "samples/s", "eval_scans_per_s": "scans/s",
               "cam_ms_per_scan": "ms", "augment_ms_per_sample": "ms"}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            rounds: int | None = None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload}: exit code {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.3f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    ok = True
    declared = json.loads(Path("BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        result, detail = run_one(workload, args.seed, args.seconds, trace=False)
        ok &= result["correct"] and result["failed"] == 0
        print(f"== {workload} (seed {args.seed}): attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}; "
              f"{detail['rounds']} rounds in {detail['wall_s']:.1f} s")
        print_metrics(result["metrics"])
        for name, value in detail["phases"].items():
            print(f"  {name:30s} {value:14.3f} {PHASE_UNITS[name]}")
        for error in detail["errors"]:
            print(f"  ERROR {error}")
        if args.trace:
            # traced and untraced runs alternate on the same rounds; each traced
            # wall time is compared with the untraced run just before it
            rounds, untraced_wall, overheads = detail["rounds"], detail["wall_s"], []
            for pair in range(PAIRS):
                if pair:
                    untraced_wall = run_one(workload, args.seed, args.seconds, trace=False,
                                            rounds=rounds)[1]["wall_s"]
                traced, traced_detail = run_one(workload, args.seed, args.seconds,
                                                trace=True, rounds=rounds)
                ok &= traced["correct"] and traced["failed"] == 0
                overheads.append(traced_detail["wall_s"] - untraced_wall)
            overhead = statistics.median(overheads)
            print(f"-- {workload} traced, {rounds} rounds: overhead {overhead:+.2f} s "
                  f"({100 * overhead / detail['wall_s']:+.1f}% of {detail['wall_s']:.1f} s), "
                  f"median of {' '.join(f'{o:+.2f}' for o in overheads)}")
            print_metrics(traced["metrics"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
