"""scopetrack benchmark: run one workload in a fresh single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exam_long --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when a
result was printed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD_TIMEOUT_S = 170
# One thread per numeric library, so runs do not compete for the cores.
SINGLE_THREAD = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--frames", type=int, default=None,
                        help="override the workload's frame count (smoke test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests (default seed only)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "scopetrack", "__init__.py")):
        print("error: run from the root of a scopetrack checkout "
              "(src/scopetrack is missing)", file=sys.stderr)
        return 2
    if not os.path.isfile("BENCHMARK.json"):
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2

    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.frames is not None:
        cmd += ["--frames", str(args.frames)]
    if args.record_digests:
        cmd.append("--record-digests")
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = child.stdout.decode().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: benchmark process exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 3
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: benchmark process printed no result", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
