"""Run every workload of BENCHMARK.json, untraced and traced, in one command.

    python3 bench/all.py --seed 1            # from the root of the checkout

Each run's readable report (metrics with units and sample counts, the
layer split) goes to stderr as it happens; a summary table of every metric
follows. Exits 1 if any run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} trace {trace}: FAILED ({result and result['failed']} of "
                      f"{result and result['attempted']} passes)", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
    print(f"{'workload':<16} {'metric':<36} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<36} {value:>14.4f} {unit}")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
