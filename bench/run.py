"""orchkit benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload infer-replay --seed 1 --seconds 15 --trace 0

It generates the workload's inputs from the seed under `.bench_work/`,
hosts the fake model servers on this thread, runs the real `orchkit` CLI as
child processes for `--seconds` seconds (after one warm-up pass), checks
every result, prints a readable report on stderr and, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts workload passes (each a full command chain, checked by
the oracle); `failed` counts those with any wrong or missing result.
With `--trace 0` the metrics are the end-to-end ones, medians over passes.
With `--trace 1` traced and untraced passes alternate, and the metrics are
the per-layer ones from the traced passes (see layers.py).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import layers
from fakeserver import Loop
from workloads import WORKLOADS, Iteration, Workload

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
HARD_STOP_S = 140.0  # stop starting new passes, so a run ends well within 180 s


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    return p.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Iteration], probes: list[Iteration],
               units: dict[str, str]) -> dict[str, dict]:
    setups = [p.setup_s for p in (probes or passes) if p.setup_s is not None]
    values = {
        "wall_s": median(p.wall_s for p in passes),
        "setup_s": median(setups) if setups else 0.0,
        "first_output_s": median(p.first_output_s for p in passes),
        "model_calls": median(p.model_calls for p in passes),
        "cpu_ms_per_call": median(p.cpu_s * 1e3 / max(p.model_calls, 1) for p in passes),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
        "parsed_run_share": median(p.parsed_share for p in passes),
    }
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def server_means(passes: list[Iteration]) -> dict[str, float]:
    inflight, per_call = [], []
    for p in passes:
        stats = [s for s in p.servers if s.calls]
        if not stats:
            continue
        first = min(s.first_request for s in stats)
        last = max(s.last_reply for s in stats)
        area = sum(s.inflight_area for s in stats)
        inflight.append(area / (last - first) if last > first else 0.0)
        per_call.append(sum(s.connections for s in stats) / sum(s.calls for s in stats))
    return {"server.inflight_mean": median(inflight) if inflight else 0.0,
            "server.connections_per_call": median(per_call) if per_call else 0.0}


def summarize(traced: Iteration) -> layers.PassSummary:
    """Reduce a traced pass to its per-layer figures and drop its spans."""
    commands = []
    for run, spans in traced.traced:
        if not spans.is_file():
            traced.problems.append(f"traced {run.argv[5]} wrote no spans")
            continue
        commands.append(layers.Command(run.spawned, run.exited, spans))
        spans.unlink()
    return layers.summarize_pass(commands)


def measure(workload: Workload, seconds: float, trace: bool, started: float,
            units: dict[str, str]) -> dict:
    passes: list[Iteration] = []
    traced: list[Iteration] = []
    probes: list[Iteration] = []
    summaries: list[layers.PassSummary] = []

    def out_of_time() -> bool:
        return time.perf_counter() - started > HARD_STOP_S

    warmup = workload.iterate(traced=False)
    deadline = time.perf_counter() + seconds
    while not out_of_time():
        enough = len(passes) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
        if trace and len(traced) <= len(passes):
            traced.append(workload.iterate(traced=True))
            summaries.append(summarize(traced[-1]))
        else:
            passes.append(workload.iterate(traced=False))
            # Set-up probes follow the passes through the whole run, so a
            # brief slow spell on the host cannot decide the median.
            probe = None if trace else workload.setup_probe()
            if probe is not None:
                probes.append(probe)
    everything = [warmup, *probes, *passes, *traced]
    passes = passes or [warmup]  # out of time before any measured pass
    failed = [p for p in everything if not p.ok]
    for p in failed:
        print("[bench] FAILED: " + "; ".join(p.problems), file=sys.stderr)
    result = {"correct": not failed, "attempted": len(everything), "failed": len(failed)}
    if not trace:
        result["metrics"] = end_to_end(passes, probes, units)
        report_end_to_end(workload, result["metrics"], passes, probes)
        return result
    overhead = median(p.wall_s for p in traced) / median(p.wall_s for p in passes)
    values, tails = layers.per_layer_metrics(summaries, server_means(passes), overhead, units)
    result["metrics"] = {name: _metric(values[name], unit) for name, unit in units.items()}
    report_layers(workload, values, tails, units, passes, traced)
    return result


def report_end_to_end(workload: Workload, metrics: dict, passes: list[Iteration],
                      probes: list[Iteration]) -> None:
    print(f"\n{workload.name} seed {workload.seed}: {len(passes)} measured passes, "
          f"{len(probes)} set-up probes (medians)", file=sys.stderr)
    for name, m in metrics.items():
        n = len(probes) if name == "setup_s" and probes else len(passes)
        print(f"  {name:<20} {m['value']:>12.4f} {m['unit']:<6} n={n}", file=sys.stderr)
    docs = getattr(workload, "documents", None)
    if docs:
        print(f"  {'docs_per_s':<20} {len(docs) / metrics['wall_s']['value']:>12.2f} docs/s",
              file=sys.stderr)


def report_layers(workload: Workload, values: dict, tails: dict, units: dict[str, str],
                  passes: list[Iteration], traced: list[Iteration]) -> None:
    print(f"\n{workload.name} seed {workload.seed}: {len(traced)} traced and "
          f"{len(passes)} untraced passes", file=sys.stderr)
    for name in layers.TIMINGS:
        n = int(values[f"{name}.n"])
        if n:
            print(f"  {name:<32} p50 {values[f'{name}.p50']:>10.3f} {tails[name]:>5} "
                  f"{values[f'{name}.tail']:>10.3f} {units[f'{name}.p50']:<3} n={n}",
                  file=sys.stderr)
    for name in layers.COUNTS:
        print(f"  {name:<32} {values[name]:>10.3f} {units[name]}  (median over passes)",
              file=sys.stderr)
    traced_wall = median(p.wall_s for p in traced) * 1e3
    untraced_wall = median(p.wall_s for p in passes) * 1e3
    print(f"  layer split of the traced wall time (median pass):", file=sys.stderr)
    total = 0.0
    for layer in layers.SPLIT_LAYERS:
        ms = values[f"split.{layer}_ms"]
        total += ms
        print(f"    {layer:<10} {ms:>10.1f} ms {ms / traced_wall:>7.1%}", file=sys.stderr)
    print(f"    {'sum':<10} {total:>10.1f} ms; traced wall {traced_wall:.1f} ms, untraced "
          f"wall {untraced_wall:.1f} ms, overhead share "
          f"{values['trace.overhead_share']:.3f}", file=sys.stderr)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "orchkit" / "cli.py").is_file():
        print("error: run from the root of an orchkit checkout (no src/orchkit/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    units = layers.load_units(root, "per_layer" if args.trace else "end_to_end")
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    loop = Loop()
    workload = WORKLOADS[args.workload](root, work, args.seed, loop, args.size)
    try:
        workload.prepare()
        result = measure(workload, args.seconds, bool(args.trace), started, units)
    finally:
        workload.close()
        loop.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # other runs' work directories are still there
    print(f"  ({time.perf_counter() - started:.1f} s in all)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
