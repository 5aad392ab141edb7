"""hmplan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload seq-search --seed 1 --seconds 24 --trace 0

The run splits its time over several fresh worker processes started one
after another (bench/worker.py), because the speed of a Python process
varies from one process to the next far more than within one.  It prints
the end-to-end metrics (--trace 0) or the per-layer metrics of the traced
rounds (--trace 1), and ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import srcpath
from instances import WORKLOADS, workload
from reference import reference
from worker import set_up

HERE = Path(__file__).resolve().parent
# Each worker process runs rounds for about this many seconds (at least one
# round), so a run of S seconds combines about S / WORKER_SECONDS processes.
WORKER_SECONDS = 4.0
MIN_WORKERS = 2
WORKER_TIMEOUT = 75

END_TO_END = {"plan_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "expansions": "count"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_h"):
        return "cost"
    if "_per_" in name:
        return "ratio"
    return "count"


def run_workers(args, refs: dict) -> list[dict]:
    """Start worker processes one after another until the run's time is
    used up; at least MIN_WORKERS of them, each given WORKER_SECONDS."""
    out_dir = srcpath.ROOT / "bench" / "out"
    reports = []
    started = time.perf_counter()
    last = 0.0
    while len(reports) < MIN_WORKERS or time.perf_counter() - started + last <= args.seconds:
        t0 = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(min(WORKER_SECONDS, args.seconds / MIN_WORKERS))]
        if args.trace:
            cmd.append("--trace")
            if not reports:
                out_dir.mkdir(exist_ok=True)
                cmd += ["--spans", str(out_dir / f"spans-{args.workload}.csv")]
        proc = subprocess.run(cmd, input=json.dumps(refs), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: worker {len(reports)} exited with {proc.returncode}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
        last = time.perf_counter() - t0
    return reports


def median_round(reports: list[dict], key: str, field: str) -> float:
    """Median over every round of every worker."""
    return statistics.median(r[field] for rep in reports for r in rep[key])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refs = {}
    for inst in workload(args.workload, args.seed):
        value, _ = reference(inst.params, set_up(inst))
        refs[inst.name] = None if value is None else str(value)
    reports = run_workers(args, refs)

    rounds = [r for rep in reports for r in rep["rounds"]]
    traced = [r for rep in reports for r in rep["traced"]]
    for e in sorted({e for r in rounds + traced for e in r["errors"]}):
        print(f"FAILED {e}", file=sys.stderr)
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(r["failed"] for r in rounds + traced)
    # A failed check is a wrong answer; an exception only fails the instance.
    wrong = sum(r["wrong"] for r in rounds + traced)
    # Expansions and every per-layer count must repeat exactly.
    repeats = len({r["expansions"] for r in rounds}) == 1
    if args.trace:
        counts = {k for k in traced[0]["layers"] if not k.endswith("_s")}
        repeats = repeats and all(
            {k: t["layers"][k] for k in counts} == {k: traced[0]["layers"][k] for k in counts}
            for t in traced)
    if not repeats:
        print("bench: counts differ between rounds", file=sys.stderr)

    if args.trace:
        metrics = {k: statistics.median(t["layers"][k] for t in traced)
                   if k.endswith("_s") else traced[0]["layers"][k]
                   for k in traced[0]["layers"]}
        metrics["trace.plan_s"] = median_round(reports, "traced", "plan_s")
        metrics["trace.untraced_plan_s"] = median_round(reports, "rounds", "plan_s")
        metrics["trace.overhead_s"] = metrics["trace.plan_s"] - metrics["trace.untraced_plan_s"]
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "plan_s": median_round(reports, "rounds", "plan_s"),
            "setup_s": median_round(reports, "rounds", "setup_s"),
            "peak_rss_mb": max(rep["peak_rss_kb"] for rep in reports) / 1024,
            "expansions": rounds[0]["expansions"],
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:>12}  {name:<28} {value:>14.6g} {units[name]}")
    # What the scaled times were scaled from.
    for name, unit in (("plan_wall_s", "s"), ("setup_wall_s", "s"), ("speed", "")):
        value = median_round(reports, "rounds", name)
        print(f"{args.workload:>12}  {name:<28} {value:>14.6g} {unit}")
    print(f"{args.workload:>12}  instances attempted {attempted}, failed {failed}, "
          f"{len(reports)} processes, {len(rounds)} timed and {len(traced)} traced rounds")
    print(json.dumps({
        "correct": repeats and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
