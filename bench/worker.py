"""One benchmark process: solves whole rounds of a workload's instances for
about the given time, then prints its figures as one JSON line.

    python3 bench/worker.py --workload seq-search --seed 1 --seconds 4 [--trace] < refs.json

A round sets up every instance, solves it with each of its (pipeline, stop
rule) runs the way `hmplan plan` does, and checks every answer.
Calibration searches (speed.py) follow every run, and the round's times are
also given scaled to the reference speed.  With
--trace the process alternates timed rounds with traced rounds (see
tracing.py).  It reads the references, {instance name: cost or null}, as
JSON on stdin; run.py computes them once per run with reference.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import srcpath  # noqa: F401
from hmplan import Mode, PlannerConfig, Recorder, pddl, pipeline, validate_plan
from hmplan.sequential import SequentialSpace
from hmplan.temporal import TemporalSpace
from instances import Instance, workload
from speed import REFERENCE_S, calibrate_after
from tracing import Counting, Tracer, layer_metrics

# Set-up is short next to solving, so a timed round sets up every instance
# this many times and keeps the median, which steadies setup_s.
SETUP_REPEATS = 5


def set_up(inst: Instance):
    """PDDL text to a ground Problem, or the fixture's Problem."""
    if inst.pddl is None:
        return inst.build()
    domain_text, problem_text = inst.pddl
    domain = pddl.parse_domain(domain_text, f"{inst.name}-domain.pddl")
    problem = pddl.parse_problem(problem_text, f"{inst.name}.pddl")
    return pddl.ground(domain, problem, inst.mode)


def simulate(problem, plan) -> str | None:
    """Forward execution of a sequential plan, independent of validate_plan."""
    state = set(problem.init)
    cost = Fraction(0)
    for step in sorted(plan.steps, key=lambda st: st.start):
        a = step.action
        if not a.pre <= state:
            return f"{a.name} applied without its preconditions"
        state = (state - a.delete) | a.add
        cost += a.cost
    if not problem.goal <= state:
        return "goal not reached"
    if cost != plan.metric:
        return f"plan cost {plan.metric} but its actions cost {cost}"
    return None


def root_values(problem, result, recorder) -> tuple[Fraction, Fraction]:
    """The root's value after GBF (from the bound trace) and in the final
    heuristic table, which only IDAO* passes raise."""
    gbf = next(rec.bound for rec in recorder.trace if rec.phase == "gbf")
    space = SequentialSpace(problem) if problem.mode is Mode.SEQUENTIAL \
        else TemporalSpace(problem)
    return gbf, space.evaluate(result.table, space.root())


def check(problem, result, expected, roots) -> list[str]:
    """Everything wrong with a solved result; `roots` is root_values()."""
    errors = []
    verdict = validate_plan(problem, result.plan)
    if not verdict.ok:
        errors.append(verdict.report())
    if problem.mode is Mode.SEQUENTIAL:
        sim = simulate(problem, result.plan)
        if sim:
            errors.append(sim)
    if result.cost != result.plan.metric:
        errors.append(f"cost {result.cost} but plan metric {result.plan.metric}")
    if expected is not None and result.cost != expected:
        errors.append(f"cost {result.cost}, reference {expected}")
    hm_root, boosted = roots
    if not hm_root <= boosted <= result.cost:
        errors.append(f"root values not ordered: h^m {hm_root}, "
                      f"after IDAO* {boosted}, cost {result.cost}")
    return errors


def solve_round(instances: list[Instance], refs: dict, repeats: int,
                counting: Counting | None, tracer: Tracer | None) -> dict:
    """Solve every instance once; `counting` or `tracer` is installed around
    the planner calls.  Checks run outside the timed calls."""
    out = {"plan_wall_s": 0.0, "setup_wall_s": 0.0, "expansions": 0, "failed": 0,
           "wrong": 0, "errors": [], "events": 0, "hm_root": 0.0, "idao_root": 0.0}
    probe = counting or tracer
    calibrations = []
    for inst in instances:
        try:
            with probe.installed():
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    problem = set_up(inst)
                    times.append(time.perf_counter() - start)
            out["setup_wall_s"] += statistics.median(times)
            errors, costs = [], []
            for name, stop in inst.runs:
                recorder = Recorder()
                config = PlannerConfig(pipeline=name, stop=stop)
                with probe.installed():
                    before = counting.expansions if counting else 0
                    start = time.perf_counter()
                    result = pipeline.run_pipeline(problem, config, recorder)
                    elapsed = time.perf_counter() - start
                    if counting:
                        out["expansions"] += counting.expansions - before
                out["plan_wall_s"] += elapsed
                calibrations += calibrate_after(elapsed)
                out["events"] += len(recorder.events)
                costs.append(result.cost)
                if result.outcome != "solved":
                    errors.append(f"{name}: outcome {result.outcome}")
                    continue
                roots = root_values(problem, result, recorder)
                errors += [f"{name}: {e}"
                           for e in check(problem, result, refs.get(inst.name), roots)]
                out["hm_root"] += float(roots[0])
                if name == "hspa":
                    out["idao_root"] += float(roots[1])
            if len(set(costs)) > 1:
                errors.append(f"pipelines disagree: {costs}")
            if errors:
                out["wrong"] += 1
        except Exception as exc:  # any fault of the planner fails the instance
            errors = [f"raised {type(exc).__name__}: {exc}"]
        if errors:
            out["failed"] += 1
            out["errors"].append(f"{inst.name}: {'; '.join(errors)}")
    if not calibrations:  # every instance raised before its first run
        calibrations = calibrate_after(0)
    out["speed"] = REFERENCE_S / statistics.median(calibrations)
    out["plan_s"] = out["plan_wall_s"] * out["speed"]
    out["setup_s"] = out["setup_wall_s"] * out["speed"]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the first traced round's spans here")
    args = parser.parse_args()

    instances = workload(args.workload, args.seed)
    refs = {k: None if v is None else Fraction(v) for k, v in json.load(sys.stdin).items()}

    rounds, traced = [], []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(solve_round(instances, refs, SETUP_REPEATS, Counting(), None))
        if args.trace:
            tracer = Tracer()
            r = solve_round(instances, refs, 1, None, tracer)
            r["layers"] = layer_metrics(tracer, r["events"], (r["hm_root"], r["idao_root"]))
            traced.append(r)
            if args.spans and len(traced) == 1:
                tracer.write(args.spans)
        last = time.perf_counter() - t0
    report = {
        "rounds": rounds,
        "traced": traced,
        "attempted": len(instances) * (len(rounds) + len(traced)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
