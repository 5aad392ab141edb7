"""Command-line interface.

    hmplan plan <domain.pddl> <problem.pddl> [options]

Exit codes: 0 solved, 1 proven unsolvable or no solution within the limit,
2 input error, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .metrics import Recorder, collect_metrics, write_metrics_csv, write_trace_csv
from .model import INF, Mode, fmt_cost, round_durations_up
from .pddl import PddlError, load
from .pipeline import PlannerConfig, run_pipeline
from .validate import validate_plan

_MODES = {"seq": Mode.SEQUENTIAL, "par": Mode.PARALLEL, "temp": Mode.TEMPORAL}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmplan", description="Optimal regression planner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("plan", help="solve a planning problem")
    p.add_argument("domain", help="domain file (PDDL subset)")
    p.add_argument("problem", help="problem file (PDDL subset)")
    p.add_argument("--pipeline", choices=["tp4", "hspa"], default="tp4")
    p.add_argument("--mode", choices=["seq", "par", "temp"], default="seq")
    p.add_argument("--stop", default="fixed:3",
                   help="relaxed-search stopping rule: fixed:M, no-and or converged")
    p.add_argument("--round-durations", action="store_true",
                   help="round every duration up to the next integer")
    p.add_argument("--no-right-shift", action="store_true",
                   help="disable the right-shift pruning rule")
    p.add_argument("--tt-size", type=int, default=1 << 16, metavar="N",
                   help="transposition table capacity")
    p.add_argument("--solved-size", type=int, default=1 << 16, metavar="N",
                   help="solved table capacity")
    p.add_argument("--trace", metavar="OUT.CSV",
                   help="write the bound evolution trace")
    p.add_argument("--metrics", metavar="OUT.CSV",
                   help="write per-space search metrics")
    p.add_argument("--validate", action="store_true",
                   help="simulate the plan before reporting it")
    p.add_argument("--first-iteration-only", action="store_true",
                   help="collect metrics only during each search's first iteration")
    p.add_argument("--upper-limit", metavar="R", default=None,
                   help="stop once the bound exceeds this rational cost")
    return parser


def _plan(args: argparse.Namespace) -> int:
    try:
        upper = INF if args.upper_limit is None else Fraction(args.upper_limit)
    except (ValueError, ZeroDivisionError):
        print(f"hmplan: invalid --upper-limit {args.upper_limit!r}", file=sys.stderr)
        return 2
    mode = _MODES[args.mode]
    try:
        problem = load(args.domain, args.problem, mode)
    except (PddlError, OSError) as exc:
        print(f"hmplan: {exc}", file=sys.stderr)
        return 2
    if args.round_durations:
        problem = round_durations_up(problem)

    config = PlannerConfig(
        pipeline=args.pipeline,
        stop=args.stop,
        right_shift=not args.no_right_shift,
        tt_size=args.tt_size,
        solved_size=args.solved_size,
        upper_limit=upper,
    )
    # Only the artifacts read the recorder; without them the run counts nothing.
    recorder = None
    if args.trace or args.metrics:
        # Fail before the search, not after it, on a path that cannot be written.
        for path in filter(None, (args.trace, args.metrics)):
            try:
                open(path, "a").close()
            except OSError as exc:
                print(f"hmplan: cannot write {path}: {exc.strerror}", file=sys.stderr)
                return 2
        recorder = Recorder(first_iteration_only=args.first_iteration_only)
    try:
        result = run_pipeline(problem, config, recorder)
    except ValueError as exc:
        print(f"hmplan: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"hmplan: out of resources: {type(exc).__name__}", file=sys.stderr)
        return 3

    if args.trace:
        write_trace_csv(args.trace, recorder.trace)
    if args.metrics:
        write_metrics_csv(args.metrics, collect_metrics(recorder.events))

    if result.outcome == "unsolvable":
        print("hmplan: problem proven unsolvable", file=sys.stderr)
        return 1
    if result.outcome == "limit":
        print(
            f"hmplan: no solution within limit {fmt_cost(upper)} "
            f"(next bound {fmt_cost(result.next_bound)})",
            file=sys.stderr,
        )
        return 1
    assert result.plan is not None
    if args.validate:
        verdict = validate_plan(problem, result.plan)
        if not verdict.ok:
            print(f"hmplan: {verdict.report()}", file=sys.stderr)
            return 3
    metric_name = "cost" if mode is Mode.SEQUENTIAL else "makespan"
    print(f"; {metric_name} {fmt_cost(result.cost)}")
    out = result.plan.format(mode)
    if out:
        print(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "plan":
        return _plan(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
