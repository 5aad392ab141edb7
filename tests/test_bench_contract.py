"""The hooks the benchmark in `bench/` installs around the planner.

`bench/tracing.py` wraps public entry points of each layer and reads some of
their results (`compute_base_heuristic(...).sets`/`.rounds`,
`IdaStar.run().stats.iterations`, the cut count `TemporalSpace.successors`
returns, `TranspositionTable.get` and `SolvedTable.get` returning None on a
miss), and `bench/worker.py` reads the Recorder's bound trace.  These tests run the benchmark's own tracer, counter
and checks on a few small problems, so a change that breaks one of those
hooks fails here rather than only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
from hmplan import fixtures, pddl, pipeline  # noqa: E402
from hmplan.metrics import Recorder  # noqa: E402
from hmplan.model import Mode  # noqa: E402
from hmplan.pipeline import PlannerConfig  # noqa: E402

DATA = Path(__file__).parent / "data"
HSPA = PlannerConfig(pipeline="hspa", stop="fixed:3")


def observation_pddl():
    """tests/data's observation pair, read through the PDDL layer."""
    domain = pddl.parse_domain((DATA / "observation-domain.pddl").read_text(),
                               "observation-domain.pddl")
    problem = pddl.parse_problem((DATA / "observation-1.pddl").read_text(),
                                 "observation-1.pddl")
    return pddl.ground(domain, problem, Mode.SEQUENTIAL)


# [DERIVED: brute-force optimal cost 7 and makespan 6, as in test_pipeline]
CASES = {
    "sequential": (fixtures.satellite, 7),
    "temporal": (lambda: fixtures.satellite(mode=Mode.TEMPORAL), 6),
    "pddl": (observation_pddl, 7),
}


@pytest.mark.parametrize("case", list(CASES))
def test_traced_run_checks_clean(case):
    build, cost = CASES[case]
    tracer = tracing.Tracer()
    recorder = Recorder()
    with tracer.installed():
        problem = build()
        result = pipeline.run_pipeline(problem, HSPA, recorder)
    assert result.outcome == "solved" and result.cost == cost
    roots = worker.root_values(problem, result, recorder)
    assert worker.check(problem, result, cost, roots) == []
    layers = tracing.layer_metrics(tracer, len(recorder.events),
                                   tuple(float(r) for r in roots))
    assert layers["hm.sets"] > 0
    assert layers["idastar.iterations"] > 0
    # The tracer reads IDA*'s iterations from its result's stats, the
    # Recorder gets one "ida" bound record per iteration: the two agree.
    assert layers["idastar.iterations"] == sum(r.phase == "ida" for r in recorder.trace)
    assert layers["idao.passes"] > 0
    # Each table's first probe finds it empty: a get that answered a miss
    # with anything but None would count every probe as a hit.
    assert layers["idastar.tt_hits"] < layers["idastar.tt_probes"]
    assert layers["idao.solved_hits"] < layers["idao.solved_probes"]
    # The cut count reaches the benchmark only through the tracer's hook on
    # `TemporalSpace.successors`: nothing in the planner reads it.
    if case == "temporal":
        assert layers["temporal.right_shift_cuts"] > 0
    else:
        assert layers["temporal.right_shift_cuts"] == 0
    if case == "pddl":
        assert layers["pddl.atoms"] == len(problem.atoms)


@pytest.mark.parametrize("case", list(CASES))
def test_counted_expansions_match_recorder(case):
    # The benchmark counts expansions at the calls into the search spaces;
    # the Recorder counts them where the searches expand a node.
    build, _ = CASES[case]
    problem = build()
    counting = tracing.Counting()
    recorder = Recorder()
    with counting.installed():
        pipeline.run_pipeline(problem, HSPA, recorder)
    assert counting.expansions == recorder.expansions > 0
