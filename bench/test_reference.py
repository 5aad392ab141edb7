"""The benchmark's references: closed forms agree with the forward searches
on small sizes, and the per-instance checks reject a wrong answer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import srcpath  # noqa: F401
from hmplan import Mode, PlannerConfig, Recorder, fixtures, pddl, run_pipeline
import instances
import reference
import worker


def ground(texts, mode=Mode.SEQUENTIAL):
    domain, problem = texts
    return pddl.ground(pddl.parse_domain(domain), pddl.parse_problem(problem), mode)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gripper_closed_form(n):
    problem = ground(instances.gripper(n, random.Random(n)))
    assert reference.forward_ucs(problem) == reference.gripper_cost(n)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_chain_closed_form(n):
    assert reference.forward_ucs(fixtures.chain(n)) == reference.chain_cost(n)


@pytest.mark.parametrize("depth,width", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_growing_closed_form(depth, width):
    problem = fixtures.growing(depth, width)
    assert reference.forward_ucs(problem) == reference.growing_cost(depth, width)


@pytest.mark.parametrize("lengths", [[1], [2, 1], [3, 1, 2]])
def test_assembly_closed_form_with_unit_durations(lengths):
    chains = [[Fraction(1)] * k for k in lengths]
    problem = ground(instances.assembly(chains, Fraction(1)), Mode.PARALLEL)
    assert reference.forward_layers(problem) == \
        reference.assembly_makespan(chains, Fraction(1))


def test_relevance_pruning_keeps_the_optimum():
    rng = random.Random(0)
    alone = ground(instances.logistics(2, [("loc1", "apt2")], rng))
    crowded = ground(instances.logistics(
        2, [("loc1", "apt2"), ("apt1", None), ("loc2", None)], rng))
    assert len(reference.relevant_actions(crowded)) < len(crowded.actions)
    # truck to loc1, load, back, unload, load plane, fly, unload
    assert reference.forward_ucs(crowded) == reference.forward_ucs(alone) == 7


def test_check_rejects_a_wrong_cost():
    problem = ground(instances.gripper(2, random.Random(0)))
    recorder = Recorder()
    result = run_pipeline(problem, PlannerConfig(pipeline="hspa", stop="fixed:3"), recorder)
    roots = worker.root_values(problem, result, recorder)
    assert worker.check(problem, result, result.cost, roots) == []
    errors = worker.check(problem, result, result.cost + 1, roots)
    assert errors and "reference" in errors[0]
