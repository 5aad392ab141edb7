"""Seeded PDDL generators and the make-up of each benchmark workload.

Every generator returns PDDL text (domain, problem); the planner sees only
that text.  A seed shuffles object declaration order and init fact order
(except in observation(), which says why),
which renumbers atoms and actions and so changes the searches' tie-breaking,
and draws the free parameters named in each generator's docstring.  The size
and shape of every instance are fixed per workload, so the work a round does
stays close from one seed to the next.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import srcpath  # noqa: F401  (puts the checkout's planner on sys.path)
from hmplan import Mode, Problem, fixtures

SEQ = Mode.SEQUENTIAL
PAR = Mode.PARALLEL
TEMP = Mode.TEMPORAL


def _objects(rng: random.Random, typed: list[tuple[str, str]]) -> str:
    typed = list(typed)
    rng.shuffle(typed)
    return " ".join(f"{o} - {t}" for o, t in typed)


def _facts(rng: random.Random, facts: list[str]) -> str:
    facts = list(facts)
    rng.shuffle(facts)
    return " ".join(facts)


def _problem(name: str, domain: str, objects: str, init: str, goal: list[str]) -> str:
    return (
        f"(define (problem {name})\n  (:domain {domain})\n"
        f"  (:objects {objects})\n  (:init {init})\n"
        f"  (:goal (and {' '.join(goal)})))\n"
    )


GRIPPER_DOMAIN = """
(define (domain gripper)
  (:requirements :strips :typing)
  (:types room ball gripper)
  (:predicates (at-robby ?r - room) (at ?b - ball ?r - room)
               (free ?g - gripper) (carry ?b - ball ?g - gripper))
  (:action move
    :parameters (?from ?to - room)
    :precondition (and (at-robby ?from) (not (= ?from ?to)))
    :effect (and (at-robby ?to) (not (at-robby ?from))))
  (:action pick
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (at ?b ?r) (at-robby ?r) (free ?g))
    :effect (and (carry ?b ?g) (not (at ?b ?r)) (not (free ?g))))
  (:action drop
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (carry ?b ?g) (at-robby ?r))
    :effect (and (at ?b ?r) (free ?g) (not (carry ?b ?g)))))
"""


def gripper(n: int, rng: random.Random) -> tuple[str, str]:
    """n balls from room a to room b with two grippers."""
    balls = [f"ball{i}" for i in range(1, n + 1)]
    objs = [("rooma", "room"), ("roomb", "room"), ("left", "gripper"),
            ("right", "gripper")] + [(b, "ball") for b in balls]
    init = ["(at-robby rooma)", "(free left)", "(free right)"]
    init += [f"(at {b} rooma)" for b in balls]
    goal = [f"(at {b} roomb)" for b in balls]
    return GRIPPER_DOMAIN, _problem(f"gripper-{n}", "gripper", _objects(rng, objs),
                                    _facts(rng, init), goal)


BLOCKS_DOMAIN = """
(define (domain blocksworld)
  (:requirements :strips :typing)
  (:types block)
  (:predicates (on ?x ?y - block) (ontable ?x - block) (clear ?x - block)
               (handempty) (holding ?x - block))
  (:action pick-up
    :parameters (?x - block)
    :precondition (and (clear ?x) (ontable ?x) (handempty))
    :effect (and (holding ?x) (not (ontable ?x)) (not (clear ?x)) (not (handempty))))
  (:action put-down
    :parameters (?x - block)
    :precondition (and (holding ?x))
    :effect (and (ontable ?x) (clear ?x) (handempty) (not (holding ?x))))
  (:action stack
    :parameters (?x ?y - block)
    :precondition (and (holding ?x) (clear ?y) (not (= ?x ?y)))
    :effect (and (on ?x ?y) (clear ?x) (handempty) (not (holding ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?x ?y - block)
    :precondition (and (on ?x ?y) (clear ?x) (handempty) (not (= ?x ?y)))
    :effect (and (holding ?x) (clear ?y) (not (on ?x ?y)) (not (clear ?x))
                 (not (handempty)))))
"""


def blocksworld(start: list[list[int]], goal: list[list[int]],
                rng: random.Random) -> tuple[str, str]:
    """Blocks stacked as in `start`, to be stacked as in `goal`; towers list
    block numbers bottom first, and the goal names every `on` relation of
    its towers.  The seed decides which name each block number gets."""
    n = sum(len(t) for t in start)
    names = [f"b{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    init = ["(handempty)"]
    for t in start:
        init += [f"(ontable {names[t[0]]})", f"(clear {names[t[-1]]})"]
        init += [f"(on {names[t[i + 1]]} {names[t[i]]})" for i in range(len(t) - 1)]
    on = [f"(on {names[t[i + 1]]} {names[t[i]]})" for t in goal for i in range(len(t) - 1)]
    return BLOCKS_DOMAIN, _problem(f"blocks-{n}", "blocksworld",
                                   _objects(rng, [(b, "block") for b in names]),
                                   _facts(rng, init), on)


LOGISTICS_DOMAIN = """
(define (domain logistics)
  (:requirements :strips :typing)
  (:types truck airplane - vehicle package vehicle - physobj
          airport - location location city)
  (:predicates (in-city ?l - location ?c - city) (at ?o - physobj ?l - location)
               (in ?p - package ?v - vehicle))
  (:action load-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at ?t ?l) (at ?p ?l))
    :effect (and (in ?p ?t) (not (at ?p ?l))))
  (:action load-airplane
    :parameters (?p - package ?a - airplane ?l - airport)
    :precondition (and (at ?a ?l) (at ?p ?l))
    :effect (and (in ?p ?a) (not (at ?p ?l))))
  (:action unload-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at ?t ?l) (in ?p ?t))
    :effect (and (at ?p ?l) (not (in ?p ?t))))
  (:action unload-airplane
    :parameters (?p - package ?a - airplane ?l - airport)
    :precondition (and (at ?a ?l) (in ?p ?a))
    :effect (and (at ?p ?l) (not (in ?p ?a))))
  (:action drive-truck
    :parameters (?t - truck ?from ?to - location ?c - city)
    :precondition (and (at ?t ?from) (in-city ?from ?c) (in-city ?to ?c)
                       (not (= ?from ?to)))
    :effect (and (at ?t ?to) (not (at ?t ?from))))
  (:action fly-airplane
    :parameters (?a - airplane ?from ?to - airport)
    :precondition (and (at ?a ?from) (not (= ?from ?to)))
    :effect (and (at ?a ?to) (not (at ?a ?from)))))
"""


def logistics(cities: int, packages: list[tuple[str, str | None]],
              rng: random.Random) -> tuple[str, str]:
    """`cities` cities, each with an airport apt<c>, a street location
    loc<c> and a truck parked at its airport, and one airplane at apt1.
    Package i starts at packages[i][0] and, unless that goal is None, must
    end at packages[i][1]."""
    objs: list[tuple[str, str]] = [("plane1", "airplane")]
    init = ["(at plane1 apt1)"]
    for c in range(1, cities + 1):
        objs += [(f"city{c}", "city"), (f"apt{c}", "airport"), (f"loc{c}", "location"),
                 (f"truck{c}", "truck")]
        init += [f"(in-city apt{c} city{c})", f"(in-city loc{c} city{c})",
                 f"(at truck{c} apt{c})"]
    goal = []
    for i, (start, end) in enumerate(packages, 1):
        objs.append((f"pkg{i}", "package"))
        init.append(f"(at pkg{i} {start})")
        if end is not None:
            goal.append(f"(at pkg{i} {end})")
    return LOGISTICS_DOMAIN, _problem(
        f"logistics-{cities}x{len(packages)}", "logistics", _objects(rng, objs),
        _facts(rng, init), goal)


OBSERVATION_DOMAIN = """
(define (domain observation)
  (:requirements :strips :typing)
  (:types direction)
  (:predicates (pointing ?d - direction) (calibration-target ?d - direction)
               (power-on) (calibrated) (have-image ?d - direction))
  (:action turn
    :parameters (?from ?to - direction)
    :precondition (and (pointing ?from) (not (= ?from ?to)))
    :effect (and (pointing ?to) (not (pointing ?from))))
  (:action switch-on
    :parameters ()
    :precondition (and)
    :effect (and (power-on)))
  (:action calibrate
    :parameters (?d - direction)
    :precondition (and (calibration-target ?d) (pointing ?d) (power-on))
    :effect (and (calibrated)))
  (:action take-image
    :parameters (?d - direction)
    :precondition (and (pointing ?d) (power-on) (calibrated))
    :effect (and (have-image ?d))))
"""


DIRECTIONS = ["d1", "d2", "d3", "d4", "d5"]


def observation(images: list[str]) -> tuple[str, str]:
    """One satellite and directions d1..d5, as in fixtures.satellite: it
    starts pointing at d1, calibrates at d2 and must image `images`.

    Unlike the other generators this one takes no seed.  The order of its
    five directions alone moves the work of a search by up to 65 %
    (observation-5 under tp4 makes 631, 729 or 1,039 expansions as the
    order changes), more than all the other instances of a workload
    together, so the directions keep their declared order d1..d5."""
    dirs = [f"d{i}" for i in range(1, 6)]
    goal = [f"(have-image {d})" for d in images]
    init = ["(pointing d1)", "(calibration-target d2)"]
    return OBSERVATION_DOMAIN, _problem(
        f"observation-{len(images)}", "observation",
        " ".join(f"{d} - direction" for d in dirs), " ".join(init), goal)


WORKSHOP_DOMAIN = """
(define (domain workshop)
  (:requirements :strips :typing :durative-actions)
  (:types part)
  (:predicates (raw) (milled ?p - part) (boxed))
  (:durative-action mill-a
    :parameters ()
    :duration (= ?duration 1.5)
    :condition (and (at start (raw)))
    :effect (and (at end (milled a))))
  (:durative-action mill-b
    :parameters ()
    :duration (= ?duration 2.5)
    :condition (and (at start (raw)))
    :effect (and (at end (milled b))))
  (:durative-action box
    :parameters ()
    :duration (= ?duration 0)
    :condition (and (at start (milled a)) (at start (milled b)))
    :effect (and (at end (boxed)))))
"""

WORKSHOP_PROBLEM = """
(define (problem workshop-1)
  (:domain workshop)
  (:objects a b - part)
  (:init (raw))
  (:goal (and (boxed))))
"""

DURATIONS = tuple(Fraction(n, 2) for n in range(1, 7))  # 1/2 .. 3


def assembly(chains: list[list[Fraction]], final: Fraction) -> tuple[str, str]:
    """Durative parts line: part i runs its chain of steps in order (step j
    needs step j-1 done), then `assemble` needs every part finished.  Nothing
    deletes anything, so all chains overlap and the optimal makespan is
    max(sum(chain)) + final."""
    preds = ["(raw)", "(assembled)"]
    acts = []
    for i, chain in enumerate(chains, 1):
        for j, dur in enumerate(chain, 1):
            preds.append(f"(done-{i}-{j})")
            need = "(raw)" if j == 1 else f"(done-{i}-{j - 1})"
            acts.append(
                f"  (:durative-action step-{i}-{j}\n    :parameters ()\n"
                f"    :duration (= ?duration {dur})\n"
                f"    :condition (and (at start {need}))\n"
                f"    :effect (and (at end (done-{i}-{j}))))")
    last = " ".join(f"(at start (done-{i}-{len(c)}))" for i, c in enumerate(chains, 1))
    acts.append(
        f"  (:durative-action assemble\n    :parameters ()\n"
        f"    :duration (= ?duration {final})\n"
        f"    :condition (and {last})\n    :effect (and (at end (assembled))))")
    domain = ("(define (domain assembly)\n  (:requirements :strips :durative-actions)\n"
              f"  (:predicates {' '.join(preds)})\n" + "\n".join(acts) + ")\n")
    return domain, _problem("assembly", "assembly", "", "(raw)", ["(assembled)"])


def random_chains(parts: int, steps: int,
                  rng: random.Random) -> tuple[list[list[Fraction]], Fraction]:
    """`parts` chains of `steps` durations drawn from DURATIONS, and a final
    duration drawn from {0} + DURATIONS."""
    chains = [[rng.choice(DURATIONS) for _ in range(steps)] for _ in range(parts)]
    return chains, rng.choice((Fraction(0),) + DURATIONS)


@dataclass
class Instance:
    """One problem of a workload, and the (pipeline, stop rule) runs that
    solve it.

    `pddl` is (domain text, problem text) for a generated instance; `build`
    makes the Problem directly for a library fixture.  `params` tells
    reference.py which closed form applies, if any."""

    name: str
    mode: Mode
    runs: list[tuple[str, str]]
    pddl: tuple[str, str] | None = None
    build: Callable[[], Problem] | None = None
    params: dict = field(default_factory=dict)


TP4 = [("tp4", "fixed:3")]
HSPA3 = [("hspa", "fixed:3")]
HSPA4 = [("hspa", "fixed:4")]
BOTH = [("tp4", "fixed:3"), ("hspa", "fixed:3")]

# The workshop problem and fixtures.temporal_mix: mill a (3/2) and mill b
# (5/2) side by side, then an instantaneous packing step.
WORKSHOP_CHAINS = {"family": "assembly", "chains": [[Fraction(3, 2)], [Fraction(5, 2)]],
                   "final": Fraction(0)}


def _sequential(rng: random.Random, runs, deep_runs) -> list[Instance]:
    """The sequential instances shared by seq-search and seq-boost; the
    `deep_runs` ones are taken one boosting level further in seq-boost."""
    return [
        Instance("gripper-3", SEQ, runs, gripper(3, rng), params={"family": "gripper", "n": 3}),
        Instance("observation-5", SEQ, runs, observation(DIRECTIONS)),
        Instance("blocks-4", SEQ, runs, blocksworld([[0, 1], [2, 3]], [[3, 0], [1, 2]], rng)),
        Instance("blocks-5", SEQ, deep_runs,
                 blocksworld([[0, 1, 2], [3, 4]], [[4, 0], [2, 3, 1]], rng)),
        Instance("logistics-2x3", SEQ, deep_runs, logistics(
            2, [("apt1", "loc1"), ("loc1", "apt1"), ("loc2", "apt2")], rng)),
    ]


def workload(name: str, seed: int) -> list[Instance]:
    """The instances of one workload, drawn from `seed`."""
    rng = random.Random(f"{name}/{seed}")
    if name == "seq-search":
        return _sequential(rng, TP4, TP4)
    if name == "seq-boost":
        return _sequential(rng, HSPA3, HSPA4) + [
            Instance("growing-2x5", SEQ, HSPA4, build=lambda: fixtures.growing(2, 5),
                     params={"family": "growing", "d": 2, "w": 5}),
        ]
    if name == "temporal":
        chains, final = random_chains(3, 3, rng)
        return [
            Instance("satellite-4-temp", TEMP, BOTH,
                     build=lambda: fixtures.satellite(("d2", "d3", "d4", "d5"), TEMP)),
            Instance("observation-4-par", PAR, BOTH,
                     observation(["d1", "d3", "d4", "d5"])),
            Instance("gripper-3-par", PAR, BOTH, gripper(3, rng)),
            Instance("temporal-mix", TEMP, BOTH, build=fixtures.temporal_mix,
                     params=WORKSHOP_CHAINS),
            Instance("workshop", TEMP, BOTH, (WORKSHOP_DOMAIN, WORKSHOP_PROBLEM),
                     params=WORKSHOP_CHAINS),
            Instance("assembly-3x3", TEMP, BOTH, assembly(chains, final),
                     params={"family": "assembly", "chains": chains, "final": final}),
        ]
    if name == "ground-heavy":
        # Three mid-sized logistics problems rather than one large one: a
        # single solve of several seconds (logistics-4x6, 114 atoms) cannot
        # be paired with the speed measured around it (see speed.py).
        return [
            Instance("logistics-4x3", SEQ, TP4, logistics(4, [
                ("loc1", "apt1"), ("apt2", None), ("loc3", None)], rng)),
            Instance("logistics-3x5", SEQ, TP4, logistics(3, [
                ("loc1", "apt1"), ("apt2", None), ("loc3", None), ("loc2", None),
                ("apt3", None)], rng)),
            Instance("logistics-3x4", SEQ, TP4, logistics(3, [
                ("loc2", "apt2"), ("apt1", None), ("loc3", None), ("loc1", None)], rng)),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("seq-search", "seq-boost", "temporal", "ground-heavy")
