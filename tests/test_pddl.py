from fractions import Fraction
from pathlib import Path

import pytest

from hmplan.model import Mode
from hmplan.pddl import (
    PddlError,
    ground,
    load,
    parse,
    parse_domain,
    parse_problem,
    parse_sexprs,
)

DATA = Path(__file__).parent / "data"


def read(name):
    return (DATA / name).read_text()


@pytest.fixture(scope="module")
def observation():
    return parse(read("observation-domain.pddl"), read("observation-1.pddl"))


@pytest.fixture(scope="module")
def workshop():
    return parse(read("workshop-domain.pddl"), read("workshop-1.pddl"))


class TestSexprs:
    def test_nested_lists_with_positions(self):
        (root,) = parse_sexprs("(a (b c)\n  (d))", "f.pddl")
        assert root[0].text == "a"
        assert root[1][1].text == "c"
        assert root[2][0].line == 2 and root[2][0].col == 4

    def test_comments_stripped(self):
        (root,) = parse_sexprs("(a ; trailing words\n b)", "f")
        assert [t.text for t in root] == ["a", "b"]

    def test_unbalanced_reported_with_position(self):
        with pytest.raises(PddlError) as ei:
            parse_sexprs("(a (b)", "f.pddl")
        assert "f.pddl:" in str(ei.value)


class TestDomainParsing:
    def test_observation_schemas(self, observation):
        d, _ = observation
        assert d.name == "observation"
        assert [a.name for a in d.actions] == [
            "turn", "switch-on", "calibrate", "take-image"
        ]
        turn = d.actions[0]
        assert turn.params == (("?from", "direction"), ("?to", "direction"))
        assert turn.neq == (("?from", "?to"),)
        assert not turn.durative

    def test_workshop_durations(self, workshop):
        d, _ = workshop
        durs = {a.name: a.dur for a in d.actions}
        assert durs == {"mill-a": Fraction(3, 2), "mill-b": Fraction(5, 2),
                        "box": Fraction(0)}
        assert all(a.durative for a in d.actions)

    def test_time_annotations_collapsed(self, workshop):
        d, _ = workshop
        box = next(a for a in d.actions if a.name == "box")
        assert {l.pred for l in box.pre} == {"milled"}
        assert [l.pred for l in box.add] == ["boxed"]

    def test_problem_fields(self, observation):
        _, p = observation
        assert p.name == "observation-1"
        assert [o for o, _ in p.objects] == ["d1", "d2", "d3", "d4", "d5"]
        assert any(l.pred == "pointing" and l.args == ("d1",) for l in p.init)
        assert len(p.goal) == 2

    def test_problem_requirements_ignored(self, tmp_path):
        # PDDL lets a problem state requirements; they are the domain's to set.
        text = read("workshop-1.pddl").replace(
            "(:domain workshop)", "(:domain workshop)\n  (:requirements :strips :typing)")
        path = tmp_path / "workshop-req.pddl"
        path.write_text(text)
        domain = str(DATA / "workshop-domain.pddl")
        got = load(domain, str(path), Mode.TEMPORAL)
        want = load(domain, str(DATA / "workshop-1.pddl"), Mode.TEMPORAL)
        assert [a.name for a in got.atoms] == [a.name for a in want.atoms]
        assert [(a.name, a.dur) for a in got.actions] == [(a.name, a.dur) for a in want.actions]
        assert (got.init, got.goal) == (want.init, want.goal)


class TestRejections:
    def err(self, text):
        with pytest.raises(PddlError) as ei:
            parse_domain(text, "d.pddl")
        return str(ei.value)

    def test_derived_predicates(self):
        msg = self.err("(define (domain x) (:derived (p) (q)))")
        assert "derived predicates" in msg and "d.pddl:1:" in msg

    def test_numeric_fluents(self):
        assert "numeric fluents" in self.err(
            "(define (domain x) (:functions (total-cost)))"
        )

    def test_disjunctive_precondition(self):
        assert "disjunctive condition" in self.err(
            "(define (domain x) (:predicates (p) (q)) (:action a "
            ":parameters () :precondition (or (p) (q)) :effect (and (p))))"
        )

    def test_quantified_condition(self):
        assert "universal quantifier" in self.err(
            "(define (domain x) (:types t) (:predicates (p ?x - t)) (:action a "
            ":parameters () :precondition (forall (?x - t) (p ?x)) "
            ":effect (and (p ?x))))"
        )

    def test_conditional_effect(self):
        assert "conditional effect" in self.err(
            "(define (domain x) (:predicates (p) (q)) (:action a "
            ":parameters () :precondition (and) "
            ":effect (when (p) (q))))"
        )

    def test_computed_duration(self):
        assert "duration" in self.err(
            "(define (domain x) (:predicates (p)) (:durative-action a "
            ":parameters () :duration (= ?duration (travel-time)) "
            ":condition (and) :effect (and (at end (p)))))"
        )

    def test_negative_literal_goal(self):
        with pytest.raises(PddlError) as ei:
            parse_problem(
                "(define (problem y) (:domain x) (:init) (:goal (not (p))))",
                "p.pddl",
            )
        assert "p.pddl:" in str(ei.value)


_ACTION = ("(define (domain x) (:predicates (p ?a) (q ?a))\n"
           " (:action a :parameters (?a ?b) {}))")


@pytest.mark.parametrize("parse, text, where", [
    (parse_domain, _ACTION.format(":effect (not)"), "f.pddl:2:"),
    (parse_domain, _ACTION.format(":precondition (= ?a) :effect (p ?a)"), "f.pddl:2:"),
    (parse_domain, _ACTION.format(":precondition (not (= ?a)) :effect (p ?a)"),
     "f.pddl:2:"),
    (parse_domain, _ACTION.format(":parameters ?a :effect (p ?a)"), "f.pddl:2:"),
    (parse_domain, "(define)", "f.pddl:1:1:"),
    (parse_problem, "(define (problem y) (:domain))", "f.pddl:1:21:"),
    (parse_problem, "(define (problem y) (:domain x) (:goal))", "f.pddl:1:33:"),
    (parse_problem, "(foo (problem p) (:domain d) (:init) (:goal (and)))", "f.pddl:1:1:"),
], ids=["not-effect", "eq-arity", "neq-arity", "params-token", "define",
        "domain-section", "goal-section", "problem-define"])
def test_malformed_forms_rejected_with_position(parse, text, where):
    with pytest.raises(PddlError) as ei:
        parse(text, "f.pddl")
    assert str(ei.value).startswith(where)


# A bad literal goes on a line of its own: line 3 of the domain (in the
# action's precondition), line 2 of the problem (:init) or line 4 (:goal).
_GROUND_DOMAIN = ("(define (domain x) (:predicates (p ?a) (q))\n"
                  " (:action a :parameters (?x) :precondition (and\n"
                  "{}\n"
                  " ) :effect (p ?x)))")
_GROUND_PROBLEM = ("(define (problem y) (:domain x) (:objects o) (:init\n"
                   "{}\n"
                   " ) (:goal (and (q)\n"
                   "{}\n"
                   " )))")
_PLACES = {"init": (1, "p.pddl:2:1:", "in problem"),
           "goal": (2, "p.pddl:4:1:", "in problem"),
           "action": (0, "d.pddl:3:1:", "in action a")}


@pytest.mark.parametrize("place", list(_PLACES))
@pytest.mark.parametrize("literal, message", [
    ("(r)", "undeclared predicate 'r'"),
    ("(p)", "wrong arity for 'p'"),
    ("(p z)", "undeclared object 'z'"),
    ("(p ?y)", "unbound variable ?y"),
], ids=["predicate", "arity", "object", "variable"])
def test_ground_errors_name_file_and_position(place, literal, message):
    slot, where, ctx = _PLACES[place]
    texts = ["", "", ""]
    texts[slot] = literal
    domain = parse_domain(_GROUND_DOMAIN.format(texts[0]), "d.pddl")
    problem = parse_problem(_GROUND_PROBLEM.format(*texts[1:]), "p.pddl")
    with pytest.raises(PddlError) as ei:
        ground(domain, problem)
    assert str(ei.value) == f"{where} {message} {ctx}"


@pytest.mark.parametrize("domain, problem, message", [
    ("(:types a - b b - a)", "", "d.pddl: type cycle through"),
    ("(:constants o)", "(:objects o)", "p.pddl: object 'o' declared twice"),
    ("", "(:objects o - t)", "p.pddl: object 'o' has undeclared type 't'"),
], ids=["type-cycle", "declared-twice", "object-type"])
def test_ground_errors_name_file(domain, problem, message):
    d = parse_domain(f"(define (domain x) {domain} (:predicates (q)))", "d.pddl")
    p = parse_problem(f"(define (problem y) (:domain x) {problem} (:init) "
                      "(:goal (q)))", "p.pddl")
    with pytest.raises(PddlError) as ei:
        ground(d, p)
    assert str(ei.value).startswith(message)


def test_unbound_constraint_variable_reported_at_action():
    d = parse_domain("(define (domain x) (:predicates (q))\n"
                     " (:action a :parameters (?x)\n"
                     "  :precondition (not (= ?x ?y)) :effect (q)))", "d.pddl")
    p = parse_problem("(define (problem y) (:domain x) (:init) (:goal (q)))",
                      "p.pddl")
    with pytest.raises(PddlError) as ei:
        ground(d, p)
    assert str(ei.value) == "d.pddl:2:2: unbound variable ?y in action a"


class TestGrounding:
    def test_observation_counts(self, observation):
        # [DERIVED: 5*4 turn + 1 switch-on + 1 calibrate + 5 take-image]
        d, pr = observation
        p = ground(d, pr)
        assert len(p.actions) == 27
        assert len(p.atoms) == 12  # statics eliminated
        assert p.init == p.atom_set("pointing d1")
        assert p.goal == p.atom_set("have-image d4", "have-image d5")

    def test_static_elimination_keeps_true_instances_only(self, observation):
        d, pr = observation
        p = ground(d, pr)
        cals = [a for a in p.actions if a.name.startswith("calibrate")]
        assert [a.name for a in cals] == ["calibrate d2"]
        assert "calibration-target d2" not in {a.name for a in p.atoms}

    def test_inequality_constraint_prunes_bindings(self, observation):
        d, pr = observation
        p = ground(d, pr)
        turns = [a for a in p.actions if a.name.startswith("turn")]
        assert len(turns) == 20
        assert "turn d1 d1" not in {a.name for a in turns}

    def test_sequential_grounding_forces_unit_durations(self, workshop):
        d, pr = workshop
        p = ground(d, pr)
        assert p.mode is Mode.SEQUENTIAL
        assert all(a.dur == 1 and a.cost == 1 for a in p.actions)

    def test_temporal_grounding_keeps_durations(self, workshop):
        d, pr = workshop
        p = ground(d, pr, Mode.TEMPORAL)
        durs = {a.name: a.dur for a in p.actions}
        assert durs["mill-a"] == Fraction(3, 2)
        assert durs["box"] == 0

    def test_determinism(self, observation):
        d, pr = observation
        a = ground(d, pr)
        b = ground(d, pr)
        assert [x.name for x in a.actions] == [x.name for x in b.actions]
        assert [x.name for x in a.atoms] == [x.name for x in b.atoms]

    def test_load_from_files(self):
        p = load(str(DATA / "observation-domain.pddl"),
                 str(DATA / "observation-1.pddl"))
        assert len(p.actions) == 27 and p.mode is Mode.SEQUENTIAL
