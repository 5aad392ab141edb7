from fractions import Fraction
from pathlib import Path
import re

import pytest
from hypothesis import given, settings, strategies as st

from hmplan import PlannerConfig, run_pipeline
from hmplan.model import Mode, Problem
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


@st.composite
def _balanced_texts(draw):
    """A text over the characters `() \t\r\n;ab?é`, made to parse: inside
    one outer list, a `)` that would close it is dropped and the lists left
    open are closed on a line of their own."""
    depth, comment, out = 1, False, ["("]
    for c in draw(st.text("() \t\r\n;ab?é", max_size=60)):
        comment = (comment or c == ";") and c != "\n"
        if not comment and c == ")":
            if depth == 1:
                continue
            depth -= 1
        elif not comment and c == "(":
            depth += 1
        out.append(c)
    return "".join(out) + "\n" + ")" * depth


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_balanced_texts())
def test_positions_point_at_the_source(text):
    lines = text.split("\n")

    def at(node, length):
        return lines[node.line - 1][node.col - 1:node.col - 1 + length]

    tokens, stack = [], parse_sexprs(text, "f")[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            assert at(node, 1) == "("
            stack.extend(reversed(node))
        else:
            assert at(node, len(node.text)) == node.text
            tokens.append(node.text)
    words = [w for line in lines for w in re.split(r"[ \t\r()]+", line.split(";")[0]) if w]
    assert tokens == words


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
    (parse_domain, "(define (domain x) (:predicates (p ?a))\n"
                   " (:action a :parameters ?a :effect (p ?a)))", "f.pddl:2:25:"),
    (parse_domain, _ACTION.format(":parameters (?a) :effect (p ?a)"), "f.pddl:2:33:"),
    (parse_domain, _ACTION.format(":duration (= ?duration 1) :effect (p ?a)"),
     "f.pddl:2:33:"),
    (parse_domain, "(define)", "f.pddl:1:1:"),
    (parse_problem, "(define (problem y) (:domain))", "f.pddl:1:21:"),
    (parse_problem, "(define (problem y) (:domain x) (:goal))", "f.pddl:1:33:"),
    (parse_problem, "(foo (problem p) (:domain d) (:init) (:goal (and)))", "f.pddl:1:1:"),
    (parse_problem, "(define (problem) (:domain d))", "f.pddl:1:9:"),
    (parse_domain, "(define (domain x)\n (:types a -))",
     "f.pddl:2:12: missing type after '-'"),
    (parse_domain, "(define (domain x)\n (:action))", "f.pddl:2:2: action needs a name"),
    (parse_domain, "(define (domain x)\n (:action a :parameters))",
     "f.pddl:2:13: missing value after :parameters"),
    (parse_domain, "(define (domain x) (:predicates (q))\n (:durative-action a "
                   ":parameters () :duration (= ?duration -1) :effect (at end (q))))",
     "f.pddl:2:47: duration must be nonnegative"),
    (parse_problem, "(define (problem y) (:domain x)\n (:init (= (f) 1)) (:goal (and)))",
     "f.pddl:2:9: unsupported feature: numeric fluent in :init"),
    (parse_problem, "(define (problem y) (:domain x) (:init)\n (:goal (and (= a b))))",
     "f.pddl:2:2: equality has no place in a ground goal"),
    (parse_domain, "(define (domain x) (:predicates (q))\n (:durative-action a "
                   ":parameters () :duration (= ?duration 1)\n"
                   "  :condition (and (q)) :effect (at end (q))))",
     "f.pddl:3:20: expected (at start ..), (at end ..) or (over all ..)"),
], ids=["not-effect", "eq-arity", "neq-arity", "params-token", "params-twice",
        "foreign-keyword", "define", "domain-section", "goal-section",
        "problem-define", "problem-head", "type-missing", "action-name",
        "params-value", "negative-duration", "init-fluent", "goal-equality",
        "unannotated-condition"])
def test_malformed_forms_rejected_with_position(parse, text, where):
    with pytest.raises(PddlError) as ei:
        parse(text, "f.pddl")
    assert str(ei.value).startswith(where)


# Each edit of the workshop pair gives a second meaning to one form; the
# error names that form's file and the position of the repeated or
# mismatched name or keyword.
@pytest.mark.parametrize("file, old, new, message", [
    ("p", "(:goal (and (boxed)))", "(:goal (and (boxed)))\n  (:goal (and (raw)))",
     "p.pddl:6:4: :goal section given twice"),
    ("p", "(:objects a b - part)", "(:objects a b - part)\n  (:objects c - part)",
     "p.pddl:4:4: :objects section given twice"),
    ("p", "(:domain workshop)", "(:domain other)",
     "p.pddl:2:12: problem is for domain 'other', not 'workshop'"),
    ("p", "(:domain workshop)", "",
     "p.pddl:1:18: problem workshop-1 has no (:domain <name>) section"),
    ("p", "(:goal (and (boxed)))", "",
     "p.pddl:1:18: problem workshop-1 has no (:goal <condition>) section"),
    ("d", "action mill-b", "action mill-a",
     "d.pddl:10:21: action 'mill-a' declared twice"),
    ("d", "(= ?duration 1.5)", "(= ?duration 1.5)\n    :duration (= ?duration 9)",
     "d.pddl:8:5: :duration given twice"),
    ("d", "part) (boxed))", "part) (boxed))\n  (:predicates (cut))",
     "d.pddl:5:4: :predicates section given twice"),
    ("d", "part) (boxed))", "part) (boxed) (raw ?p - part))",
     "d.pddl:4:50: predicate 'raw' declared twice"),
    ("d", "(= ?duration 1.5)", "(= ?duration 1.5)\n    :precondition (and (raw))",
     "d.pddl:8:5: expected one of :parameters :duration :condition :effect, "
     "got ':precondition'"),
], ids=["goal-twice", "objects-twice", "domain-other", "domain-missing",
        "goal-missing", "action-twice", "duration-twice", "predicates-twice",
        "predicate-twice", "foreign-keyword"])
def test_one_meaning_per_form(file, old, new, message):
    texts = {"d": read("workshop-domain.pddl"), "p": read("workshop-1.pddl")}
    assert texts[file].count(old) == 1
    texts[file] = texts[file].replace(old, new)
    with pytest.raises(PddlError) as ei:
        ground(parse_domain(texts["d"], "d.pddl"), parse_problem(texts["p"], "p.pddl"))
    assert str(ei.value) == message


def _nested(form, depth=3000):
    return "(and " * depth + form + ")" * depth


def test_deep_conjunctions_ground():
    # Far deeper than Python's default recursion limit of 1000.
    domain = parse_domain(
        "(define (domain x) (:predicates (p) (q) (r))\n"
        f" (:action a :parameters () :precondition {_nested('(p)')}\n"
        f"  :effect {_nested('(and (q) (not (p)))')})\n"
        " (:durative-action b :parameters () :duration (= ?duration 2)\n"
        f"  :condition {_nested('(at start ' + _nested('(q)') + ')')}\n"
        f"  :effect {_nested('(at end (r))')}))", "d.pddl")
    problem = parse_problem("(define (problem y) (:domain x) (:init (p))\n"
                            f" (:goal {_nested('(r)')}))", "p.pddl")
    p = ground(domain, problem, Mode.TEMPORAL)
    assert [(a.name, a.dur) for a in p.actions] == [("a", 1), ("b", 2)]
    a, b = p.actions
    assert (a.pre, a.add, a.delete) == (p.atom_set("p"), p.atom_set("q"), p.atom_set("p"))
    assert (b.pre, b.add) == (p.atom_set("q"), p.atom_set("r"))
    assert p.goal == p.atom_set("r")


_PAIRS = [tuple(read(name) for name in pair) for pair in (
    ("observation-domain.pddl", "observation-1.pddl"),
    ("workshop-domain.pddl", "workshop-1.pddl"))]


@st.composite
def _token_edits(draw):
    """One of the two data pairs with 1-3 tokens deleted, replaced by a
    token of the same file, or preceded by one."""
    texts = list(draw(st.sampled_from(_PAIRS)))
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.integers(0, 1))
        spans = list(re.finditer(r"[()]|[^\s()]+", texts[which]))
        at = draw(st.sampled_from(spans))
        other = draw(st.sampled_from(spans)).group()
        new = draw(st.sampled_from(["", other, f"{other} {at.group()}"]))
        texts[which] = texts[which][:at.start()] + new + texts[which][at.end():]
    return texts


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_token_edits(), st.sampled_from(Mode))
def test_token_edits_give_problem_or_pddl_error(texts, mode):
    try:
        problem = ground(parse_domain(texts[0], "d.pddl"),
                         parse_problem(texts[1], "p.pddl"), mode)
    except PddlError:
        return
    assert isinstance(problem, Problem)


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
    ("(:action a :parameters (?x - nosuch) :effect (q))", "",
     "d.pddl:1:20: undeclared type 'nosuch' in action a"),
], ids=["type-cycle", "declared-twice", "object-type", "param-type"])
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


def _ground_small(predicates, actions, objects, goal):
    """Ground a domain with the given predicates and actions against a
    problem with the given objects, an empty init and the given goal."""
    d = parse_domain(f"(define (domain x) (:predicates {predicates}) {actions})", "d.pddl")
    p = parse_problem(f"(define (problem y) (:domain x) (:objects {objects}) "
                      f"(:init) (:goal {goal}))", "p.pddl")
    return ground(d, p)


class TestGrounding:
    @pytest.mark.parametrize("predicates, actions, objects, goal, names", [
        ("(p ?a ?b)", "(:action a :parameters (?x ?y) :precondition (= ?x ?y) "
         ":effect (p ?x ?y))", "o1 o2", "(and)", ["a o1 o1", "a o2 o2"]),
        ("(p ?a)", "(:action a :parameters (?x ?y) :effect (and (p ?x) (not (p ?y))))",
         "o1 o2", "(and)", ["a o1 o2", "a o2 o1"]),
        ("(p)", "(:action a :parameters () :effect (not (p))) "
         "(:action b :parameters () :effect (p))", "", "(p)", ["b"]),
        # The first round drops b (nothing adds n), the second a (m was b's).
        ("(m) (n) (q) (r)", "(:action a :parameters () :precondition (m) :effect (q)) "
         "(:action b :parameters () :precondition (n) :effect (m)) "
         "(:action c :parameters () :effect (and (r) (not (n))))", "", "(r)", ["c"]),
    ], ids=["equality", "add-and-delete", "no-add", "two-round-prune"])
    def test_grounded_action_names(self, predicates, actions, objects, goal, names):
        p = _ground_small(predicates, actions, objects, goal)
        assert [a.name for a in p.actions] == names

    def test_static_goal_missing_from_init_is_unsolvable(self):
        p = _ground_small("(p) (s)", "(:action a :parameters () :effect (p))",
                          "", "(and (p) (s))")
        assert [a.name for a in p.actions] == ["a"]
        assert p.goal == p.atom_set("p", "s")
        assert run_pipeline(p, PlannerConfig()).outcome == "unsolvable"

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
