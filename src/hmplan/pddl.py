"""Frontend for a STRIPS-plus-durative-actions subset of PDDL2.1.

Supported: typed parameters and objects, positive conjunctive preconditions
and goals, add/delete effects, equality and inequality parameter constraints,
durative actions with constant rational durations (`(= ?duration 3)`), with
`at start` / `over all` / `at end` annotations collapsed conservatively: all
condition atoms become preconditions, all positive effects adds, all negative
effects deletes.

Rejected with an unsupported-feature error: derived predicates, numeric
fluents, negative or disjunctive conditions, quantifiers, and conditional
effects.  All diagnostics carry `file:line:col` positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import itertools

from .model import Atom, GroundAction, Mode, Problem


class PddlError(Exception):
    """Syntax, type, or unsupported-feature error with a source position."""

    def __init__(self, message: str, filename: str = "<input>",
                 line: int = 0, col: int = 0) -> None:
        where = f"{filename}:{line}:{col}" if line else filename
        super().__init__(f"{where}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# s-expressions

@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


class SList(list):
    """A parenthesized group; remembers where it was opened."""

    def __init__(self, line: int, col: int) -> None:
        super().__init__()
        self.line = line
        self.col = col


def _pos(node) -> tuple[int, int]:
    return (node.line, node.col)


def tokenize(text: str, filename: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(Token(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append(Token(text[i:j], line, col))
            col += j - i
            i = j
    return out


def parse_sexprs(text: str, filename: str) -> list:
    tokens = tokenize(text, filename)
    stack: list[SList] = []
    top: list = []
    for tok in tokens:
        if tok.text == "(":
            stack.append(SList(tok.line, tok.col))
        elif tok.text == ")":
            if not stack:
                raise PddlError("unmatched ')'", filename, tok.line, tok.col)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        else:
            if not stack:
                raise PddlError(
                    f"expected '(' before {tok.text!r}", filename, tok.line, tok.col
                )
            stack[-1].append(tok)
    if stack:
        raise PddlError("unclosed '('", filename, stack[-1].line, stack[-1].col)
    return top


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Literal:
    pred: str
    args: tuple[str, ...]
    # Where the literal was read (0 for none); not part of its identity.
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # (?var, type)
    pre: tuple[Literal, ...]
    add: tuple[Literal, ...]
    delete: tuple[Literal, ...]
    # parameter constraints: pairs required equal / required distinct
    eq: tuple[tuple[str, str], ...] = ()
    neq: tuple[tuple[str, str], ...] = ()
    dur: Fraction = Fraction(1)
    durative: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, supertype)
    predicates: tuple[tuple[str, tuple[str, ...]], ...]  # (name, arg types)
    constants: tuple[tuple[str, str], ...]  # (object, type)
    actions: tuple[ActionSchema, ...]
    filename: str = "<domain>"


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain: str
    objects: tuple[tuple[str, str], ...]
    init: tuple[Literal, ...]
    goal: tuple[Literal, ...]
    filename: str = "<problem>"


_UNSUPPORTED_SECTIONS = {
    ":derived": "derived predicates",
    ":functions": "numeric fluents",
    ":constraints": "state trajectory constraints",
    ":axioms": "axioms",
}
_UNSUPPORTED_CONNECTIVES = {
    "or": "disjunctive condition",
    "imply": "implication",
    "forall": "universal quantifier",
    "exists": "existential quantifier",
    "when": "conditional effect",
    "increase": "numeric fluent",
    "decrease": "numeric fluent",
    "assign": "numeric fluent",
}


def _expect_token(node, what: str, filename: str) -> Token:
    if not isinstance(node, Token):
        raise PddlError(f"expected {what}", filename, *_pos(node))
    return node


def _typed_list(nodes: list, filename: str, default: str = "object"):
    """Parse `x y - t z w - u v` into ((x,t),(y,t),(z,u),(w,u),(v,object))."""
    out: list[tuple[str, str]] = []
    pending: list[Token] = []
    it = iter(nodes)
    for node in it:
        tok = _expect_token(node, "a name", filename)
        if tok.text == "-":
            try:
                ty = _expect_token(next(it), "a type name", filename).text
            except StopIteration:
                raise PddlError("missing type after '-'", filename, tok.line, tok.col)
            out.extend((p.text, ty) for p in pending)
            pending = []
        else:
            pending.append(tok)
    out.extend((p.text, default) for p in pending)
    return tuple(out)


def _literal(node, filename: str) -> Literal:
    if not isinstance(node, SList) or not node:
        raise PddlError("expected a predicate application", filename, *_pos(node))
    head = _expect_token(node[0], "a predicate name", filename)
    if head.text in _UNSUPPORTED_CONNECTIVES:
        raise PddlError(
            f"unsupported feature: {_UNSUPPORTED_CONNECTIVES[head.text]} ({head.text})",
            filename, head.line, head.col,
        )
    args = tuple(_expect_token(a, "an argument", filename).text for a in node[1:])
    return Literal(head.text, args, node.line, node.col)


def _term_pair(node: SList, filename: str) -> tuple[str, str]:
    """The two terms of `(= a b)`."""
    if len(node) != 3:
        raise PddlError("expected (= <term> <term>)", filename, *_pos(node))
    a, b = (_expect_token(x, "a term", filename).text for x in node[1:])
    return a, b


def _condition(node, filename: str):
    """Positive conjunctive condition plus equality/inequality constraints."""
    lits: list[Literal] = []
    eq: list[tuple[str, str]] = []
    neq: list[tuple[str, str]] = []

    def walk(n) -> None:
        if not isinstance(n, SList) or not n:
            raise PddlError("expected a condition", filename, *_pos(n))
        head = _expect_token(n[0], "a condition head", filename)
        if head.text == "and":
            for sub in n[1:]:
                walk(sub)
        elif head.text == "not":
            if len(n) == 2 and isinstance(n[1], SList) and n[1] and \
                    isinstance(n[1][0], Token) and n[1][0].text == "=":
                neq.append(_term_pair(n[1], filename))
            else:
                raise PddlError(
                    "unsupported feature: negative condition (only (not (= ..)) allowed)",
                    filename, head.line, head.col,
                )
        elif head.text == "=":
            eq.append(_term_pair(n, filename))
        else:
            lits.append(_literal(n, filename))

    walk(node)
    return tuple(lits), tuple(eq), tuple(neq)


def _effects(node, filename: str) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
    add: list[Literal] = []
    delete: list[Literal] = []

    def walk(n) -> None:
        if not isinstance(n, SList) or not n:
            raise PddlError("expected an effect", filename, *_pos(n))
        head = _expect_token(n[0], "an effect head", filename)
        if head.text == "and":
            for sub in n[1:]:
                walk(sub)
        elif head.text == "not":
            if len(n) != 2:
                raise PddlError("expected (not <atom>)", filename, *_pos(n))
            delete.append(_literal(n[1], filename))
        else:
            add.append(_literal(n, filename))

    walk(node)
    return tuple(add), tuple(delete)


def _strip_time_annotations(node, filename: str) -> SList:
    """Flatten `(and (at start X) (over all Y) (at end Z))` to `(and X Y Z)`."""
    out = SList(*_pos(node))
    out.append(Token("and", *_pos(node)))

    def walk(n) -> None:
        if not isinstance(n, SList) or not n:
            raise PddlError("expected an annotated formula", filename, *_pos(n))
        head = _expect_token(n[0], "a formula head", filename)
        if head.text == "and":
            for sub in n[1:]:
                walk(sub)
        elif head.text == "at" and len(n) == 3 and isinstance(n[1], Token) \
                and n[1].text in ("start", "end"):
            out.append(n[2])
        elif head.text == "over" and len(n) == 3 and isinstance(n[1], Token) \
                and n[1].text == "all":
            out.append(n[2])
        else:
            raise PddlError(
                "expected (at start ..), (at end ..) or (over all ..)",
                filename, head.line, head.col,
            )

    walk(node)
    return out


def _rational(tok: Token, filename: str) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise PddlError(f"expected a rational constant, got {tok.text!r}",
                        filename, tok.line, tok.col)


def _duration(node, filename: str) -> Fraction:
    # Accepted form: (= ?duration <rational constant>)
    if (isinstance(node, SList) and len(node) == 3
            and isinstance(node[0], Token) and node[0].text == "="
            and isinstance(node[1], Token) and node[1].text == "?duration"
            and isinstance(node[2], Token)):
        d = _rational(node[2], filename)
        if d < 0:
            raise PddlError("duration must be nonnegative", filename, *_pos(node))
        return d
    raise PddlError(
        "unsupported feature: duration must be a rational constant "
        "(= ?duration <number>)", filename, *_pos(node)
    )


def _sections(body: list, filename: str) -> dict[str, object]:
    out: dict[str, object] = {}
    it = iter(body)
    for node in it:
        key = _expect_token(node, "a keyword like :parameters", filename)
        if not key.text.startswith(":"):
            raise PddlError(f"expected a keyword, got {key.text!r}",
                            filename, key.line, key.col)
        try:
            out[key.text] = next(it)
        except StopIteration:
            raise PddlError(f"missing value after {key.text}",
                            filename, key.line, key.col)
    return out


def _parse_action(node: SList, durative: bool, filename: str) -> ActionSchema:
    if len(node) < 2:
        raise PddlError("action needs a name", filename, *_pos(node))
    name = _expect_token(node[1], "an action name", filename).text
    sec = _sections(list(node[2:]), filename)
    params_node = sec.get(":parameters")
    if isinstance(params_node, Token):
        raise PddlError("expected a parameter list", filename, *_pos(params_node))
    params = _typed_list(list(params_node), filename) if params_node else ()
    if durative:
        dur = _duration(sec[":duration"], filename) if ":duration" in sec else Fraction(1)
        cond = sec.get(":condition")
        eff = sec.get(":effect")
        pre, eq, neq = ((), (), ())
        if cond is not None:
            pre, eq, neq = _condition(_strip_time_annotations(cond, filename), filename)
        add, delete = ((), ())
        if eff is not None:
            add, delete = _effects(_strip_time_annotations(eff, filename), filename)
    else:
        dur = Fraction(1)
        pre, eq, neq = ((), (), ())
        if ":precondition" in sec:
            pre, eq, neq = _condition(sec[":precondition"], filename)
        add, delete = ((), ())
        if ":effect" in sec:
            add, delete = _effects(sec[":effect"], filename)
    return ActionSchema(name, params, pre, add, delete, eq, neq, dur, durative,
                        *_pos(node))


def parse_domain(text: str, filename: str = "<domain>") -> DomainAst:
    forms = parse_sexprs(text, filename)
    if len(forms) != 1:
        raise PddlError("expected a single (define (domain ..)) form", filename, 1, 1)
    form = forms[0]
    if not (isinstance(form, SList) and form and isinstance(form[0], Token)
            and form[0].text == "define"):
        raise PddlError("expected (define (domain ..))", filename, *_pos(form))
    head = form[1] if len(form) > 1 else form
    if not (isinstance(head, SList) and len(head) == 2
            and isinstance(head[0], Token) and head[0].text == "domain"):
        raise PddlError("expected (domain <name>)", filename, *_pos(head))
    name = _expect_token(head[1], "a domain name", filename).text

    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, str], ...] = ()
    predicates: list[tuple[str, tuple[str, ...]]] = []
    constants: tuple[tuple[str, str], ...] = ()
    actions: list[ActionSchema] = []
    for node in form[2:]:
        if not (isinstance(node, SList) and node and isinstance(node[0], Token)):
            raise PddlError("expected a domain section", filename, *_pos(node))
        kind = node[0].text
        if kind in _UNSUPPORTED_SECTIONS:
            raise PddlError(
                f"unsupported feature: {_UNSUPPORTED_SECTIONS[kind]} ({kind})",
                filename, node[0].line, node[0].col,
            )
        if kind == ":requirements":
            requirements = tuple(
                _expect_token(r, "a requirement", filename).text for r in node[1:]
            )
        elif kind == ":types":
            types = _typed_list(list(node[1:]), filename)
        elif kind == ":constants":
            constants = _typed_list(list(node[1:]), filename)
        elif kind == ":predicates":
            for p in node[1:]:
                if not (isinstance(p, SList) and p and isinstance(p[0], Token)):
                    raise PddlError("expected a predicate schema", filename, *_pos(p))
                arg_types = tuple(t for _, t in _typed_list(list(p[1:]), filename))
                predicates.append((p[0].text, arg_types))
        elif kind == ":action":
            actions.append(_parse_action(node, durative=False, filename=filename))
        elif kind == ":durative-action":
            actions.append(_parse_action(node, durative=True, filename=filename))
        else:
            raise PddlError(f"unsupported feature: unknown section {kind}",
                            filename, node[0].line, node[0].col)
    return DomainAst(name, requirements, types, tuple(predicates), constants,
                     tuple(actions), filename)


def parse_problem(text: str, filename: str = "<problem>") -> ProblemAst:
    forms = parse_sexprs(text, filename)
    if len(forms) != 1:
        raise PddlError("expected a single (define (problem ..)) form", filename, 1, 1)
    form = forms[0]
    if not (isinstance(form, SList) and form and isinstance(form[0], Token)
            and form[0].text == "define"):
        raise PddlError("expected (define (problem ..))", filename, *_pos(form))
    head = form[1] if len(form) > 1 else form
    if not (isinstance(head, SList) and len(head) == 2
            and isinstance(head[0], Token) and head[0].text == "problem"):
        raise PddlError("expected (problem <name>)", filename, *_pos(form))
    name = _expect_token(head[1], "a problem name", filename).text

    domain = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Literal] = []
    goal: tuple[Literal, ...] = ()
    for node in form[2:]:
        if not (isinstance(node, SList) and node and isinstance(node[0], Token)):
            raise PddlError("expected a problem section", filename, *_pos(node))
        kind = node[0].text
        if kind in (":domain", ":goal") and len(node) != 2:
            raise PddlError(f"expected ({kind} <one argument>)", filename, *_pos(node))
        if kind == ":domain":
            domain = _expect_token(node[1], "a domain name", filename).text
        elif kind == ":objects":
            objects = _typed_list(list(node[1:]), filename)
        elif kind == ":init":
            for lit in node[1:]:
                if isinstance(lit, SList) and lit and isinstance(lit[0], Token) \
                        and lit[0].text == "=":
                    raise PddlError("unsupported feature: numeric fluent in :init",
                                    filename, *_pos(lit))
                init.append(_literal(lit, filename))
        elif kind == ":goal":
            goal, eq, neq = _condition(node[1], filename)
            if eq or neq:
                raise PddlError("equality has no place in a ground goal",
                                filename, *_pos(node))
        elif kind in (":requirements", ":metric"):
            continue  # requirements are the domain's; metric is the mode's
        else:
            raise PddlError(f"unsupported feature: unknown section {kind}",
                            filename, node[0].line, node[0].col)
    return ProblemAst(name, domain, objects, tuple(init), goal, filename)


def parse(domain_text: str, problem_text: str,
          domain_file: str = "<domain>", problem_file: str = "<problem>"
          ) -> tuple[DomainAst, ProblemAst]:
    return parse_domain(domain_text, domain_file), parse_problem(problem_text, problem_file)


# ---------------------------------------------------------------------------
# grounding

def _subtypes(types: tuple[tuple[str, str], ...], filename: str) -> dict[str, set[str]]:
    """type -> set of types assignable to it (itself and all descendants)."""
    parent = dict(types)
    known = {"object"} | set(parent) | set(parent.values())
    out = {t: {t} for t in known}
    for t in known:
        walk = t
        seen = {t}
        while walk in parent:
            walk = parent[walk]
            if walk in seen:
                raise PddlError(f"type cycle through {walk!r}", filename)
            seen.add(walk)
            out.setdefault(walk, {walk}).add(t)
    return out


def ground(domain: DomainAst, problem: ProblemAst,
           mode: Mode = Mode.SEQUENTIAL) -> Problem:
    """Instantiate every type-respecting parameter binding of every schema.

    Static facts in preconditions (predicates no action affects) are checked
    against the initial state and removed; instances failing them, or whose
    add and delete sets collide, are dropped.  Actions needing an atom that
    nothing adds and the initial state lacks are pruned to a fixpoint.
    """
    assignable = _subtypes(domain.types, domain.filename)
    objects: dict[str, str] = {}
    declared = [(o, t, domain.filename) for o, t in domain.constants]
    declared += [(o, t, problem.filename) for o, t in problem.objects]
    for o, t, filename in declared:
        if o in objects:
            raise PddlError(f"object {o!r} declared twice", filename)
        if t not in assignable:
            raise PddlError(f"object {o!r} has undeclared type {t!r}", filename)
        objects[o] = t
    by_type: dict[str, list[str]] = {}
    for o, t in objects.items():
        for sup, subs in assignable.items():
            if t in subs:
                by_type.setdefault(sup, []).append(o)

    arities = dict(domain.predicates)
    affected = {lit.pred for a in domain.actions for lit in a.add + a.delete}

    def check_lit(lit: Literal, ctx: str, filename: str, variables=()) -> None:
        """Raise at the literal's position unless its predicate is declared
        with its arity, its variables are bound and its objects declared."""
        def fail(message: str) -> None:
            raise PddlError(f"{message} in {ctx}", filename, lit.line, lit.col)

        if lit.pred not in arities:
            fail(f"undeclared predicate {lit.pred!r}")
        if len(lit.args) != len(arities[lit.pred]):
            fail(f"wrong arity for {lit.pred!r}")
        for arg in lit.args:
            if arg.startswith("?"):
                if arg not in variables:
                    fail(f"unbound variable {arg}")
            elif arg not in objects:
                fail(f"undeclared object {arg!r}")

    for lit in problem.init + problem.goal:
        check_lit(lit, "problem", problem.filename)

    # A ground atom is (predicate, objects), without a source position.
    static_init = {(lit.pred, lit.args) for lit in problem.init
                   if lit.pred not in affected}

    # Deterministic atom ids: first occurrence order.
    atom_ids: dict[tuple[str, tuple[str, ...]], int] = {}

    def atom_of(atom: tuple[str, tuple[str, ...]]) -> int:
        return atom_ids.setdefault(atom, len(atom_ids))

    raw: list[tuple[str, frozenset, frozenset, frozenset, Fraction]] = []
    for schema in domain.actions:
        ctx = f"action {schema.name}"
        var_names = [v for v, _ in schema.params]
        for lit in schema.pre + schema.add + schema.delete:
            check_lit(lit, ctx, domain.filename, var_names)
        for x in itertools.chain.from_iterable(schema.eq + schema.neq):
            if x.startswith("?") and x not in var_names:
                raise PddlError(f"unbound variable {x} in {ctx}", domain.filename,
                                schema.line, schema.col)
        pools = []
        for v, t in schema.params:
            if t not in by_type and t not in assignable:
                raise PddlError(f"undeclared type {t!r} in {ctx}", domain.filename,
                                schema.line, schema.col)
            pools.append(by_type.get(t, []))
        for binding in itertools.product(*pools):
            env = dict(zip(var_names, binding))
            term = lambda x: env.get(x, x)  # every variable is bound (checked)
            if any(term(x) != term(y) for x, y in schema.eq):
                continue
            if any(term(x) == term(y) for x, y in schema.neq):
                continue
            sub = lambda lit: (lit.pred, tuple(term(a) for a in lit.args))
            pre_lits = [sub(l) for l in schema.pre]
            add_lits = [sub(l) for l in schema.add]
            del_lits = [sub(l) for l in schema.delete]
            if any(l[0] not in affected and l not in static_init for l in pre_lits):
                continue  # a static precondition is false
            pre_lits = [l for l in pre_lits if l[0] in affected]
            add_lits = [l for l in add_lits if l[0] in affected]
            del_lits = [l for l in del_lits if l[0] in affected]
            if set(add_lits) & set(del_lits):
                continue  # contradictory instance
            if not add_lits:
                continue  # cannot establish anything; irrelevant to regression
            name = " ".join((schema.name,) + binding)
            pre_set = frozenset(atom_of(l) for l in pre_lits)
            add_set = frozenset(atom_of(l) for l in add_lits)
            del_set = frozenset(atom_of(l) for l in del_lits)
            raw.append((name, pre_set, add_set, del_set, schema.dur))

    init_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.init
                           if l.pred in affected)
    goal_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.goal
                           if l.pred in affected)
    for lit in problem.goal:
        if lit.pred not in affected and (lit.pred, lit.args) not in static_init:
            # A static goal no action can achieve: keep it as an atom with no
            # adder so the planner reports unsolvable rather than erroring.
            goal_atoms = goal_atoms | {atom_of((lit.pred, lit.args))}

    # Prune actions whose preconditions can never all become true.
    keep = list(range(len(raw)))
    while True:
        addable = set(init_atoms)
        for i in keep:
            addable |= raw[i][2]
        new_keep = [i for i in keep if raw[i][1] <= addable]
        if new_keep == keep:
            break
        keep = new_keep

    atoms = [Atom(i, " ".join((pred,) + args))
             for i, (pred, args) in enumerate(atom_ids)]
    actions = []
    for idx, i in enumerate(keep):
        name, pre, add, delete, dur = raw[i]
        if mode is not Mode.TEMPORAL:
            dur = Fraction(1)
        actions.append(GroundAction(idx, name, pre, add, delete, Fraction(1), dur))
    return Problem(atoms, actions, init_atoms, goal_atoms, mode, problem.name)


def load(domain_path: str, problem_path: str, mode: Mode = Mode.SEQUENTIAL) -> Problem:
    with open(domain_path) as fh:
        domain = parse_domain(fh.read(), domain_path)
    with open(problem_path) as fh:
        problem = parse_problem(fh.read(), problem_path)
    return ground(domain, problem, mode)
