"""Instrumentation installed from the benchmark's side, around the public
entry points of each layer of `hmplan`, and taken out again afterwards.

`Counting` is all a timed round carries: it counts expansions at the calls
into the search spaces.  `Tracer` is for the separate traced rounds: it
records a span per call (name, start, end, parent), keeps them in memory, and
accumulates per-layer counts and self times.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import srcpath  # noqa: F401
from hmplan import idao, pddl, pipeline
from hmplan.htable import HeuristicTable
from hmplan.idao import IdaoSearch, SolvedTable
from hmplan.idastar import IdaStar, TranspositionTable
from hmplan.sequential import SequentialSpace
from hmplan.temporal import TemporalSpace


@contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each owner.attr to its replacement; restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# Where a node is expanded: IDA* and IDAO* OR nodes ask a space for its
# successors, IDAO* AND nodes split the state into its size-m subsets.
EXPANSION_POINTS = [
    (SequentialSpace, "successors"),
    (TemporalSpace, "successors"),
    (idao, "enumerate_and_successors"),
]


class Counting:
    """Counts expansions: one per call at an EXPANSION_POINTS entry."""

    def __init__(self) -> None:
        self.expansions = 0

    def installed(self):
        def counted(fn):
            def wrapper(*args, **kwargs):
                self.expansions += 1
                return fn(*args, **kwargs)
            return wrapper
        return patched([(owner, attr, counted(vars(owner)[attr]))
                        for owner, attr in EXPANSION_POINTS])


SEARCHES = ("idastar.run", "idao.run")


class Tracer:
    """Spans and counts at every layer's public entry points.

    Spans are (id, parent id, name, start, end) tuples with perf_counter
    times; a layer's self time is the time of its spans minus the time of
    the spans nested directly inside them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        # Open spans: [id, name, start, time covered by child spans].
        self._stack: list[list] = []
        self._next_id = 0

    def _search(self) -> str | None:
        for frame in reversed(self._stack):
            if frame[1] in SEARCHES:
                return frame[1]
        return None

    def _wrap(self, fn: Callable, name: str, after: Callable | None) -> Callable:
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            counts[name + ".calls"] += 1
            if after is not None:
                search = self._search()
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - frame[2]
                self.total_s[name] += spent
                self.self_s[layer] += spent - frame[3]
                if stack:
                    stack[-1][3] += spent
                spans.append((sid, parent, name, frame[2], end))
            if after is not None:
                after(counts, result, search)
            return result

        return traced

    def installed(self):
        return patched([(owner, attr, self._wrap(vars(owner)[attr], name, after))
                        for owner, attr, name, after in ENTRY_POINTS])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def _hit(prefix: str):
    def after(counts, result, search):
        if result is not None:
            counts[prefix + ".hits"] += 1
    return after


def _expansion(counts, result, search) -> None:
    counts[{"idastar.run": "idastar.expansions",
            "idao.run": "idao.or_expansions"}.get(search, "other.expansions")] += 1


def _temporal_successors(counts, result, search) -> None:
    _expansion(counts, result, search)
    edges, cuts = result
    counts["temporal.edges"] += len(edges)
    counts["temporal.right_shift_cuts"] += cuts


def _ground(counts, problem, search) -> None:
    counts["pddl.atoms"] += len(problem.atoms)
    counts["pddl.actions"] += len(problem.actions)


def _gbf(counts, stats, search) -> None:
    counts["hm.sets"] += stats.sets
    counts["hm.relaxations"] += stats.rounds


def _ida(counts, result, search) -> None:
    counts["idastar.iterations"] += result.stats.iterations


# (owner, attribute, span name, hook on the result).  The span name's first
# part is the layer: the module of src/hmplan the entry point belongs to.
ENTRY_POINTS = [
    (pipeline, "run_pipeline", "pipeline.run", None),
    (pddl, "parse_domain", "pddl.parse", None),
    (pddl, "parse_problem", "pddl.parse", None),
    (pddl, "ground", "pddl.ground", _ground),
    (pipeline, "compute_base_heuristic", "hm.gbf", _gbf),
    (HeuristicTable, "eval", "htable.eval", None),
    (HeuristicTable, "store", "htable.store", None),
    (IdaStar, "run", "idastar.run", _ida),
    (TranspositionTable, "get", "idastar.tt_get", _hit("idastar.tt")),
    (IdaoSearch, "run", "idao.run", None),
    (SolvedTable, "get", "idao.solved_get", _hit("idao.solved")),
    (idao, "enumerate_and_successors", "idao.and_split", None),
    (SequentialSpace, "successors", "sequential.successors", _expansion),
    (SequentialSpace, "evaluate", "sequential.evaluate", None),
    (TemporalSpace, "successors", "temporal.successors", _temporal_successors),
    (TemporalSpace, "evaluate", "temporal.evaluate", None),
]

LAYERS = ("pipeline", "pddl", "hm", "htable", "idastar", "idao", "sequential", "temporal")


def layer_metrics(tracer: Tracer, events: int, root_h: tuple[float, float]) -> dict[str, float]:
    """One traced round's per-layer figures.  `events` is the number of
    Recorder events and `root_h` the summed root values after GBF and after
    the last IDAO* pass, both gathered by the caller."""
    c, t = tracer.counts, tracer.total_s
    expansions = (c["idastar.expansions"] + c["idao.or_expansions"]
                  + c["idao.and_split.calls"])
    out = {
        "pddl.parse_s": t["pddl.parse"],
        "pddl.ground_s": t["pddl.ground"],
        "pddl.atoms": c["pddl.atoms"],
        "pddl.actions": c["pddl.actions"],
        "hm.gbf_s": t["hm.gbf"],
        "hm.sets": c["hm.sets"],
        "hm.relaxations": c["hm.relaxations"],
        "hm.relaxations_per_set": c["hm.relaxations"] / max(c["hm.sets"], 1),
        "hm.root_h": root_h[0],
        "htable.eval_calls": c["htable.eval.calls"],
        "htable.eval_s": t["htable.eval"],
        "htable.store_calls": c["htable.store.calls"],
        "htable.evals_per_expansion": c["htable.eval.calls"] / max(expansions, 1),
        "idastar.search_s": t["idastar.run"],
        "idastar.expansions": c["idastar.expansions"],
        "idastar.iterations": c["idastar.iterations"],
        "idastar.tt_probes": c["idastar.tt_get.calls"],
        "idastar.tt_hits": c["idastar.tt.hits"],
        "idao.pass_s": t["idao.run"],
        "idao.passes": c["idao.run.calls"],
        "idao.or_expansions": c["idao.or_expansions"],
        "idao.and_expansions": c["idao.and_split.calls"],
        "idao.solved_probes": c["idao.solved_get.calls"],
        "idao.solved_hits": c["idao.solved.hits"],
        "idao.root_h": root_h[1],
        "sequential.successor_calls": c["sequential.successors.calls"],
        "sequential.successors_s": t["sequential.successors"],
        "temporal.successor_calls": c["temporal.successors.calls"],
        "temporal.successors_s": t["temporal.successors"],
        "temporal.edges": c["temporal.edges"],
        "temporal.evaluate_calls": c["temporal.evaluate.calls"],
        "temporal.right_shift_cuts": c["temporal.right_shift_cuts"],
        "metrics.events": events,
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer]
    return out
