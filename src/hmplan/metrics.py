"""The one place a run's work is counted.

A `Recorder` passed to `run_pipeline`, `IdaStar` or `IdaoSearch` receives
every expansion (as an `ExpansionEvent` and in its `expansions` count), every
solved-table probe of the IDAO* passes, and one bound record per
cost-bounded iteration of each phase: "gbf" for the complete h^m root value,
"idao:<m>" for the relaxed passes and "ida" for the final search.  Results
carry outcomes, plus only the GBF's set and round counts and IDA*'s
iteration count; a run without a recorder counts nothing else.
`collect_metrics` turns the events into per-space averages, and the CSV
writers below are what the CLI's `--trace` and `--metrics` write.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from .model import Cost, fmt_cost

NORMAL = "normal"
OR = "or"
AND = "and"


@dataclass(frozen=True)
class ExpansionEvent:
    space: str  # normal | or | and
    parent_size: int
    succ_sizes: tuple[int, ...]


@dataclass(frozen=True)
class TraceRecord:
    elapsed_ms: float
    phase: str  # gbf | idao:<m> | ida
    bound: Cost
    expansions: int  # cumulative search expansions when recorded


@dataclass
class SpaceMetrics:
    expansions: int
    avg_state_size: float
    avg_successor_ratio: float
    avg_branching_factor: float


class Recorder:
    """Collects expansion events and bound-evolution records during a run.

    Each search records the bound of every cost-bounded iteration as it
    starts it, so a run of bound records with the same phase is one search's
    iterations.  With first_iteration_only set, expansion events are kept
    only while the first iteration of each search is running.
    """

    def __init__(self, first_iteration_only: bool = False) -> None:
        self.events: list[ExpansionEvent] = []
        self.trace: list[TraceRecord] = []
        self.first_iteration_only = first_iteration_only
        self.solved_hits = 0
        self.solved_misses = 0
        self.expansions = 0
        self._start = time.monotonic()
        self._iteration = 0

    def expansion(self, space: str, parent_size: int, succ_sizes: tuple[int, ...]) -> None:
        self.expansions += 1
        if self.first_iteration_only and self._iteration > 1:
            return
        self.events.append(ExpansionEvent(space, parent_size, succ_sizes))

    def bound(self, phase: str, bound: Cost) -> None:
        elapsed = (time.monotonic() - self._start) * 1000.0
        same = self.trace and self.trace[-1].phase == phase
        self._iteration = self._iteration + 1 if same else 1
        self.trace.append(TraceRecord(elapsed, phase, bound, self.expansions))

    def solved_table(self, hit: bool) -> None:
        if hit:
            self.solved_hits += 1
        else:
            self.solved_misses += 1


def collect_metrics(events: list[ExpansionEvent]) -> dict[str, SpaceMetrics]:
    """Aggregate expansion events into per-space averages.

    Sizes and branching factors are arithmetic means over expansions; the
    successor ratio averages size(child)/size(parent) over every generated
    successor (expansions of empty states contribute no ratios).
    """
    out: dict[str, SpaceMetrics] = {}
    for space in sorted({e.space for e in events}):
        evs = [e for e in events if e.space == space]
        n = len(evs)
        ratios = [
            sz / e.parent_size for e in evs if e.parent_size for sz in e.succ_sizes
        ]
        out[space] = SpaceMetrics(
            expansions=n,
            avg_state_size=sum(e.parent_size for e in evs) / n,
            avg_successor_ratio=(sum(ratios) / len(ratios)) if ratios else 0.0,
            avg_branching_factor=sum(len(e.succ_sizes) for e in evs) / n,
        )
    return out


def write_trace_csv(path: str, trace: list[TraceRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["elapsed_ms", "phase", "bound", "expansions"])
        for rec in trace:
            w.writerow([f"{rec.elapsed_ms:.3f}", rec.phase, fmt_cost(rec.bound),
                        rec.expansions])


def write_metrics_csv(path: str, per_space: dict[str, SpaceMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["space", "avg_size", "avg_ratio", "avg_branching", "expansions"])
        for space, sm in sorted(per_space.items()):
            w.writerow([
                space,
                f"{sm.avg_state_size:.4f}",
                f"{sm.avg_successor_ratio:.4f}",
                f"{sm.avg_branching_factor:.4f}",
                sm.expansions,
            ])
