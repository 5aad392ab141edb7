import csv
from fractions import Fraction
from math import comb, isclose

from hmplan import fixtures
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.idastar import IdaStar
from hmplan.metrics import (
    AND,
    NORMAL,
    OR,
    ExpansionEvent,
    Recorder,
    collect_metrics,
    write_metrics_csv,
    write_trace_csv,
)
from hmplan.sequential import SequentialSpace


def run_instrumented(problem, m=2, **kw):
    rec = Recorder(**kw)
    t = HeuristicTable()
    compute_base_heuristic(problem, t, m)
    IdaStar(SequentialSpace(problem), t, recorder=rec).run()
    return rec


class TestCollect:
    def test_empty(self):
        assert collect_metrics([]) == {}

    def test_single_space_averages(self):
        # [DERIVED: by hand]
        events = [
            ExpansionEvent(NORMAL, 2, (4, 4)),
            ExpansionEvent(NORMAL, 4, (4,)),
        ]
        m = collect_metrics(events)[NORMAL]
        assert m.expansions == 2
        assert m.avg_state_size == 3.0
        assert isclose(m.avg_successor_ratio, (2.0 + 2.0 + 1.0) / 3)
        assert m.avg_branching_factor == 1.5

    def test_spaces_kept_apart(self):
        events = [
            ExpansionEvent(OR, 2, (3,)),
            ExpansionEvent(AND, 5, (3, 3)),
        ]
        m = collect_metrics(events)
        assert set(m) == {AND, OR}
        assert m[AND].avg_branching_factor == 2.0

    def test_and_node_branching_is_subset_count(self):
        # [DERIVED: sizes 8x6, 9x3, 10 give mean C(size,3) of 70.8]
        sizes = [8] * 6 + [9] * 3 + [10]
        events = [ExpansionEvent(AND, s, (3,) * comb(s, 3)) for s in sizes]
        m = collect_metrics(events)[AND]
        assert isclose(m.avg_branching_factor, 70.8)

    def test_empty_parent_contributes_no_ratio(self):
        m = collect_metrics([ExpansionEvent(NORMAL, 0, ())])[NORMAL]
        assert m.avg_successor_ratio == 0.0


class TestRecorder:
    def test_event_log_consistent_with_expansion_count(self):
        rec = run_instrumented(fixtures.satellite())
        assert rec.expansions == len(rec.events)
        assert all(e.space == NORMAL for e in rec.events)

    def test_goal_expansion_branching(self):
        # [DERIVED: the 2-atom goal has 2 successors of size 4 -> ratio 2.0]
        rec = run_instrumented(fixtures.satellite())
        first = rec.events[0]
        assert first.parent_size == 2
        assert first.succ_sizes == (4, 4)

    def test_chain_ratio_stays_one(self):
        rec = run_instrumented(fixtures.chain(5))
        m = collect_metrics(rec.events)[NORMAL]
        assert m.avg_successor_ratio == 1.0
        assert m.avg_state_size == 1.0

    def test_growing_ratio_exceeds_two(self):
        # each regression step swaps one atom for its three prerequisites
        rec = run_instrumented(fixtures.growing(depth=1, width=3), m=1)
        m = collect_metrics(rec.events)[NORMAL]
        assert m.avg_successor_ratio > 2.0

    def test_first_iteration_only_truncates_events(self):
        p = fixtures.satellite()
        full = run_instrumented(p, m=1)
        first = run_instrumented(p, m=1, first_iteration_only=True)
        assert full.expansions == first.expansions  # counter unaffected
        assert len(first.events) < len(full.events)

    def test_bound_trace_records_phases(self):
        rec = run_instrumented(fixtures.satellite(), m=1)
        phases = {r.phase for r in rec.trace}
        assert phases == {"ida"}
        bounds = [r.bound for r in rec.trace]
        assert bounds == sorted(bounds)

    def test_solved_table_counts(self):
        rec = Recorder()
        rec.solved_table(True)
        rec.solved_table(False)
        rec.solved_table(False)
        assert (rec.solved_hits, rec.solved_misses) == (1, 2)
        assert (Recorder().solved_hits, Recorder().solved_misses) == (0, 0)


class TestCsv:
    def test_trace_csv(self, tmp_path):
        rec = run_instrumented(fixtures.satellite())
        out = tmp_path / "trace.csv"
        write_trace_csv(str(out), rec.trace)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["elapsed_ms", "phase", "bound", "expansions"]
        assert rows[1][1] == "ida" and rows[1][2] == "7"
        assert [int(r[3]) for r in rows[1:]] == [r.expansions for r in rec.trace]

    def test_metrics_csv(self, tmp_path):
        rec = run_instrumented(fixtures.satellite())
        out = tmp_path / "metrics.csv"
        write_metrics_csv(str(out), collect_metrics(rec.events))
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["space", "avg_size", "avg_ratio", "avg_branching", "expansions"]
        assert rows[1][0] == "normal"
        assert int(rows[1][4]) == rec.expansions

    def test_fractional_bounds_formatted(self, tmp_path):
        rec = Recorder()
        rec.bound("ida", Fraction(5, 2))
        out = tmp_path / "t.csv"
        write_trace_csv(str(out), rec.trace)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][2] == "5/2"
