import csv
from pathlib import Path

import pytest

from hmplan import cli
from hmplan.cli import main
from hmplan.metrics import Recorder
from hmplan.pipeline import run_pipeline

DATA = Path(__file__).parent / "data"
OBS = [str(DATA / "observation-domain.pddl"), str(DATA / "observation-1.pddl")]
SHOP = [str(DATA / "workshop-domain.pddl"), str(DATA / "workshop-1.pddl")]


def run(capsys, *args):
    code = main(["plan", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_sequential_plan_printed(self, capsys):
        code, out, _ = run(capsys, *OBS, "--validate")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "; cost 7"
        assert lines[1] == "0: (switch-on)" or "(" in lines[1]
        assert len(lines) == 8  # header plus seven steps

    def test_temporal_schedule_printed(self, capsys):
        code, out, _ = run(capsys, *SHOP, "--mode", "temp", "--validate")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "; makespan 5/2"
        assert "0: (mill-b) [5/2]" in lines
        assert "5/2: (box) [0]" in lines

    def test_parallel_mode(self, capsys):
        code, out, _ = run(capsys, *OBS, "--mode", "par", "--validate")
        assert code == 0
        assert out.splitlines()[0] == "; makespan 6"

    def test_hspa_pipeline(self, capsys):
        code, out, _ = run(capsys, *OBS, "--pipeline", "hspa", "--stop",
                           "no-and", "--validate")
        assert code == 0
        assert out.splitlines()[0] == "; cost 7"

    def test_round_durations(self, capsys):
        code, out, _ = run(capsys, *SHOP, "--mode", "temp",
                           "--round-durations", "--validate")
        assert code == 0
        assert out.splitlines()[0] == "; makespan 3"

    def test_no_right_shift_same_cost(self, capsys):
        code, out, _ = run(capsys, *OBS, "--mode", "par", "--no-right-shift")
        assert code == 0 and out.splitlines()[0] == "; makespan 6"


class TestNonZeroExits:
    def test_upper_limit_exhausted(self, capsys):
        code, _, err = run(capsys, *OBS, "--upper-limit", "5")
        assert code == 1
        assert "no solution within limit 5" in err
        assert "next bound 7" in err

    def test_unsolvable(self, tmp_path, capsys):
        dom = tmp_path / "d.pddl"
        prob = tmp_path / "p.pddl"
        dom.write_text(
            "(define (domain toy) (:predicates (x) (y))"
            " (:action mx :parameters () :precondition (and)"
            "  :effect (and (x) (not (y))))"
            " (:action my :parameters () :precondition (and)"
            "  :effect (and (y) (not (x)))))"
        )
        prob.write_text(
            "(define (problem t1) (:domain toy) (:init)"
            " (:goal (and (x) (y))))"
        )
        code, _, err = run(capsys, str(dom), str(prob))
        assert code == 1
        assert "unsolvable" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "/nonexistent.pddl", OBS[1])
        assert code == 2 and "hmplan:" in err

    def test_parse_error_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain x) (:functions (f)))")
        code, _, err = run(capsys, str(bad), OBS[1])
        assert code == 2
        assert "numeric fluents" in err and "bad.pddl:1:" in err

    def test_bad_upper_limit(self, capsys):
        code, _, err = run(capsys, *OBS, "--upper-limit", "soon")
        assert code == 2 and "--upper-limit" in err

    def test_bad_stop_rule(self, capsys):
        code, _, err = run(capsys, *OBS, "--pipeline", "hspa",
                           "--stop", "fixed:0")
        assert code == 2

    def test_bad_stop_rule_under_tp4(self, capsys):
        code, out, err = run(capsys, *OBS, "--stop", "bogus")
        assert code == 2 and "bogus" in err and out == ""

    @pytest.mark.parametrize("pipeline", ["tp4", "hspa"])
    @pytest.mark.parametrize("option", ["--tt-size", "--solved-size"])
    def test_table_size_below_one(self, capsys, monkeypatch, pipeline, option):
        # Rejected before any search: the GBF never runs.
        monkeypatch.setattr("hmplan.pipeline.compute_base_heuristic", None)
        code, out, err = run(capsys, *OBS, "--pipeline", pipeline, option, "0")
        assert code == 2 and out == ""
        assert "size must be at least 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--trace", "--metrics"])
    def test_unwritable_artifact_path(self, tmp_path, capsys, monkeypatch, option):
        # Rejected before any search, naming the path.
        monkeypatch.setattr(cli, "run_pipeline", None)
        path = str(tmp_path / "missing" / "out.csv")
        code, out, err = run(capsys, *OBS, option, path)
        assert code == 2 and out == ""
        assert err.startswith("hmplan: ") and path in err

    def test_malformed_pddl(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain x) (:predicates (p))\n"
                       " (:action a :parameters () :effect (not)))")
        code, _, err = run(capsys, str(bad), OBS[1])
        assert code == 2
        assert "bad.pddl:2:" in err and "Traceback" not in err


    def test_grounding_error_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad-problem.pddl"
        bad.write_text("(define (problem b) (:domain observation)\n"
                       "  (:objects d1 - direction)\n"
                       "  (:init (pointing d1) (zz)) (:goal (pointing d1)))")
        code, out, err = run(capsys, OBS[0], str(bad))
        assert code == 2 and out == ""
        assert "bad-problem.pddl:3:24: undeclared predicate 'zz'" in err


class TestArtifacts:
    def test_trace_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run(capsys, *OBS, "--trace", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["elapsed_ms", "phase", "bound", "expansions"]
        assert rows[-1][1] == "ida" and rows[-1][2] == "7"
        # The cumulative expansion count at each record never goes down; the
        # IDAO* pass expands nodes before the final IDA* bound is set.
        code, _, _ = run(capsys, *OBS, "--pipeline", "hspa", "--stop", "fixed:3",
                         "--trace", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        counts = [int(r[3]) for r in rows[1:]]
        assert counts == sorted(counts) and counts[-1] > 0

    def test_metrics_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        code, _, _ = run(capsys, *OBS, "--pipeline", "hspa", "--stop",
                         "fixed:3", "--metrics", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["space", "avg_size", "avg_ratio", "avg_branching",
                           "expansions"]
        spaces = {r[0] for r in rows[1:]}
        assert "or" in spaces and "normal" in spaces

    def test_first_iteration_only_flag(self, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        code, _, _ = run(capsys, *OBS, "--metrics", str(out_csv),
                         "--first-iteration-only")
        assert code == 0
        assert out_csv.exists()

    def test_recorder_only_for_artifacts(self, tmp_path, capsys, monkeypatch):
        # Without --trace or --metrics nothing reads the counts, so the run
        # gets no Recorder and keeps no expansion events.
        seen = []

        def spy(problem, config, recorder=None):
            seen.append(recorder)
            return run_pipeline(problem, config, recorder)

        monkeypatch.setattr(cli, "run_pipeline", spy)
        assert run(capsys, *OBS)[0] == 0
        assert run(capsys, *OBS, "--trace", str(tmp_path / "t.csv"))[0] == 0
        assert run(capsys, *OBS, "--metrics", str(tmp_path / "m.csv"))[0] == 0
        assert seen[0] is None
        assert isinstance(seen[1], Recorder) and isinstance(seen[2], Recorder)

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
