import csv
import sys
from pathlib import Path

import pytest

from hmplan import cli
from hmplan.cli import main
from hmplan.metrics import Recorder
from hmplan.pipeline import run_pipeline

DATA = Path(__file__).parent / "data"
OBS = [str(DATA / "observation-domain.pddl"), str(DATA / "observation-1.pddl")]
SHOP = [str(DATA / "workshop-domain.pddl"), str(DATA / "workshop-1.pddl")]

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
GRIPPER_2 = """
(define (problem gripper-2)
  (:domain gripper)
  (:objects rooma roomb - room left right - gripper ball1 ball2 - ball)
  (:init (at-robby rooma) (free left) (free right) (at ball1 rooma) (at ball2 rooma))
  (:goal (and (at ball1 roomb) (at ball2 roomb))))
"""


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

    def test_hspa_plan_longer_than_recursion_limit(self, tmp_path, capsys):
        # A two-digit counter in base k + 1: b counts up to bk, then a steps
        # up and b starts again at b0, so the plan has k * k + 2 * k steps.
        # Every state is a pair of atoms, on which h^2 is exact.
        k = 32
        dom, prob = tmp_path / "d.pddl", tmp_path / "p.pddl"
        dom.write_text(
            "(define (domain counter) (:predicates "
            + " ".join(f"(a{i}) (b{i})" for i in range(k + 1)) + ")"
            + "".join(f" (:action inc-b{j} :parameters () :precondition (b{j})"
                      f" :effect (and (b{j + 1}) (not (b{j}))))" for j in range(k))
            + "".join(f" (:action inc-a{i} :parameters () :precondition (and (a{i}) (b{k}))"
                      f" :effect (and (a{i + 1}) (b0) (not (a{i})) (not (b{k}))))"
                      for i in range(k))
            + ")"
        )
        prob.write_text(f"(define (problem c) (:domain counter) (:init (a0) (b0))"
                        f" (:goal (and (a{k}) (b{k}))))")
        code, out, _ = run(capsys, str(dom), str(prob), "--pipeline", "hspa", "--validate")
        assert code == 0
        n = k * k + 2 * k
        assert n > 1000 and out.splitlines()[0] == f"; cost {n}"
        assert len(out.splitlines()) == n + 1


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

    def test_rejected_plan_exits_3(self, capsys, monkeypatch):
        class Rejected:
            ok = False

            def report(self):
                return "step 0: precondition not held"

        monkeypatch.setattr(cli, "validate_plan", lambda problem, plan: Rejected())
        code, out, err = run(capsys, *OBS, "--validate")
        assert code == 3 and out == ""
        assert "hmplan: step 0: precondition not held" in err

    def test_bad_stop_rule_under_tp4(self, capsys):
        code, out, err = run(capsys, *OBS, "--stop", "bogus")
        assert code == 2 and "bogus" in err and out == ""

    @pytest.mark.parametrize("pipeline", ["tp4", "hspa"])
    @pytest.mark.parametrize("option", ["--tt-size", "--solved-size"])
    def test_table_size_below_one(self, capsys, monkeypatch, pipeline, option):
        # Rejected before any search: the GBF never runs.
        monkeypatch.setattr("hmplan.pipeline.compute_base_heuristic", None)
        for value in ("0", "100000000000000000000"):
            code, out, err = run(capsys, *OBS, "--pipeline", pipeline, option, value)
            assert code == 2 and out == ""
            assert "size must be between 1 and" in err and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--tt-size", "--solved-size"])
    def test_table_size_beyond_memory(self, capsys, monkeypatch, option):
        # Out of resources before any search: the GBF never runs.
        monkeypatch.setattr("hmplan.pipeline.compute_base_heuristic", None)
        code, out, err = run(capsys, *OBS, "--pipeline", "hspa", option, str(sys.maxsize))
        assert code == 3 and out == ""
        assert "out of resources: MemoryError" in err and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--trace", "--metrics"])
    def test_unwritable_artifact_path(self, tmp_path, capsys, monkeypatch, option):
        # Rejected before any search, naming the path.
        monkeypatch.setattr(cli, "run_pipeline", None)
        path = str(tmp_path / "missing" / "out.csv")
        code, out, err = run(capsys, *OBS, option, path)
        assert code == 2 and out == ""
        assert err.startswith("hmplan: ") and path in err

    @pytest.mark.parametrize("option", ["--trace", "--metrics"])
    @pytest.mark.parametrize("bad", [["--stop", "bogus"], ["--tt-size", "0"]])
    def test_rejected_run_leaves_no_artifact(self, tmp_path, capsys, option, bad):
        # The writability check creates the file; a run rejected after it
        # removes that file, but never truncates one that was there before.
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for path in (new, old):
            code, out, _ = run(capsys, *OBS, *bad, option, str(path))
            assert code == 2 and out == ""
        assert not new.exists() and old.read_text() == "kept\n"

    def test_unwritable_second_artifact_leaves_no_first(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, *OBS, "--trace", str(trace),
                         "--metrics", str(tmp_path / "missing" / "m.csv"))
        assert code == 2 and not trace.exists()

    def test_malformed_pddl(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain x) (:predicates (p))\n"
                       " (:action a :parameters () :effect (not)))")
        code, _, err = run(capsys, str(bad), OBS[1])
        assert code == 2
        assert "bad.pddl:2:" in err and "Traceback" not in err


    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_bytes(b"\xff\xfe" + Path(OBS[0]).read_bytes())
        code, out, err = run(capsys, str(bad), OBS[1])
        assert code == 2 and out == ""
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

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
        # Two balls to carry: h^2 of the goal is 4 and the optimal cost 5,
        # so IDA* needs a second iteration, whose expansions the flag drops.
        domain, problem = tmp_path / "gripper.pddl", tmp_path / "gripper-2.pddl"
        domain.write_text(GRIPPER_DOMAIN)
        problem.write_text(GRIPPER_2)
        out_csv = tmp_path / "metrics.csv"
        expansions = []
        for flag in ([], ["--first-iteration-only"]):
            code, out, _ = run(capsys, str(domain), str(problem),
                               "--metrics", str(out_csv), *flag)
            assert code == 0 and out.startswith("; cost 5")
            rows = list(csv.DictReader(out_csv.read_text().splitlines()))
            assert [r["space"] for r in rows] == ["normal"]
            expansions.append(int(rows[0]["expansions"]))
        assert 0 < expansions[1] < expansions[0]

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
