"""Optimal planning by regression search with complete and partial critical-
path heuristics, in sequential, parallel and temporal modes."""

from .hm import compute_base_heuristic
from .htable import HeuristicTable
from .idao import IdaoSearch
from .idastar import IdaStar, TranspositionTable
from .metrics import Recorder, collect_metrics
from .model import (
    INF,
    Atom,
    Cost,
    GroundAction,
    Mode,
    Plan,
    PlanStep,
    Problem,
    round_durations_up,
)
from .pddl import PddlError, ground, load, parse
from .pipeline import PlannerConfig, PlanResult, run_pipeline
from .sequential import SequentialSpace
from .temporal import TemporalSpace, TempState
from .validate import ValidationResult, validate_plan

__all__ = [
    "INF",
    "Atom",
    "Cost",
    "GroundAction",
    "HeuristicTable",
    "IdaStar",
    "IdaoSearch",
    "Mode",
    "PddlError",
    "Plan",
    "PlanResult",
    "PlanStep",
    "PlannerConfig",
    "Problem",
    "Recorder",
    "SequentialSpace",
    "TempState",
    "TemporalSpace",
    "TranspositionTable",
    "ValidationResult",
    "collect_metrics",
    "compute_base_heuristic",
    "ground",
    "load",
    "parse",
    "round_durations_up",
    "run_pipeline",
    "validate_plan",
]

__version__ = "0.1.0"
