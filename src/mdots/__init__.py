"""Bayesian optimization of strongly coupled systems with per-discipline surrogates.

Each discipline of a coupled problem is replaced by a Gaussian-process
surrogate. Refinement points come from optimizing approximate posterior
sample paths (random Fourier features plus an exact data update) through
the coupled solve, trading off exploration and exploitation in both the
design and the coupling variables.
"""

from .external import load_external_problem
from .problems import Discipline, MdoProblem, ReferenceSolution, sellar_problem, toy_problem
from .records import RunRecord, load_run_record, records_equal, save_run_record
from .study import StudySummary, resolve_reference, run_from_record, run_replicate, run_study, summarize
from .thompson import ExperimentConfig, convergence_check, run_mdo_ts

__all__ = [
    "ExperimentConfig",
    "run_mdo_ts",
    "RunRecord",
    "convergence_check",
    "run_replicate",
    "run_study",
    "run_from_record",
    "resolve_reference",
    "summarize",
    "StudySummary",
    "load_run_record",
    "save_run_record",
    "records_equal",
    "Discipline",
    "MdoProblem",
    "ReferenceSolution",
    "sellar_problem",
    "toy_problem",
    "load_external_problem",
]

__version__ = "0.1.0"
