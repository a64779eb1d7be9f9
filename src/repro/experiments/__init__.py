"""The evaluation harness: one module per reproduced theorem, lemma or figure.

``runall.run_all`` / ``repro experiments --all`` is *incremental* when
given a persistent store: a shared :class:`~repro.api.BatchRunner`
serves every experiment from one LRU plus the store, and the run
manifest (:mod:`repro.experiments.manifest`) records what each
experiment solved -- an interrupted or repeated sweep only solves what
is missing, and repeated runs verify result-fingerprint digests against
the recorded ones.

Importing the package loads only :mod:`~repro.experiments.base` and
:mod:`~repro.experiments.manifest`, whose fingerprint digests the
serving stack reads.  The experiment registry
(:mod:`~repro.experiments.registry`: ``experiment_ids``,
``get_experiment``, ``run_experiment``) and the runner
(:mod:`~repro.experiments.runall`: ``run_all``, ``run_all_resumable``,
``write_summary``) are imported from their modules, so a serving
process never loads them, nor the experiment modules, workloads,
figures and ``networkx`` behind them.
"""

from .base import active_runner, shared_runner, solve_specs
from .manifest import ExperimentRecorder, RunManifest, fingerprint_digest

__all__ = [
    "solve_specs",
    "shared_runner",
    "active_runner",
    "ExperimentRecorder",
    "RunManifest",
    "fingerprint_digest",
]
