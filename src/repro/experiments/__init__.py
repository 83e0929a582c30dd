"""Experiment orchestration: declarative sweeps, parallel execution,
and a cached result store.

The paper evaluates Penelope over 531 traces and dozens of design-point
sweeps.  This subsystem replaces the hand-rolled serial loops that used
to live in ``cli.py``, ``benchmarks/bench_ablation_*.py`` and
``examples/*_study.py`` with one engine:

- :mod:`repro.experiments.spec` — :class:`SweepSpec` declares a study
  name, base parameters, and grid axes; :meth:`SweepSpec.expand` takes
  the cartesian product into :class:`ExperimentPoint` objects, each
  with a stable content hash (``point.key``).
- :mod:`repro.experiments.registry` — named studies (``caches``,
  ``regfile``, ``penelope``, ``invert_ratio``, ``vmin_power``,
  ``victim_policy``, ``multiprog``) map a point's parameters onto the
  existing entry points (``TraceDrivenCore``, ``run_cache_study``,
  ``PenelopeProcessor``) and return typed
  :class:`~repro.metrics.stats.MetricSet` trees whose ``flatten()`` is
  the legacy flat metric dict (bit-identical — store rows and point
  hashes are unchanged).  Workloads are memoised per worker so points
  sharing a trace only generate it once.
- :mod:`repro.experiments.runner` — :func:`run_sweep` runs a spec on
  the one sweep runner (:class:`~repro.fabric.runner.FabricRunner`):
  it consults the sharded result store, executes the misses in process
  (``workers=1``) or on spawned worker processes, and returns results
  in spec order, so parallel and serial sweeps are bit-identical.
- :mod:`repro.experiments.store` — :class:`StoredResult` records and
  :class:`ResultStore`, the read-only flat JSONL format that
  ``repro store migrate`` imports.
- :mod:`repro.experiments.summary` — group-by/mean-min-max reduction
  feeding :func:`repro.analysis.format_table`.

Quick start::

    from repro.experiments import SweepSpec, format_summary, run_sweep

    spec = SweepSpec(
        "caches",
        base={"length": 6000, "seed": 0},
        grid={"ratio": [0.4, 0.5, 0.6], "ways": [4, 8],
              "suite": ["specint2000", "office"]},
    )
    outcome = run_sweep(spec, store="benchmarks/results/fabric",
                        workers=4)
    print(format_summary(outcome.results, group_by=["ratio", "ways"],
                         metrics=["mean_loss", "inverted_ratio"]))

or from the shell::

    repro sweep caches --grid ratio=0.4,0.5,0.6 --grid ways=4,8 \\
        --workers 4
    repro results --study caches

Studies can equivalently be driven from a declarative, serialisable
:class:`~repro.config.specs.StudySpec` whose sweep axes are spec field
paths — each study's ``spec_paths`` binding maps them onto the flat
parameters above, so both spellings share point hashes and the result
store (see :func:`repro.api.run_study` and ``repro run --config``).
"""

from repro.experiments.registry import (
    StudyDefinition,
    get_study,
    register_study,
    study_names,
)
from repro.experiments.runner import (
    PointExecutionError,
    PointResult,
    SweepResult,
    run_sweep,
)
from repro.experiments.spec import (
    ExperimentPoint,
    SweepSpec,
    coerce_scalar,
    parse_grid_option,
    point_key,
)
from repro.experiments.store import (
    ResultStore,
    StoredResult,
    default_store_dir,
)
from repro.experiments.summary import (
    MIXED,
    aggregate_metric,
    format_summary,
    group_results,
    metric_names,
    summarize,
)

__all__ = [
    "MIXED",
    "StudyDefinition",
    "get_study",
    "register_study",
    "study_names",
    "PointExecutionError",
    "PointResult",
    "SweepResult",
    "run_sweep",
    "ExperimentPoint",
    "SweepSpec",
    "coerce_scalar",
    "parse_grid_option",
    "point_key",
    "ResultStore",
    "StoredResult",
    "default_store_dir",
    "aggregate_metric",
    "format_summary",
    "group_results",
    "metric_names",
    "summarize",
]
