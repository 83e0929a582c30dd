"""Sweep results, point execution, and the one-call sweep entry point.

Every sweep runs on :class:`~repro.fabric.runner.FabricRunner`, the
journaled, lease-driven runner over the sharded result store; this
module holds what it builds on and returns: :func:`bind_spec_points`
(the planned key set of a spec), :func:`execute_point` (one study
point, wrapping study errors as :class:`PointExecutionError`) and the
:class:`PointResult` / :class:`SweepResult` containers.
:func:`run_sweep` is the one-call wrapper.

Results come back in spec order regardless of completion order, so
parallel and serial sweeps produce identical output (a property the
test suite asserts), and observability — spans, the event log, the
provenance manifest — never touches the computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.registry import get_study
from repro.experiments.spec import ExperimentPoint, SweepSpec
from repro.metrics import MetricSet

#: Event-log filename of sweep runs (one file shared by every run).
EVENTS_NAME = "events.jsonl"


class PointExecutionError(RuntimeError):
    """A study function raised while executing one design point.

    Wraps the original error with the point's content hash and bound
    parameters, so a sweep failure names *which* point died instead of
    surfacing a bare worker traceback.  Picklable (``__reduce__``
    re-carries the structured fields).
    """

    def __init__(self, message: str, key: str = "", study: str = "",
                 params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.key = key
        self.study = study
        self.params = dict(params or {})

    @classmethod
    def wrap(cls, point: ExperimentPoint,
             cause: BaseException) -> "PointExecutionError":
        return cls(
            f"study {point.study!r} point {point.key} "
            f"({point.describe()}) failed: "
            f"{type(cause).__name__}: {cause}",
            key=point.key, study=point.study, params=point.as_dict(),
        )

    def __reduce__(self):
        return (type(self),
                (self.args[0], self.key, self.study, self.params))


def bind_spec_points(spec: SweepSpec) -> List[ExperimentPoint]:
    """Expand a spec into fully-bound, cache-keyed points.

    Binds the study's defaults into every point before hashing: the
    cache key must cover the *full* parameterisation of the
    computation, or a later change to a registry default would silently
    serve stale results.  Binding also unifies the keys of explicit and
    defaulted spellings of the same point.
    """
    study = get_study(spec.study)
    # Every study parametrizes exclusively through its defaults, so a
    # key outside them is a typo that would otherwise produce a grid of
    # byte-identical points presented as a real sweep.
    unknown = (set(spec.base) | set(spec.grid)) - set(study.defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for study {spec.study!r}: "
            f"{', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(study.defaults))}"
        )
    return [
        ExperimentPoint.from_dict(spec.study, study.bind(p.as_dict()))
        for p in spec.iter_points()
    ]


def execute_point(
    point: ExperimentPoint,
) -> Tuple[str, MetricSet, float]:
    """Run one point.

    Returns the study's typed :class:`MetricSet`; callers needing the
    legacy flat dict take ``metric_set.flatten()``.
    Study errors surface as :class:`PointExecutionError` naming the
    point's content hash and parameters.
    """
    started = time.perf_counter()
    try:
        metric_set = get_study(point.study).execute_metrics(
            point.as_dict())
    except PointExecutionError:
        raise
    except Exception as exc:
        raise PointExecutionError.wrap(point, exc) from exc
    return point.key, metric_set, time.perf_counter() - started


@dataclass
class PointResult:
    """Outcome of one design point within a sweep."""

    point: ExperimentPoint
    metrics: Dict[str, Any]
    cached: bool
    elapsed: float
    #: The typed stat tree of a point executed in this process;
    #: ``None`` when the result was read back from the store (cache
    #: hits, points run by spawned workers): rows keep the flat view.
    metric_set: Optional[MetricSet] = None

    @property
    def params(self) -> Dict[str, Any]:
        return self.point.as_dict()

    @property
    def metric_tree(self) -> MetricSet:
        """The typed tree view of this point's metrics.

        In-process executions return the study's own set
        (Ratio/Derived stats intact); results read back from the store
        are lifted from the flat row with value-derived kinds, so both
        views always exist.
        """
        if self.metric_set is not None:
            return self.metric_set
        return MetricSet.from_flat(self.metrics)

    def value(self, name: str, default: Any = None) -> Any:
        return self.metrics.get(name, default)


@dataclass
class SweepResult:
    """All point results of one sweep, in spec expansion order."""

    spec: SweepSpec
    results: List[PointResult] = field(default_factory=list)
    wall_time: float = 0.0
    #: Provenance identity of this execution (stamped into the event
    #: log and the manifest).
    run_id: str = ""
    #: This run's own manifest (``manifests/<run_id>.json`` next to
    #: the store); ``None`` without a store.
    manifest_path: Optional[str] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def executed(self) -> int:
        return len(self.results) - self.cache_hits

    def slowest(self) -> Optional[PointResult]:
        """The longest freshly-executed point (None if all were cached)."""
        fresh = [r for r in self.results if not r.cached]
        if not fresh:
            return None
        return max(fresh, key=lambda r: r.elapsed)

    def metrics_by_key(self) -> Dict[str, Dict[str, Any]]:
        return {r.point.key: r.metrics for r in self.results}


def run_sweep(
    spec: SweepSpec,
    store: Any = None,
    workers: int = 1,
    progress: Optional[Callable[[PointResult], None]] = None,
    **runner_options: Any,
) -> SweepResult:
    """Run ``spec`` on the sweep runner and return its results.

    ``store`` is a :class:`~repro.fabric.store.ShardedResultStore` or a
    store directory; ``None`` executes every point into a scratch store
    that is removed afterwards.  ``runner_options`` go to
    :class:`~repro.fabric.runner.FabricRunner`.
    """
    from repro.fabric.runner import FabricRunner

    runner = FabricRunner(store, workers=workers, progress=progress,
                          **runner_options)
    try:
        return runner.run(spec)
    finally:
        runner.close()
