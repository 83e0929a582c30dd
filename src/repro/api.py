"""The facade: build and run anything in the repo from declarative specs.

Every entry point used to hand-assemble ``CoreConfig``, ``CacheConfig``,
TLB geometry and protection mechanisms; this module is the single
construction surface on top of :mod:`repro.config`:

- :func:`build_core` — a :class:`~repro.uarch.core.TraceDrivenCore`
  from a :class:`~repro.config.specs.ProcessorSpec`;
- :func:`build_hooks` / :func:`build_scheme` — protection mechanisms
  from a :class:`~repro.config.specs.ProtectionSpec`, resolved through
  the component registries;
- :func:`build_penelope` — a fully configured
  :class:`~repro.core.penelope.PenelopeProcessor`;
- :func:`build_workload` / :func:`build_address_streams` — Table 1
  workloads from a :class:`~repro.config.specs.WorkloadSpec`;
- :func:`run_study` — expand a :class:`~repro.config.specs.StudySpec`
  (sweep axes are spec field paths) into the experiment engine and run
  it, returning the usual :class:`~repro.experiments.runner.SweepResult`.

Everything returns the existing typed results; spec-built objects are
bit-identical to their legacy hand-assembled counterparts (asserted by
``tests/test_api.py``).

Quick start::

    from repro import api
    from repro.config import StudySpec

    spec = StudySpec(
        "caches",
        sweep={"protection.dl0.params.ratio": [0.4, 0.5, 0.6]},
    )
    outcome = api.run_study(spec)

or, from JSON (the ``repro run --config`` path)::

    spec = api.load_study_spec("study.json")
    outcome = api.run_study(spec)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.config.registry import (
    ADDER_MECHANISMS,
    CACHE_SCHEMES,
    RF_PROTECTORS,
    SCHEDULER_PROTECTORS,
)
from repro.config.specs import (
    MISSING,
    MechanismSpec,
    ProcessorSpec,
    ProtectionSpec,
    SpecError,
    StudySpec,
    WorkloadSpec,
    resolve_path,
    with_path,
)

__all__ = [
    "build_address_streams",
    "build_core",
    "build_hooks",
    "build_multiprog_stream",
    "build_penelope",
    "build_scheme",
    "build_workload",
    "default_study_spec",
    "load_study_spec",
    "run_study",
    "save_study_spec",
    "study_sweep_spec",
    "sweep_from_payload",
]


# ----------------------------------------------------------------------
# Structures
# ----------------------------------------------------------------------
def build_core(spec: Optional[ProcessorSpec] = None, *, hooks=None,
               dl0=None, dtlb=None):
    """A :class:`~repro.uarch.core.TraceDrivenCore` from a spec.

    ``hooks``/``dl0``/``dtlb`` pass through to the core constructor
    (``dl0``/``dtlb`` override the spec-built structures with protected
    wrappers).
    """
    from repro.uarch.core import TraceDrivenCore

    spec = spec if spec is not None else ProcessorSpec()
    return TraceDrivenCore(spec.to_core_config(), hooks=hooks,
                           dl0=dl0, dtlb=dtlb)


def build_scheme(mechanism: MechanismSpec, structure: str = "dl0"):
    """An inversion scheme instance from a mechanism spec.

    Returns ``None`` for the ``"none"`` mechanism (run unprotected).
    """
    return CACHE_SCHEMES.build(mechanism.name, mechanism.params,
                               where=f"protection.{structure}")


def build_hooks(protection: Optional[ProtectionSpec] = None, *,
                scheduler_policy=None):
    """Core observer hooks for the memory-like mechanisms of a spec.

    Builds the register-file protectors and, unless the slot is
    ``"none"``, the scheduler protector.  A ``derived_policy`` scheduler
    mechanism needs the profiling-derived ``scheduler_policy``; without
    one this raises :class:`~repro.config.specs.SpecError`
    (:func:`build_penelope` profiles automatically — use it for the
    full flow).
    """
    from repro.uarch.core import CompositeHooks
    from repro.uarch.uop import FP_WIDTH, INT_WIDTH

    protection = protection if protection is not None else ProtectionSpec()
    hooks = []
    for rf_name, width in (("int_rf", INT_WIDTH), ("fp_rf", FP_WIDTH)):
        mechanism = getattr(protection, rf_name)
        built = RF_PROTECTORS.build(
            mechanism.name, mechanism.params,
            rf_name, width, protection.sample_period,
            where=f"protection.{rf_name}",
        )
        if built is not None:
            hooks.append(built)
    scheduler = protection.scheduler
    if scheduler.name == "derived_policy" and scheduler_policy is None:
        raise SpecError(
            "protection.scheduler: 'derived_policy' needs a "
            "profiling-derived policy; pass scheduler_policy=..., use "
            "'paper_policy', or build through build_penelope() which "
            "profiles automatically"
        )
    built = SCHEDULER_PROTECTORS.build(
        scheduler.name, scheduler.params,
        scheduler_policy, protection.sample_period,
        where="protection.scheduler",
    )
    if built is not None:
        hooks.append(built)
    return CompositeHooks(hooks)


def build_penelope(spec: Optional[StudySpec] = None, *,
                   processor: Optional[ProcessorSpec] = None,
                   protection: Optional[ProtectionSpec] = None,
                   seed: Optional[int] = None,
                   adder=None, guardband_model=None):
    """A :class:`~repro.core.penelope.PenelopeProcessor` from specs.

    ``spec`` (a :class:`~repro.config.specs.StudySpec`) supplies the
    processor/protection/seed; the keyword arguments override its
    slots (or the defaults when no spec is given).  Every mechanism is
    resolved through the component registries, so a default spec builds
    a processor bit-identical to ``PenelopeProcessor()``.
    """
    from repro.core.memory_like import PAPER_SCHEDULER_POLICY
    from repro.core.penelope import PenelopeProcessor
    from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL

    if spec is not None:
        processor = processor if processor is not None else spec.processor
        protection = protection if protection is not None else spec.protection
        seed = seed if seed is not None else spec.workload.seed
    processor = processor if processor is not None else ProcessorSpec()
    protection = protection if protection is not None else ProtectionSpec()
    seed = seed if seed is not None else 0

    def rf_factory(rf_name: str, width: int):
        mechanism = getattr(protection, rf_name)
        return RF_PROTECTORS.build(
            mechanism.name, mechanism.params,
            rf_name, width, protection.sample_period,
            where=f"protection.{rf_name}",
        )

    def scheduler_factory(policy):
        mechanism = protection.scheduler
        return SCHEDULER_PROTECTORS.build(
            mechanism.name, mechanism.params,
            policy, protection.sample_period,
            where="protection.scheduler",
        )

    def cache_factory(structure: str):
        return build_scheme(getattr(protection, structure), structure)

    adder_settings = ADDER_MECHANISMS.build(
        protection.adder.name, protection.adder.params,
        where="protection.adder",
    ) or {"pair": (1, 8), "inject": False}
    invert_ratio = protection.dl0.params.get("ratio", 0.5)
    # Only 'derived_policy' consumes a profiled policy; pinning the
    # published one otherwise skips the (ignored) profiling run.
    scheduler_policy = (None if protection.scheduler.name == "derived_policy"
                        else PAPER_SCHEDULER_POLICY)
    return PenelopeProcessor(
        config=processor.to_core_config(),
        scheduler_policy=scheduler_policy,
        invert_ratio=invert_ratio,
        adder=adder,
        guardband_model=(guardband_model if guardband_model is not None
                         else DEFAULT_GUARDBAND_MODEL),
        sample_period=protection.sample_period,
        seed=seed,
        rf_protector_factory=rf_factory,
        scheduler_protector_factory=scheduler_factory,
        cache_scheme_factory=cache_factory,
        injector_pair=adder_settings["pair"],
        inject_idle=adder_settings["inject"],
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_workload(spec: Optional[WorkloadSpec] = None) -> List[Any]:
    """Synthetic Table 1 traces from a workload spec."""
    from repro.workloads import generate_workload

    spec = spec if spec is not None else WorkloadSpec()
    return generate_workload(
        seed=spec.seed,
        traces_per_suite=spec.traces_per_suite,
        length=spec.length,
        suites=list(spec.suites),
    )


def build_address_streams(spec: Optional[WorkloadSpec] = None
                          ) -> List[List[int]]:
    """One load/store address stream per suite (cache-only studies)."""
    from repro.workloads import generate_address_stream

    spec = spec if spec is not None else WorkloadSpec()
    return [
        generate_address_stream(suite, length=spec.length, seed=spec.seed)
        for suite in spec.suites
    ]


def build_multiprog_stream(spec: Optional[WorkloadSpec] = None):
    """One interleaved multiprogram address stream from a workload spec.

    Lazy (an iterator): feed it straight to ``Cache.replay`` /
    ``ProtectedCache.replay`` for bounded-memory interference runs.  The
    spec's ``interleave`` policy drives the merge; ``"none"`` falls back
    to round-robin so a default spec still produces a usable scenario.
    """
    from repro.workloads.multiprog import multiprog_address_stream

    spec = spec if spec is not None else WorkloadSpec()
    policy = spec.interleave if spec.interleave != "none" else "round_robin"
    return multiprog_address_stream(
        spec.suites, length=spec.length, seed=spec.seed,
        policy=policy, slice_length=spec.slice_length,
    )


# ----------------------------------------------------------------------
# Studies
# ----------------------------------------------------------------------
def study_sweep_spec(spec: StudySpec):
    """Expand a :class:`StudySpec` into the engine's ``SweepSpec``.

    Base parameters are read from the composed specs through each
    study's ``spec_paths`` binding; ``spec.sweep`` axes (spec field
    paths, or bare names for parameters with no spec home) become grid
    axes; the workload's suites become the suite axis.  The flat
    parameters this produces are exactly what a hand-written sweep
    would use, so spec-driven and legacy runs share point hashes and
    the result cache.
    """
    from repro.experiments import SweepSpec, get_study

    study = get_study(spec.study)
    paths: Dict[str, str] = dict(study.spec_paths)
    reverse = {path: param for param, path in paths.items()}
    _reject_unconsumed_edits(spec, study)

    base: Dict[str, Any] = {}
    grid: Dict[str, List[Any]] = {}
    suite_param = None
    for param, path in paths.items():
        if path == "workload.suites" and param == "suite":
            # A scalar per-suite parameter: the workload's suites fan
            # out as a grid axis (one point per suite).
            suite_param = param
            continue
        value = resolve_path(spec, path)
        if value is not MISSING:
            # Multiprogram studies bind the whole suite tuple as ONE
            # parameter (param "suites"), so it lands in base as-is.
            base[param] = value
    if suite_param is not None:
        grid[suite_param] = list(spec.workload.suites)

    for param, value in spec.overrides.items():
        if param not in study.defaults:
            raise SpecError(
                f"override {param!r} is not a parameter of study "
                f"{spec.study!r}; known parameters: "
                f"{', '.join(sorted(study.defaults))}"
            )
        base[param] = value

    for axis, values in spec.sweep.items():
        if axis in reverse:
            param = reverse[axis]
        elif axis in study.defaults:
            param = axis
        else:
            raise SpecError(
                f"unknown sweep axis {axis!r} for study {spec.study!r}; "
                f"sweepable spec paths: "
                f"{', '.join(sorted(reverse)) or '(none)'}; bare "
                f"parameters: {', '.join(sorted(study.defaults))}"
            )
        base.pop(param, None)
        grid[param] = list(values)
    return SweepSpec(spec.study, base=base, grid=grid)


def _reject_unconsumed_edits(spec: StudySpec, study) -> None:
    """Error on spec edits the study's flat parameters cannot honour.

    Each study consumes only the field paths in its ``spec_paths``
    binding; an edit anywhere else (a different issue width for the
    ``regfile`` study, a DTLB scheme for ``penelope``, ...) would run
    with silently unchanged results.  Comparing against the study's
    default spec pinpoints exactly the ineffective edits.
    """
    from repro.config.specs import spec_differences

    default = default_study_spec(spec.study)
    bound = set(study.spec_paths.values())
    ignored = []
    for section in ("processor", "protection", "workload"):
        for leaf in spec_differences(getattr(spec, section),
                                     getattr(default, section)):
            path = f"{section}.{leaf}"
            if path not in bound:
                ignored.append(path)
    if ignored:
        raise SpecError(
            f"study {spec.study!r} does not consume these edited spec "
            f"field(s): {', '.join(ignored)}; it reads only: "
            f"{', '.join(sorted(bound))}. Remove the edits (they would "
            f"have no effect on this study) or drive the construction "
            f"directly via repro.api.build_core/build_penelope"
        )


def run_study(spec: StudySpec, *, store=None, workers: Optional[int] = None,
              progress: Optional[Callable] = None):
    """Run a :class:`StudySpec` through the experiment engine.

    Returns the engine's :class:`~repro.experiments.runner.SweepResult`.
    Each point result exposes both metric views: ``result.metrics`` is
    the legacy flat dict (what the store persists, key-for-key
    bit-identical to pre-metrics releases) and ``result.metric_tree``
    is the typed :class:`~repro.metrics.stats.MetricSet` (Ratio /
    Derived stats intact on fresh executions, value-typed on cache
    hits).  ``store`` is a store directory (or an open
    :class:`~repro.fabric.store.ShardedResultStore`); ``None`` disables
    result caching.  ``workers`` defaults to ``spec.workers``.
    """
    from repro.experiments import run_sweep

    return run_sweep(
        study_sweep_spec(spec), store=store,
        workers=workers if workers is not None else spec.workers,
        progress=progress,
    )


def default_study_spec(study_name: str) -> StudySpec:
    """The :class:`StudySpec` equivalent to a study's flat defaults.

    Resolving it through :func:`study_sweep_spec` reproduces the
    registered defaults exactly, so ``run_study(default_study_spec(s))``
    equals a default legacy sweep of ``s``.
    """
    from repro.config.registry import registry_for_structure
    from repro.experiments import get_study

    study = get_study(study_name)
    spec = StudySpec(study=study_name)
    # Mechanism *names* first: which params a slot accepts depends on
    # the scheme selected there.
    ordered = sorted(study.spec_paths.items(),
                     key=lambda item: 0 if item[1].endswith(".name") else 1)
    for param, path in ordered:
        default = study.defaults[param]
        if path == "workload.suites":
            # Scalar per-suite defaults ("suite") wrap into a 1-tuple;
            # multiprogram defaults ("suites") are already sequences.
            if not isinstance(default, (list, tuple)):
                default = (default,)
            spec = with_path(spec, path, tuple(default))
            continue
        if ".params." in path:
            mech_path, _, param_name = path.rpartition(".params.")
            mechanism = resolve_path(spec, mech_path)
            registry = registry_for_structure(mech_path.rsplit(".", 1)[-1])
            if param_name not in registry.accepted_params(mechanism.name):
                continue  # e.g. dyn_* knobs while the scheme is fixed
        spec = with_path(spec, path, default)
    return spec


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def load_study_spec(path: str) -> StudySpec:
    """Read a :class:`StudySpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return StudySpec.from_json(handle.read())


def save_study_spec(spec: StudySpec, path: str) -> None:
    """Write a :class:`StudySpec` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spec.to_json() + "\n")


def sweep_from_payload(payload: Any):
    """A StudySpec *or* SweepSpec JSON payload → the engine's SweepSpec.

    The sweep service's submit path: clients may POST either spec
    surface, and both round-trip through the exact facade the CLI uses,
    so service-submitted points hash identically to batch-run points
    and share the result cache.  SweepSpec payloads are recognised by
    their ``base``/``grid`` keys; anything else is parsed as a
    :class:`StudySpec` and expanded via :func:`study_sweep_spec`.

    Raises :class:`~repro.config.specs.SpecError` (or ``KeyError`` for
    an unknown study) on malformed payloads — callers map those to
    client errors.
    """
    from collections.abc import Mapping as ABCMapping

    from repro.experiments import SweepSpec, get_study

    if not isinstance(payload, ABCMapping):
        raise SpecError(
            f"spec payload must be a JSON object, got "
            f"{type(payload).__name__}")
    if "study" not in payload:
        raise SpecError("spec payload needs a 'study' field")
    if "base" in payload or "grid" in payload:
        extra = set(payload) - {"study", "base", "grid", "size"}
        if extra:
            raise SpecError(
                f"unexpected sweep-payload fields: {sorted(extra)}")
        sweep = SweepSpec.from_payload(dict(payload))
        # Resolve the study now: a submit-time 400 beats a job that
        # only fails once it reaches the executor.
        get_study(sweep.study)
        return sweep
    spec = StudySpec.from_dict(dict(payload))
    return study_sweep_spec(spec)
