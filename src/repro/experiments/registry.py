"""Named study factories: map an experiment point to measurements.

Each study is a module-level function (picklable, so sweeps can fan out
over ``multiprocessing`` workers) that takes the point's parameter dict
and returns a typed :class:`~repro.metrics.stats.MetricSet` of
JSON-serialisable measurements.  Studies wrap the repo's existing entry
points — :class:`~repro.uarch.core.TraceDrivenCore`,
:func:`~repro.core.cache_like.run_cache_study`, and
:class:`~repro.core.penelope.PenelopeProcessor` — they add no modelling
of their own.

Study metric sets are flat (no nested namespaces) and value-backed (no
live ``read`` closures), so :meth:`~repro.metrics.stats.MetricSet.
flatten` reproduces the PR 1–4 flat metric dicts key-for-key and
value-for-value (differential-tested in
``tests/test_metrics_differential.py``) — existing store rows and point
hashes stay valid — and the sets pickle across ``multiprocessing``
workers.  Derived quantities (eq. (1)'s NBTIefficiency, the expected
steady-state bias, the multiprogram CPI loss) are
:class:`~repro.metrics.stats.Derived` stats over their sibling inputs.

Generated traces and address streams are memoised per worker process
(:func:`cached_trace` / :func:`cached_address_stream`), so points that
share a workload axis only pay generation once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.cache_like import LineFixedScheme as _LineFixedScheme
from repro.metrics import MetricSet
from repro.obs.trace import TRACER as _TRACER
from repro.workloads import suite_names

# ----------------------------------------------------------------------
# Per-worker workload caches
# ----------------------------------------------------------------------
_CACHE_CAP = 32

_TRACE_CACHE: Dict[Tuple[str, int, int], Any] = {}
_STREAM_CACHE: Dict[Tuple[str, int, int], Any] = {}
_RF_BIAS_CACHE: Dict[Tuple[str, int, int, float], Tuple[float, float, float]] = {}


def _evict(cache: Dict) -> None:
    while len(cache) > _CACHE_CAP:
        cache.pop(next(iter(cache)))


def cached_trace(suite: str, length: int, seed: int):
    """One generated trace per (suite, length, seed) per worker."""
    from repro.workloads import TraceGenerator

    key = (suite, length, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = TraceGenerator(seed=seed).generate(
            suite, length=length
        )
        _evict(_TRACE_CACHE)
    return _TRACE_CACHE[key]


def cached_address_stream(suite: str, length: int, seed: int):
    """One generated address stream per (suite, length, seed) per worker."""
    from repro.workloads import generate_address_stream

    key = (suite, length, seed)
    if key not in _STREAM_CACHE:
        _STREAM_CACHE[key] = generate_address_stream(
            suite, length=length, seed=seed
        )
        _evict(_STREAM_CACHE)
    return _STREAM_CACHE[key]


def cached_rf_biases(
    suite: str, length: int, seed: int, sample_period: float,
) -> Tuple[float, float, float]:
    """(baseline bias, ISV bias, free fraction) of the INT register file.

    Memoised because several studies (``regfile``, ``vmin_power``) sweep
    knobs that do not change the core runs themselves.
    """
    from repro.core.memory_like import ISVRegisterFileProtector
    from repro.uarch import TraceDrivenCore
    from repro.uarch.uop import INT_WIDTH

    key = (suite, length, seed, sample_period)
    if key not in _RF_BIAS_CACHE:
        trace = cached_trace(suite, length, seed)
        base = TraceDrivenCore().run(trace)
        protector = ISVRegisterFileProtector("int_rf", INT_WIDTH,
                                             sample_period)
        prot = TraceDrivenCore(hooks=protector).run(trace)
        _RF_BIAS_CACHE[key] = (
            base.int_rf.worst_bias,
            prot.int_rf.worst_bias,
            base.int_rf.free_fraction,
        )
        _evict(_RF_BIAS_CACHE)
    return _RF_BIAS_CACHE[key]


def _suite_index(suite: str) -> int:
    names = suite_names()
    return names.index(suite) if suite in names else 0


# ----------------------------------------------------------------------
# Study registry
# ----------------------------------------------------------------------
#: Fields every bound point carries but no caller can set.  Point keys
#: have always hashed the name of the cache engine that ran, and there
#: is one engine, so the field is fixed to keep stored keys, stores and
#: digests byte-identical.  Dropping it is a store re-key.
FIXED_RECORD_FIELDS: Mapping[str, Any] = {"backend": "reference"}


@dataclass(frozen=True)
class StudyDefinition:
    """A named, parameterised experiment.

    ``spec_paths`` binds each flat study parameter to the dotted spec
    field path that feeds it (``"ratio" -> "protection.dl0.params.
    ratio"``), so the study can be driven from a declarative
    :class:`~repro.config.specs.StudySpec` via
    :func:`repro.api.run_study`.  Parameters absent from the binding
    (e.g. ``data_bias``) have no spec home and are set through
    ``StudySpec.overrides``.
    """

    name: str
    description: str
    defaults: Mapping[str, Any]
    run: Callable[[Mapping[str, Any]], Union[MetricSet, Dict[str, Any]]]
    spec_paths: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        if self.spec_paths is None:
            object.__setattr__(self, "spec_paths", {})

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        bound = dict(self.defaults)
        bound.update(params)
        bound.update(FIXED_RECORD_FIELDS)
        return bound

    def execute(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The study's flat metric dict (the legacy/store row view)."""
        return self.execute_metrics(params).flatten()

    def execute_metrics(self, params: Mapping[str, Any]) -> MetricSet:
        """The study's typed metric tree.

        Registered study functions return :class:`MetricSet`s; a plain
        dict (externally registered legacy study) is lifted into one
        with value-derived stat kinds.
        """
        with _TRACER.span(f"study.{self.name}"):
            result = self.run(self.bind(params))
        if not isinstance(result, MetricSet):
            result = MetricSet.from_flat(result)
        return result


_STUDIES: Dict[str, StudyDefinition] = {}

#: Spec field paths shared by every workload-driven study.
_WORKLOAD_PATHS = {
    "suite": "workload.suites",
    "length": "workload.length",
    "seed": "workload.seed",
}

#: ... plus the DL0 geometry axes of the cache studies.
_CACHE_GEOMETRY_PATHS = {
    **_WORKLOAD_PATHS,
    "size_kb": "processor.dl0.size_kb",
    "ways": "processor.dl0.ways",
}


def register_study(
    name: str,
    description: str,
    defaults: Mapping[str, Any],
    spec_paths: Mapping[str, str] = (),
) -> Callable:
    def wrap(func: Callable) -> Callable:
        _STUDIES[name] = StudyDefinition(
            name=name, description=description,
            defaults=dict(defaults), run=func,
            spec_paths=dict(spec_paths),
        )
        return func
    return wrap


def get_study(name: str) -> StudyDefinition:
    try:
        return _STUDIES[name]
    except KeyError:
        raise KeyError(
            f"unknown study {name!r}; available: "
            f"{', '.join(study_names())}"
        ) from None


def study_names() -> List[str]:
    return sorted(_STUDIES)


# ----------------------------------------------------------------------
# Cache-like studies
# ----------------------------------------------------------------------
def _cache_config(params: Mapping[str, Any]):
    from repro.uarch.cache import CacheConfig

    size_kb = int(params["size_kb"])
    ways = int(params["ways"])
    return CacheConfig(
        name=f"DL0-{size_kb}K-{ways}w",
        size_bytes=size_kb * 1024,
        ways=ways,
    )


def _scheme_factory(params: Mapping[str, Any], created: List[Any]):
    """Zero-arg factory for the requested scheme; records instances.

    Scheme names resolve through the component registry
    (:data:`repro.config.registry.CACHE_SCHEMES`), so any newly
    registered scheme is sweepable by name with no change here.
    """
    from repro.config.registry import CACHE_SCHEMES
    from repro.config.specs import SpecError

    scheme = params["scheme"]
    scheme_params: Dict[str, Any] = {"ratio": float(params["ratio"])}
    if scheme == "line_dynamic":
        scheme_params.update(
            threshold=float(params["dyn_threshold"]),
            warmup=int(params["dyn_warmup"]),
            test_window=int(params["dyn_test_window"]),
            period=int(params["dyn_period"]),
        )
    if scheme == "none":
        raise ValueError(
            "scheme 'none' builds no mechanism; use a baseline run "
            "instead of sweeping it"
        )
    try:
        CACHE_SCHEMES.validate(scheme, scheme_params)
    except SpecError as exc:
        # The sweep layer reports ValueError messages as `error: ...`.
        raise ValueError(str(exc)) from None

    def factory():
        instance = CACHE_SCHEMES.build(scheme, scheme_params)
        created.append(instance)
        return instance

    return factory


@register_study(
    "caches",
    "invalidate-and-invert scheme on one DL0 config and suite (Table 3)",
    defaults={
        "suite": "specint2000",
        "length": 6000,
        "seed": 0,
        "size_kb": 16,
        "ways": 8,
        "scheme": "line_fixed",
        "ratio": 0.5,
        "dyn_threshold": 0.02,
        "dyn_warmup": 1000,
        "dyn_test_window": 1000,
        "dyn_period": 6000,
    },
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "scheme": "protection.dl0.name",
        "ratio": "protection.dl0.params.ratio",
        "dyn_threshold": "protection.dl0.params.threshold",
        "dyn_warmup": "protection.dl0.params.warmup",
        "dyn_test_window": "protection.dl0.params.test_window",
        "dyn_period": "protection.dl0.params.period",
    },
)
def run_caches_point(params: Mapping[str, Any]) -> MetricSet:
    from repro.core.cache_like import run_cache_study

    created: List[Any] = []
    stream = cached_address_stream(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    study = run_cache_study(
        _cache_config(params),
        _scheme_factory(params, created),
        [stream],
        seed=int(params["seed"]) + _suite_index(params["suite"]),
    )
    ms = MetricSet()
    ms.text("scheme_name", study.scheme_name)
    ms.gauge("mean_loss", study.mean_loss)
    ms.ratio("inverted_ratio", study.mean_inverted_ratio)
    ms.ratio("baseline_miss_rate", study.baseline_miss_rate)
    ms.ratio("scheme_miss_rate", study.scheme_miss_rate)
    if created and hasattr(created[-1], "activation_history"):
        ms.text("activations", "".join(
            "A" if d else "-" for d in created[-1].activation_history
        ))
    return ms


@register_study(
    "invert_ratio",
    "LineFixed invert-ratio sweep: capacity loss vs achieved balance",
    defaults={
        "suite": "specint2000",
        "length": 10_000,
        "seed": 55,
        "size_kb": 16,
        "ways": 8,
        "ratio": 0.5,
        "data_bias": 0.9,
    },
    # data_bias is an analysis-only knob with no spec home: set it via
    # StudySpec.overrides (or sweep it by bare name).
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "ratio": "protection.dl0.params.ratio",
    },
)
def run_invert_ratio_point(params: Mapping[str, Any]) -> MetricSet:
    ms = run_caches_point({**params, "scheme": "line_fixed"})
    # Steady-state worst-cell bias when a fraction `inverted_ratio` of
    # cells holds inverted (complementary) contents of `data_bias`-biased
    # data: derived from the achieved-ratio sibling.
    ms.derived("expected_bias",
               partial(_expected_bias, float(params["data_bias"])),
               args=("inverted_ratio",))
    return ms


def _expected_bias(data_bias: float, achieved: float) -> float:
    return data_bias * (1.0 - achieved) + (1.0 - data_bias) * achieved


@register_study(
    "victim_policy",
    "LRU-position vs any-position inversion victims (Section 3.2.1)",
    defaults={
        "suite": "specint2000",
        "length": 10_000,
        "seed": 99,
        "size_kb": 16,
        "ways": 8,
        "ratio": 0.5,
    },
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "ratio": "protection.dl0.params.ratio",
    },
)
def run_victim_policy_point(params: Mapping[str, Any]) -> MetricSet:
    from repro.core.cache_like import LineFixedScheme, run_cache_study
    from repro.uarch.cache import Cache

    config = _cache_config(params)
    stream = cached_address_stream(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    seed = int(params["seed"]) + _suite_index(params["suite"])
    ratio = float(params["ratio"])
    lru = run_cache_study(config, lambda: LineFixedScheme(ratio),
                          [stream], seed=seed)
    naive = run_cache_study(config,
                            lambda: AnyPositionLineFixedScheme(ratio),
                            [stream], seed=seed)
    baseline = Cache(config)
    baseline.replay(stream)
    ms = MetricSet()
    ms.gauge("lru_loss", lru.mean_loss)
    ms.gauge("naive_loss", naive.mean_loss)
    ms.ratio("mru_hit_fraction", baseline.stats.mru_hit_fraction(0))
    ms.ratio("mru1_hit_fraction", baseline.stats.mru_hit_fraction(1))
    return ms


class AnyPositionLineFixedScheme(_LineFixedScheme):
    """Naive ablation variant: inverts a random valid way, any position."""

    def __init__(self, ratio: float = 0.5):
        super().__init__(ratio)
        self.name = f"AnyPosition{int(round(ratio * 100))}%"

    def maintain(self):
        # inverted_count() is the cache's O(1) incremental counter.
        if self.cache.inverted_count() < self.threshold:
            set_index = self.rng.randrange(self.cache.config.sets)
            valid = self.cache.valid_ways(set_index)
            if valid:
                self.cache.invert_line(set_index, self.rng.choice(valid))


# ----------------------------------------------------------------------
# Memory-like studies
# ----------------------------------------------------------------------
@register_study(
    "regfile",
    "register-file ISV study: worst bit-cell bias with/without ISV",
    defaults={
        "suite": "specint2000",
        "length": 5000,
        "seed": 0,
        "sample_period": 512.0,
    },
    spec_paths={
        **_WORKLOAD_PATHS,
        "sample_period": "protection.sample_period",
    },
)
def run_regfile_point(params: Mapping[str, Any]) -> MetricSet:
    base_bias, isv_bias, free_fraction = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]),
    )
    ms = MetricSet()
    ms.gauge("base_worst_bias", base_bias)
    ms.gauge("isv_worst_bias", isv_bias)
    ms.ratio("free_fraction", free_fraction)
    return ms


@register_study(
    "vmin_power",
    "Vmin/power benefit of ISV balancing at one voltage target",
    defaults={
        "suite": "specint2000",
        "length": 8000,
        "seed": 88,
        "sample_period": 512.0,
        "target": 0.70,
    },
    # target (the scaled-voltage operating point) is analysis-only: set
    # it via StudySpec.overrides.
    spec_paths={
        **_WORKLOAD_PATHS,
        "sample_period": "protection.sample_period",
    },
)
def run_vmin_power_point(params: Mapping[str, Any]) -> MetricSet:
    from repro.nbti.power import ArrayPowerModel

    base_bias, isv_bias, __ = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]),
    )
    model = ArrayPowerModel()
    target = float(params["target"])
    ms = MetricSet()
    ms.gauge("base_bias", base_bias)
    ms.gauge("isv_bias", isv_bias)
    ms.gauge("base_vmin", model.vmin(base_bias))
    ms.gauge("isv_vmin", model.vmin(isv_bias))
    ms.gauge("base_power", model.power_at_scaled_voltage(base_bias,
                                                         target))
    ms.gauge("isv_power", model.power_at_scaled_voltage(isv_bias,
                                                        target))
    ms.gauge("savings", model.savings_from_balancing(base_bias, isv_bias,
                                                     target))
    return ms


# ----------------------------------------------------------------------
# Multiprogram interference study
# ----------------------------------------------------------------------
@register_study(
    "multiprog",
    "multiprogram interference: interleaved suite streams through one "
    "protected DL0",
    defaults={
        "suites": ("specint2000", "office"),
        "length": 4000,
        "seed": 0,
        "policy": "round_robin",
        "slice_length": 64,
        "size_kb": 16,
        "ways": 8,
        "scheme": "line_fixed",
        "ratio": 0.5,
        "dyn_threshold": 0.02,
        "dyn_warmup": 1000,
        "dyn_test_window": 1000,
        "dyn_period": 6000,
    },
    spec_paths={
        "suites": "workload.suites",
        "length": "workload.length",
        "seed": "workload.seed",
        "policy": "workload.interleave",
        "slice_length": "workload.slice_length",
        "size_kb": "processor.dl0.size_kb",
        "ways": "processor.dl0.ways",
        "scheme": "protection.dl0.name",
        "ratio": "protection.dl0.params.ratio",
        "dyn_threshold": "protection.dl0.params.threshold",
        "dyn_warmup": "protection.dl0.params.warmup",
        "dyn_test_window": "protection.dl0.params.test_window",
        "dyn_period": "protection.dl0.params.period",
    },
)
def run_multiprog_point(params: Mapping[str, Any]) -> MetricSet:
    """N programs time-sharing one protected cache, fully streamed.

    Unlike the single-program studies, nothing is materialised: the
    per-suite lazy address streams interleave straight into
    ``Cache.replay``, so the point runs in bounded memory at any length.
    Each replay pass rebuilds the stream from its seeds (generators are
    single-use), which is cheaper than holding N*length references.
    """
    from repro.core.cache_like import (
        DL0_ACCESSES_PER_UOP,
        DL0_EFFECTIVE_PENALTY,
        ProtectedCache,
        performance_loss,
    )
    from repro.uarch.cache import Cache
    from repro.workloads.multiprog import multiprog_address_stream

    raw_suites = params["suites"]
    suites = ((raw_suites,) if isinstance(raw_suites, str)
              else tuple(raw_suites))
    policy = str(params["policy"])
    if policy == "none":
        # WorkloadSpec's default: a spec that never set `interleave`
        # still gets a usable scenario (same fallback as
        # api.build_multiprog_stream).
        policy = "round_robin"
    stream_kwargs = dict(
        length=int(params["length"]),
        seed=int(params["seed"]),
        policy=policy,
        slice_length=int(params["slice_length"]),
    )
    config = _cache_config(params)

    baseline = Cache(config)
    baseline.replay(multiprog_address_stream(suites, **stream_kwargs))
    base_rate = baseline.stats.miss_rate

    created: List[Any] = []
    factory = _scheme_factory(params, created)
    protected = ProtectedCache(Cache(config), factory(),
                               seed=int(params["seed"]))
    protected.replay(multiprog_address_stream(suites, **stream_kwargs))
    scheme_rate = protected.stats.miss_rate

    ms = MetricSet()
    ms.text("scheme_name", created[-1].name)
    ms.counter("n_programs", len(suites))
    ms.ratio("baseline_miss_rate", base_rate)
    ms.ratio("scheme_miss_rate", scheme_rate)
    # The CPI loss is a formula over the two miss-rate siblings
    # (eq.-style Derived; evaluates to performance_loss() exactly).
    ms.derived("mean_loss",
               partial(performance_loss,
                       accesses_per_uop=DL0_ACCESSES_PER_UOP,
                       effective_penalty=DL0_EFFECTIVE_PENALTY),
               args=("baseline_miss_rate", "scheme_miss_rate"))
    ms.ratio("inverted_ratio",
             protected.cache.inverted_count() / config.lines)
    if hasattr(created[-1], "activation_history"):
        ms.text("activations", "".join(
            "A" if d else "-" for d in created[-1].activation_history
        ))
    return ms


# ----------------------------------------------------------------------
# Whole-processor study
# ----------------------------------------------------------------------
@register_study(
    "penelope",
    "whole-processor Penelope run: NBTIefficiency vs full guardband",
    defaults={
        "suite": "specint2000",
        "length": 5000,
        "seed": 0,
        "invert_ratio": 0.5,
        "sample_period": 512.0,
    },
    spec_paths={
        **_WORKLOAD_PATHS,
        "invert_ratio": "protection.dl0.params.ratio",
        "sample_period": "protection.sample_period",
    },
)
def run_penelope_point(params: Mapping[str, Any]) -> MetricSet:
    from repro.core import PenelopeProcessor
    from repro.core.metric import nbti_efficiency

    trace = cached_trace(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    processor = PenelopeProcessor(
        invert_ratio=float(params["invert_ratio"]),
        sample_period=float(params["sample_period"]),
        seed=int(params["seed"]),
    )
    report = processor.evaluate([trace])
    # Eq. (1) as a Derived over its (internal) delay/guardband/TDP
    # inputs — bit-identical to report.efficiency, since ProcessorCost
    # evaluates the very same nbti_efficiency() call.
    ms = MetricSet()
    ms.gauge("delay", report.processor.delay, internal=True)
    ms.gauge("guardband", report.processor.guardband, internal=True)
    ms.gauge("tdp", report.processor.tdp, internal=True)
    ms.derived("efficiency", nbti_efficiency,
               args=("delay", "guardband", "tdp"))
    ms.gauge("baseline_delay", report.baseline_processor.delay,
             internal=True)
    ms.gauge("baseline_guardband", report.baseline_processor.guardband,
             internal=True)
    ms.gauge("baseline_tdp", report.baseline_processor.tdp,
             internal=True)
    ms.derived("baseline_efficiency", nbti_efficiency,
               args=("baseline_delay", "baseline_guardband",
                     "baseline_tdp"))
    ms.gauge("combined_cpi", report.combined_cpi)
    ms.gauge("adder_guardband", report.adder_guardband)
    ms.gauge("int_rf_base_bias", report.int_rf_bias[0])
    ms.gauge("int_rf_isv_bias", report.int_rf_bias[1])
    return ms
