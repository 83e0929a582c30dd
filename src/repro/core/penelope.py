"""The Penelope processor: whole-chip integration (Section 4.7).

Running every mechanism together:

- the adder injects the <0,0,0>/<1,1,1> pair during idle cycles,
- both register files run ISV at release,
- the scheduler applies the per-field policy at release,
- the DL0 and DTLB run a line-granularity inversion scheme,

and the block costs combine into the processor-level NBTIefficiency via
eqs. (2)–(4).  The paper's bottom line: Penelope 1.28 vs 1.73 for paying
the full guardband (inverting periodically cannot even cover the adder).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.circuits.ladner_fischer import (
    LadnerFischerAdder,
    build_ladner_fischer_adder,
)
from repro.core.cache_like import LineFixedScheme, ProtectedCache
from repro.core.combinational import IdleInputInjector
from repro.core.memory_like import (
    ISVRegisterFileProtector,
    SchedulerPolicy,
    SchedulerProfiler,
    SchedulerProtector,
    derive_scheduler_policy,
)
from repro.core.metric import (
    BlockCost,
    ProcessorCost,
    baseline_block_cost,
    nbti_efficiency,
)
from repro.metrics import MetricSet
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL, GuardbandModel
from repro.uarch.core import (
    CompositeHooks,
    CoreConfig,
    CoreResult,
    TraceDrivenCore,
)
from repro.uarch.bitbias import worst_of
from repro.uarch.cache import Cache
from repro.uarch.tlb import TLB
from repro.uarch.trace import Trace
from repro.uarch.uop import FP_WIDTH, INT_WIDTH


@lru_cache(maxsize=None)
def _default_adder() -> LadnerFischerAdder:
    """The default adder, built once per process on first use; aging
    only evaluates its netlist, so every evaluation can share it."""
    return build_ladner_fischer_adder()


@dataclass
class PenelopeReport:
    """Measured outcome of a Penelope run over a workload."""

    baseline: List[CoreResult]
    protected: List[CoreResult]
    block_costs: List[BlockCost]
    processor: ProcessorCost
    baseline_processor: ProcessorCost
    adder_guardband: float
    int_rf_bias: Tuple[float, float]  # (baseline worst, protected worst)
    fp_rf_bias: Tuple[float, float]
    scheduler_bias: Tuple[float, float]
    combined_cpi: float

    @property
    def efficiency(self) -> float:
        return self.processor.efficiency

    @property
    def baseline_efficiency(self) -> float:
        return self.baseline_processor.efficiency


class PenelopeProcessor:
    """Builds and evaluates the NBTI-aware processor end to end.

    The mechanisms guarding each structure are pluggable through the
    four ``*_factory`` parameters (the declarative front door is
    :func:`repro.api.build_penelope`, which fills them from a
    :class:`~repro.config.specs.ProtectionSpec`).  Defaults replicate
    the paper's full Penelope configuration; a factory returning
    ``None`` leaves its structure unprotected.

    Examples
    --------
    >>> from repro.workloads import generate_workload
    >>> workload = generate_workload(traces_per_suite=1, length=2000,
    ...                              suites=["specint2000"])
    >>> report = PenelopeProcessor().evaluate(workload)
    >>> report.efficiency < report.baseline_efficiency
    True
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        scheduler_policy: Optional[SchedulerPolicy] = None,
        invert_ratio: float = 0.5,
        adder: Optional[LadnerFischerAdder] = None,
        guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
        sample_period: float = 512.0,
        seed: int = 0,
        rf_protector_factory=None,
        scheduler_protector_factory=None,
        cache_scheme_factory=None,
        injector_pair: Tuple[int, int] = (1, 8),
        inject_idle: bool = True,
    ) -> None:
        """``rf_protector_factory(rf_name, width)``,
        ``scheduler_protector_factory(policy)`` and
        ``cache_scheme_factory(structure)`` (``structure`` is ``"dl0"``
        or ``"dtlb"``) build the per-run mechanism instances; each may
        return ``None`` to disable that protection."""
        self.config = config or CoreConfig()
        self.scheduler_policy = scheduler_policy
        self.invert_ratio = invert_ratio
        self.guardband_model = guardband_model
        self.sample_period = sample_period
        self.seed = seed
        self._adder = adder
        self._rf_factory = (
            rf_protector_factory if rf_protector_factory is not None
            else self._default_rf_protector
        )
        self._scheduler_factory = (
            scheduler_protector_factory
            if scheduler_protector_factory is not None
            else self._default_scheduler_protector
        )
        self._cache_factory = (
            cache_scheme_factory if cache_scheme_factory is not None
            else self._default_cache_scheme
        )
        self.injector_pair = tuple(injector_pair)
        self.inject_idle = inject_idle
        #: the most recent :meth:`evaluate` outcome (feeds `metrics()`).
        self.last_report: Optional[PenelopeReport] = None

    # -- default mechanism factories (the paper's configuration) -------
    def _default_rf_protector(self, rf_name: str, width: int):
        return ISVRegisterFileProtector(rf_name, width, self.sample_period)

    def _default_scheduler_protector(self, policy):
        return SchedulerProtector(policy, self.sample_period)

    def _default_cache_scheme(self, structure: str):
        return LineFixedScheme(self.invert_ratio)

    # ------------------------------------------------------------------
    def run_baseline(self, trace: Trace) -> CoreResult:
        """One unprotected run."""
        return TraceDrivenCore(self.config).run(trace)

    def derive_policy(self, profiling_trace: Trace) -> SchedulerPolicy:
        """Profile one trace and derive the scheduler policy (Sec. 4.5).

        Mirrors the paper's two-step flow: K values come from profiling
        traces, then the policy is applied to the evaluation traces.
        """
        return self._profiled_baseline(profiling_trace)[0]

    def _profiled_baseline(
        self, trace: Trace
    ) -> Tuple[SchedulerPolicy, CoreResult]:
        """``(derived policy, baseline result)`` of one unprotected run
        with a :class:`SchedulerProfiler` attached.

        The profiler only observes (it reads each fill, writes nothing
        back), so the run's result is exactly :meth:`run_baseline`'s.
        """
        profiler = SchedulerProfiler()
        result = TraceDrivenCore(self.config, profiler).run(trace)
        policy = derive_scheduler_policy(
            profiler, result.scheduler.occupancy
        )
        return policy, result

    def run_protected(
        self,
        trace: Trace,
        policy: Optional[SchedulerPolicy] = None,
    ) -> CoreResult:
        """One run with every configured Penelope mechanism engaged."""
        effective_policy = (
            policy if policy is not None else self.scheduler_policy
        )
        mechanisms = [
            self._rf_factory("int_rf", INT_WIDTH),
            self._rf_factory("fp_rf", FP_WIDTH),
            self._scheduler_factory(effective_policy),
        ]
        hooks = CompositeHooks([m for m in mechanisms if m is not None])
        dl0_scheme = self._cache_factory("dl0")
        dl0 = (
            ProtectedCache(Cache(self.config.dl0), dl0_scheme,
                           seed=self.seed)
            if dl0_scheme is not None else None
        )
        dtlb_scheme = self._cache_factory("dtlb")
        dtlb = (
            ProtectedCache(TLB(self.config.dtlb), dtlb_scheme,
                           seed=self.seed + 1)
            if dtlb_scheme is not None else None
        )
        core = TraceDrivenCore(self.config, hooks, dl0=dl0, dtlb=dtlb)
        return core.run(trace)

    # ------------------------------------------------------------------
    def evaluate(self, workload: Sequence[Trace]) -> PenelopeReport:
        """Run baseline and protected passes and combine block costs.

        Without an explicit ``scheduler_policy`` the policy is profiled
        on ``workload[0]`` inside that trace's baseline run, so each
        trace takes two core passes: baseline and protected.
        """
        if not workload:
            raise ValueError("workload must contain at least one trace")
        policy = self.scheduler_policy
        baseline: List[CoreResult] = []
        if policy is None:
            policy, first = self._profiled_baseline(workload[0])
            baseline.append(first)
        baseline += [self.run_baseline(trace)
                     for trace in workload[len(baseline):]]
        protected = [self.run_protected(trace, policy) for trace in workload]

        # -- adder: idle injection at the measured utilisation ----------
        adder = self._adder or _default_adder()
        vectors = [v for res in baseline for v in res.adder_samples]
        if not vectors:
            vectors = [(0, 0, 0)]
        per_trace = [
            sum(res.adder_utilization) / max(1, len(res.adder_utilization))
            for res in baseline
        ]
        utilization = sum(per_trace) / max(1, len(per_trace))
        injector = IdleInputInjector(adder, self.injector_pair,
                                     self.guardband_model)
        adder_report = injector.age(vectors[:256], min(1.0, utilization),
                                    inject=self.inject_idle)
        adder_guardband = self.guardband_model.guardband_for_duty(
            adder_report.worst_narrow_duty
        )

        # -- storage blocks: bias -> guardband ---------------------------
        int_base = _merged_rf_bias(baseline, fp=False)
        int_prot = _merged_rf_bias(protected, fp=False)
        fp_base = _merged_rf_bias(baseline, fp=True)
        fp_prot = _merged_rf_bias(protected, fp=True)
        sched_base = _merged_scheduler_bias(baseline)
        sched_prot = _merged_scheduler_bias(protected)

        gb = self.guardband_model.guardband_for_bias
        block_costs = [
            BlockCost("adder", delay=1.0, guardband=adder_guardband,
                      tdp=1.0),
            BlockCost("int_rf", delay=1.0, guardband=gb(int_prot),
                      tdp=1.01),
            BlockCost("fp_rf", delay=1.0, guardband=gb(fp_prot), tdp=1.01),
            BlockCost("scheduler", delay=1.0, guardband=gb(sched_prot),
                      tdp=1.02),
            BlockCost("dl0+dtlb", delay=1.0,
                      guardband=self.guardband_model.min_guardband,
                      tdp=1.01),
        ]

        combined_cpi = _combined_cpi(baseline, protected)
        processor = ProcessorCost(blocks=block_costs,
                                  combined_cpi=combined_cpi)
        baseline_processor = ProcessorCost(
            blocks=[baseline_block_cost(b.name) for b in block_costs],
            combined_cpi=1.0,
        )
        report = PenelopeReport(
            baseline=baseline,
            protected=protected,
            block_costs=block_costs,
            processor=processor,
            baseline_processor=baseline_processor,
            adder_guardband=adder_guardband,
            int_rf_bias=(int_base, int_prot),
            fp_rf_bias=(fp_base, fp_prot),
            scheduler_bias=(sched_base, sched_prot),
            combined_cpi=combined_cpi,
        )
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the last evaluation (the MetricSource contract).

        The processor itself is stateless across :meth:`evaluate`
        calls — every run builds fresh cores and mechanisms — so the
        only per-run state is the report backing :meth:`metrics`.
        """
        self.last_report = None

    def metrics(self) -> MetricSet:
        """Metric tree of the most recent :meth:`evaluate` outcome.

        Eq. (1) is wired as a :class:`~repro.metrics.stats.Derived`
        stat over the processor's ``delay``/``guardband``/``tdp``
        gauges (internal inputs), at whole-processor, baseline, and
        per-block level, so any consumer can re-derive NBTIefficiency
        from the tree alone.
        """
        report = self.last_report
        if report is None:
            raise RuntimeError(
                "PenelopeProcessor.metrics() needs an evaluate() run "
                "first: the tree reports the last evaluation"
            )
        ms = MetricSet()
        _cost_metrics(ms, report.processor)
        ms.gauge("combined_cpi", report.combined_cpi)
        ms.gauge("adder_guardband", report.adder_guardband)
        _cost_metrics(ms.child("baseline"), report.baseline_processor)
        blocks = ms.child("blocks")
        for cost in report.block_costs:
            _cost_metrics(blocks.child(cost.name), cost)
        for name, (base, prot) in (
            ("int_rf", report.int_rf_bias),
            ("fp_rf", report.fp_rf_bias),
            ("scheduler", report.scheduler_bias),
        ):
            bias = ms.child(name)
            bias.gauge("base_worst_bias", base)
            bias.gauge("protected_worst_bias", prot)
        return ms


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def _cost_metrics(ms: MetricSet, cost) -> MetricSet:
    """Eq. (1) inputs as internal gauges + the Derived efficiency."""
    ms.gauge("delay", cost.delay, internal=True)
    ms.gauge("guardband", cost.guardband, internal=True)
    ms.gauge("tdp", cost.tdp, internal=True)
    ms.derived("efficiency", nbti_efficiency,
               args=("delay", "guardband", "tdp"),
               help="eq. (1): (delay*(1+guardband))^3 * TDP")
    return ms



def _merged_rf_bias(results: Sequence[CoreResult], fp: bool) -> float:
    """Worst per-bit bias aggregated over traces (cycle-weighted)."""
    total: Optional[List[float]] = None
    weight = 0.0
    for res in results:
        stats = res.fp_rf if fp else res.int_rf
        contribution = [float(b) * res.cycles for b in stats.bias_to_zero]
        total = (contribution if total is None
                 else [t + c for t, c in zip(total, contribution)])
        weight += res.cycles
    return worst_of(t / weight for t in total)


def _merged_scheduler_bias(results: Sequence[CoreResult]) -> float:
    total: Optional[List[float]] = None
    weight = 0.0
    for res in results:
        contribution = [
            float(b) * res.cycles for b in res.scheduler.flattened_bias()
        ]
        total = (contribution if total is None
                 else [t + c for t, c in zip(total, contribution)])
        weight += res.cycles
    return worst_of(t / weight for t in total)


def _combined_cpi(
    baseline: Sequence[CoreResult], protected: Sequence[CoreResult]
) -> float:
    """Normalised CPI of the protected runs vs the baseline (eq. 2)."""
    base = sum(r.cycles for r in baseline) / max(
        1, sum(r.uops for r in baseline)
    )
    prot = sum(r.cycles for r in protected) / max(
        1, sum(r.uops for r in protected)
    )
    if base <= 0.0:
        return 1.0
    return max(1.0, prot / base)
