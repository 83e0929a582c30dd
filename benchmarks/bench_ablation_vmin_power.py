"""Extension: the Vmin / power benefit (Section 1, Conclusions).

"Vmin does not increase as much in memory-like structures by mitigating
NBTI, hence leading to higher power efficiency of such structures."
This bench quantifies that claim for the register file using the
measured baseline/ISV biases and the first-order SRAM power model, plus
a way-granularity inversion data point (the paper's third granularity).

Driven through the experiment engine: the voltage targets are a grid
axis of the ``vmin_power`` study (the underlying core runs are shared
across points via the per-worker bias cache), and the way-granularity
data point is one ``caches`` study point.
"""

import pytest

from repro.analysis import format_table
from repro.experiments import SweepSpec, run_sweep

from conftest import SMOKE, scaled

TARGETS = (0.60, 0.70, 0.80)

POWER_SPEC = SweepSpec(
    "vmin_power",
    base={"suite": "specint2000", "length": scaled(8000), "seed": 88},
    grid={"target": list(TARGETS)},
)

WAY_SPEC = SweepSpec(
    "caches",
    base={
        "suite": "office", "length": scaled(8000), "seed": 88,
        "size_kb": 16, "ways": 8, "scheme": "way_fixed", "ratio": 0.5,
    },
)


def sweep():
    power = run_sweep(POWER_SPEC).results
    way = run_sweep(WAY_SPEC).results[0]
    return power, way


def test_ablation_vmin_power(benchmark):
    power, way = benchmark.pedantic(sweep, rounds=1, iterations=1)
    first = power[0].metrics
    base_bias, isv_bias = first["base_bias"], first["isv_bias"]
    base_vmin, isv_vmin = first["base_vmin"], first["isv_vmin"]
    if not SMOKE:
        assert isv_vmin < base_vmin

    rows = []
    savings_by_target = {}
    for result in power:
        target = result.params["target"]
        savings_by_target[target] = result.metrics["savings"]
        rows.append([
            f"{target:.2f} V",
            f"{result.metrics['base_power']:.3f}",
            f"{result.metrics['isv_power']:.3f}",
            f"{result.metrics['savings']:.1%}",
        ])
    # Deeper scaling exposes more of the Vmin benefit.
    ordered = [savings_by_target[t] for t in (0.80, 0.70, 0.60)]
    if not SMOKE:
        assert ordered == sorted(ordered)
        assert savings_by_target[0.60] > 0.0

    text = format_table(
        ["voltage target", "baseline power", "ISV power", "savings"],
        rows,
        title=(f"Extension — Vmin/power benefit (INT RF, bias "
               f"{base_bias:.1%} -> {isv_bias:.1%}; Vmin "
               f"{base_vmin:.3f}V -> {isv_vmin:.3f}V)"),
    )
    text += (f"\nWayFixed50% on DL0-16K (office): perf loss "
             f"{way.metrics['mean_loss']:.2%}, inverted ratio "
             f"{way.metrics['inverted_ratio']:.0%}")
    from conftest import write_result

    write_result(
        "ablation_vmin_power.txt", text,
        data={
            "base_bias": base_bias,
            "isv_bias": isv_bias,
            "base_vmin": base_vmin,
            "isv_vmin": isv_vmin,
            "savings_by_target": {
                f"{t:.2f}": s for t, s in savings_by_target.items()
            },
            "way_fixed": way.metrics,
        },
    )
