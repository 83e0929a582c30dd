"""Ablation: invert-ratio sweep for line-granularity cache inversion.

The paper fixes K=50% for perfect balancing and mentions the fixed /
dynamic trade-off; this sweep quantifies the bias-vs-performance knob:
higher ratios balance bit cells harder but cost more capacity.

Driven through the experiment engine (:mod:`repro.experiments`): the
grid is ratio × suite, points run uncached so the timing stays honest,
and per-ratio rows aggregate with the summary helpers.
"""

import pytest

from repro.analysis import format_table
from repro.experiments import (
    SweepSpec,
    aggregate_metric,
    group_results,
    run_sweep,
)
from repro.workloads import suite_names

from conftest import SMOKE, scaled

RATIOS = (0.25, 0.4, 0.5, 0.6, 0.75)

SPEC = SweepSpec(
    "invert_ratio",
    base={"length": scaled(10_000), "seed": 55, "size_kb": 16,
          "ways": 8},
    grid={"ratio": list(RATIOS), "suite": suite_names()},
)


def sweep():
    outcome = run_sweep(SPEC)
    rows = []
    losses = []
    data = {}
    for (ratio,), members in group_results(outcome.results,
                                           ["ratio"]).items():
        loss = aggregate_metric(members, "mean_loss")
        achieved = aggregate_metric(members, "inverted_ratio")
        expected_bias = aggregate_metric(members, "expected_bias")
        rows.append([
            f"{ratio:.0%}",
            f"{loss:.2%}",
            f"{achieved:.1%}",
            f"{expected_bias:.1%}",
        ])
        losses.append(loss)
        data[f"{ratio:.2f}"] = {
            "mean_loss": loss,
            "achieved_ratio": achieved,
            "expected_bias": expected_bias,
        }
    return rows, losses, data


def test_ablation_invert_ratio(benchmark):
    rows, losses, data = benchmark.pedantic(sweep, rounds=1,
                                            iterations=1)
    # More inversion can only cost more performance.
    if not SMOKE:
        assert losses == sorted(losses)
    text = format_table(
        ["invert ratio", "perf loss", "achieved ratio",
         "worst-cell bias (90%-biased data)"],
        rows,
        title="Ablation — invert-ratio sweep (LineFixed, DL0-16K-8w)",
    )
    from conftest import write_result

    write_result("ablation_invert_ratio.txt", text, data=data)
