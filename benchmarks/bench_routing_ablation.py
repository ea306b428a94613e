"""Ablation: adaptive routing under rate scaling (Section 3.3 / 5.3).

Adaptive routing must never deliver less than dimension-order routing,
and its advantage must appear once reactivations are long enough for
traffic to pile up behind stalled links.
"""

from conftest import run_experiment


def test_routing_ablation(benchmark, scale):
    result = run_experiment(benchmark, "routing-ablation", scale)
    print("\n" + result.format_table())

    for react in result.reactivations_ns:
        assert result.delivered("adaptive", react) >= \
            0.97 * result.delivered("dimension-order", react)
    # At the long reactivation, adaptive routing's path diversity buys a
    # real throughput margin.
    long = max(result.reactivations_ns)
    assert result.delivered("adaptive", long) > \
        1.02 * result.delivered("dimension-order", long)
