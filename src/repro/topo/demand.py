"""Per-epoch traffic-matrix estimation from channel telemetry.

The topology controller needs a *fabric-level* signal — which switch
pairs exchange traffic, and how much — where the rate ladder only needs
per-link utilization.  :class:`DemandMatrixEstimator` builds that
signal from the telemetry the fabric already exports: every epoch the
controller hands it the delivered Gb/s of each inter-switch channel
(``bytes_sent`` deltas over the epoch), aggregated by the channel's
``(src_group, dst_group)`` endpoints into a src-group x dst-group
demand matrix.  Groups are switches by default (hosts are concentrated
onto switches already); any coarser partition works — the estimator
only sees integer group ids.

Two smoothing planes, deliberately separate:

- an **EWMA matrix** (``alpha``-weighted, first observation
  initializes) — the denoised view of current demand; and
- an optional **forecaster** from the :mod:`repro.predict` registry
  (:data:`repro.predict.forecasters.FORECASTERS`), fed the *raw*
  observations per ``(src, dst)`` key, so topology decisions can run on
  forecast demand exactly the way predictive rate control does — the
  same Holt-Winters trend model that ramps a link's rate ahead of a
  burst can reactivate a dark link group ahead of one.

Determinism rules (the property tests pin both):

- **Conservation** — the raw observation plane is lossless: row and
  column sums of :meth:`last_observed` equal the sums of the injected
  telemetry exactly (the estimator never invents or drops demand).
- **Order independence** — state never depends on dict iteration or
  insertion order of the observed flows, so EWMA state and forecasts
  are identical across ``PYTHONHASHSEED`` values and across permuted
  telemetry orderings.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple


GroupPair = Tuple[int, int]


class DemandMatrixEstimator:
    """EWMA-smoothed (and optionally forecast) group demand matrix.

    Args:
        num_groups: Number of source/destination groups (switches).
        ewma_alpha: Smoothing weight of the newest observation.
        forecaster: Optional forecaster instance obeying the
            :class:`repro.predict.forecasters.Forecaster` protocol
            (build one with
            :func:`repro.predict.forecasters.build_forecaster`);
            ``None`` makes :meth:`forecast` return the EWMA value.
    """

    def __init__(self, num_groups: int, ewma_alpha: float = 0.5,
                 forecaster=None):
        if num_groups < 1:
            raise ValueError(
                f"need at least one group, got {num_groups}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.num_groups = num_groups
        self.ewma_alpha = ewma_alpha
        self.forecaster = forecaster
        self.epochs_observed = 0
        self._smoothed: Dict[GroupPair, float] = {}
        self._last_observed: Dict[GroupPair, float] = {}
        self._forecasts: Dict[GroupPair, float] = {}

    def _check_pair(self, pair: GroupPair) -> None:
        src, dst = pair
        if not (0 <= src < self.num_groups
                and 0 <= dst < self.num_groups):
            raise ValueError(
                f"group pair {pair} outside [0, {self.num_groups})")

    def observe(self, flows: Mapping[GroupPair, float]) -> None:
        """Ingest one epoch of telemetry: ``(src, dst) -> Gb/s``.

        Pairs absent from ``flows`` observed zero demand this epoch —
        their EWMA decays toward zero and their forecaster sees a zero,
        so a gone-quiet pair's forecast actually falls.  Iteration is
        over the sorted union of known and observed pairs: state is
        independent of the mapping's insertion order.
        """
        for pair, gbps in flows.items():
            self._check_pair(pair)
            if gbps < 0.0:
                raise ValueError(
                    f"demand must be non-negative, got {gbps} for {pair}")
        alpha = self.ewma_alpha
        self._last_observed = dict(flows)
        for pair in sorted(set(self._smoothed) | set(flows)):
            observed = flows.get(pair, 0.0)
            previous = self._smoothed.get(pair, observed)
            self._smoothed[pair] = (alpha * observed
                                    + (1.0 - alpha) * previous)
            if self.forecaster is not None:
                self._forecasts[pair] = self.forecaster.update(
                    pair, observed)
        self.epochs_observed += 1

    # -- queries ---------------------------------------------------------

    def demand(self, src: int, dst: int) -> float:
        """EWMA-smoothed demand (Gb/s) from group ``src`` to ``dst``."""
        self._check_pair((src, dst))
        return self._smoothed.get((src, dst), 0.0)

    def forecast(self, src: int, dst: int) -> float:
        """Forecast next-epoch demand: the forecaster's output when one
        is attached, the EWMA value otherwise."""
        self._check_pair((src, dst))
        if self.forecaster is None:
            return self._smoothed.get((src, dst), 0.0)
        return self._forecasts.get((src, dst), 0.0)

    def pair_forecast(self, a: int, b: int) -> float:
        """Worst-direction forecast over the unordered pair — the
        demand a bidirectional link between the groups must carry."""
        return max(self.forecast(a, b), self.forecast(b, a))

    def group_pressure(self, group: int) -> float:
        """Total forecast demand into plus out of one group (Gb/s).

        Stays live while a link is dark: traffic the dark link would
        have carried detours over the group's other links, whose
        channels still source/sink it — this is the reactivation
        signal for links whose own direct demand reads zero once off.
        """
        self._check_pair((group, group))
        total = 0.0
        pairs = (self._forecasts if self.forecaster is not None
                 else self._smoothed)
        for (src, dst), gbps in pairs.items():
            if group in (src, dst) and src != dst:
                total += gbps
        return total

    def last_observed(self) -> Dict[GroupPair, float]:
        """The raw (unsmoothed) flows of the latest epoch — the
        conservation plane the property tests audit."""
        return dict(self._last_observed)

    def matrix(self) -> List[List[float]]:
        """The smoothed matrix as dense rows (deterministic order)."""
        return [[self._smoothed.get((src, dst), 0.0)
                 for dst in range(self.num_groups)]
                for src in range(self.num_groups)]

    def state_signature(self) -> List[Tuple[int, int, float, float]]:
        """Sorted ``(src, dst, smoothed, forecast)`` rows — the
        canonical state the hash-seed-independence tests compare."""
        return [(src, dst, self._smoothed[(src, dst)],
                 self.forecast(src, dst))
                for src, dst in sorted(self._smoothed)]

    def __repr__(self) -> str:
        return (f"DemandMatrixEstimator(num_groups={self.num_groups}, "
                f"ewma_alpha={self.ewma_alpha}, "
                f"forecaster={self.forecaster!r})")
