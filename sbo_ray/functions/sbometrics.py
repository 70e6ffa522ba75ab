"""The reference's metric accumulator (``metrics/SBOMetrics.go``).

The metric-type enum and the bounded-window accumulator with eviction
and late-drop. Compat mode (``stages/compat.py``) replays it per
(source, metric_type, key_value) group; the pure-Python oracle runs it
row at a time (``oracle/pipeline.py``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

# metric-type enum (metrics/SBOMetrics.go:35-47)
METRIC_REQ_COUNT = 1
METRIC_BYTES_SENT = 2
METRIC_HTTP_STATUS = 3
METRIC_CLIENT_IP = 4  # defined; emission commented out (metricgenerator.go:92-98)
METRIC_METHOD = 5
METRIC_REFERER = 6
METRIC_PATH = 7
METRIC_UA_FAMILY = 11
METRIC_OS_FAMILY = 12
METRIC_DEVICE_TYPE = 13
METRIC_IS_HUMAN = 14
METRIC_REQUEST_INTENT = 15


@dataclass
class _Metric:
    """SBOMetric (SBOMetrics.go:49-55): fixed-size keys array (with the
    zero placeholders Go allocates) + window->value map."""
    keys: list[int] = None  # lazily sized to window_size, like make([]int64, W)
    values: dict[int, int] = field(default_factory=dict)
    key_counter: int = 0


class SBOMetricsManager:
    """SBOMetricsManager / SBOMetric.addValue semantics, replicated
    bit-for-bit (SBOMetrics.go:75-210) including its quirks:

    - ``keys[0]`` (the current smallest) is *overwritten* by the new
      window before sorting (SBOMetrics.go:189-190), so on the first
      eviction the oldest window is silently dropped from ``keys`` while
      its value stays orphaned in ``Values`` until ``End()`` — the
      *second*-smallest is what gets evicted and emitted.
    - A new window smaller than every retained one is silently dropped
      (SBOMetrics.go:192-196; TODO "report?" in the reference — we count
      it in ``dropped_late`` as a lineage metric).
    - ``Values[tw] < 1`` (SBOMetrics.go:188) treats a stored 0 (possible
      for BYTES_SENT) as absent, re-running the insertion path.

    In add-merge sink mode (db/mysqldb.go:150) the summed emissions equal
    the exact groupby totals minus late-dropped adds; with chronological
    input they're identical (asserted in tests).
    """

    def __init__(self, window_size: int = 3) -> None:
        self.window_size = window_size
        self.metrics: dict[tuple[str, int, str], _Metric] = defaultdict(_Metric)
        self.dropped_late = 0  # lineage counter: silently dropped late adds

    def add(self, source: str, metric_type: int, key_value: str,
            time_window: int, value: int) -> tuple[int, int] | None:
        m = self.metrics[(source, metric_type, key_value)]
        if m.keys is None:
            m.keys = [0] * self.window_size
        if m.values.get(time_window, 0) >= 1:
            m.values[time_window] += value
            return None
        evicted = None
        m.keys[0] = time_window
        m.keys.sort()
        if m.key_counter >= self.window_size:
            if m.keys[0] == time_window:
                self.dropped_late += 1
                return None  # late data older than all retained -> dropped
            ev_tw = m.keys[0]
            evicted = (ev_tw, m.values.pop(ev_tw, 0))
        m.values[time_window] = value
        m.key_counter += 1
        return evicted

    def flush(self):
        """End() flush (metricgenerator.go:170-179): iterates the Values
        map — which includes orphaned windows no longer in ``keys``."""
        for (source, mtype, key), m in sorted(self.metrics.items()):
            for tw in sorted(m.values):
                yield (source, mtype, key, tw, m.values[tw])
