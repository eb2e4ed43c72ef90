"""Live service observability: exporter endpoints and SLO monitoring.

Three pillars, built on the correlation ids the service mints per query
(:meth:`repro.service.DistanceService.submit`):

* **query-correlated tracing** — every span, metrics scope, history
  record and guarantee verdict carries ``trace_id``/``query_id``;
  :mod:`repro.analysis.skew` filters a shared trace stream per query;
* **exporter** (:mod:`.exporter`) — ``/metrics`` (Prometheus text) +
  ``/healthz`` + ``/readyz`` over stdlib ``http.server``;
* **SLO monitor** (:mod:`.slo`) — per-engine objectives with rolling
  error-budget burn rates, behind ``repro serve --slo`` and the
  ``tools/check_slo.py`` CI gate;
* **kernel meter and profiler** (:mod:`.profile`) — one ``(calls,
  cells, seconds)`` event per kernel call, from which the
  ``strings.*`` registry counters and the per-(kernel, round, machine,
  query) attribution are derived, with flamegraph export (``repro
  profile``), the differential profiler (``repro profdiff``) and a
  ``/profile`` endpoint on the exporter.
"""

from .exporter import ObservabilityServer, prometheus_exposition, \
    render_health
from .profile import (KernelProbe, collect_profile, diff_profiles,
                      flame_from_record, flame_from_spans, global_profile,
                      hot_kernels, inject_slowdown, kernel_probe,
                      profiling_enabled, reset_global_profile,
                      totals_from_record, totals_from_spans,
                      write_collapsed)
from .slo import (SLO, QuerySample, SLOMonitor, SLOReport, burn_rate,
                  default_slos, sample_from_outcome, sample_from_record)

__all__ = ["ObservabilityServer", "prometheus_exposition", "render_health",
           "KernelProbe", "kernel_probe", "collect_profile",
           "profiling_enabled", "inject_slowdown", "global_profile",
           "reset_global_profile", "hot_kernels", "diff_profiles",
           "totals_from_record", "totals_from_spans",
           "flame_from_record", "flame_from_spans", "write_collapsed",
           "SLO", "QuerySample", "SLOMonitor", "SLOReport", "burn_rate",
           "default_slos", "sample_from_outcome", "sample_from_record"]
