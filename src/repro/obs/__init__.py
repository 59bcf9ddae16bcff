"""repro.obs — the unified telemetry subsystem.

Zero-dependency observability for the whole execution stack:

- :mod:`repro.obs.trace` — structured span tracing to append-only
  per-process JSONL logs under ``<store>/obs/``, activated by
  ``REPRO_TRACE`` / ``--trace``; off costs one module-level check.
- :mod:`repro.obs.metrics` — named counters and histograms with
  merge-safe snapshots; the one facility behind CampaignReport tallies
  (store hits and errors included) and the engine's leap-audit probes
  (pool workers publish theirs per attempt).
- :mod:`repro.obs.export` — merge obs logs, export Chrome trace-event
  JSON (``repro obs export --chrome``) for Perfetto timelines.

The non-negotiable contract (pinned in tier-1): tracing on vs. off is
byte-identical in every result and stat — spans observe, they never
steer.
"""

from . import metrics
from .export import export_chrome, merge_logs, summarize, to_chrome
from .metrics import REGISTRY, MetricsRegistry, merge_snapshots
from .trace import (
    OBS_SCHEMA,
    Tracer,
    activate,
    deactivate,
    default_obs_dir,
    enabled,
    event,
    iter_events,
    obs_log_paths,
    refresh,
    span,
)

__all__ = [
    "OBS_SCHEMA",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
    "activate",
    "deactivate",
    "default_obs_dir",
    "enabled",
    "event",
    "export_chrome",
    "iter_events",
    "merge_logs",
    "merge_snapshots",
    "metrics",
    "obs_log_paths",
    "refresh",
    "span",
    "summarize",
    "to_chrome",
]
