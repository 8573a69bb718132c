"""repro.service — the tiled SAT serving layer.

The compute side of the repo answers "how fast can one SAT be built";
this package answers "how do you *serve* SAT workloads": state that
stays resident, updates that cost what they dirty, queries that cost
what they touch, and a front end that degrades predictably under load.

* :mod:`~repro.service.store` — :class:`TiledSATStore`: named datasets
  decomposed into ``t x t`` tiles (per-tile local SATs + edge prefixes +
  corner aggregates, the repo's 2R1W block structure made resident)
  behind a bounded LRU with byte accounting;
* :mod:`~repro.service.update` — incremental point/region updates that
  re-fold only the dirty tile and its downstream aggregate suffixes,
  bit-identical to a full rebuild;
* :mod:`~repro.service.queries` — region sums, box filters, and local
  statistics from tile aggregates (at most four corner-tile lookups per
  rectangle);
* :mod:`~repro.service.server` — :class:`SATServer`: asyncio scheduler
  with bounded admission (:class:`~repro.errors.Overloaded` shedding),
  FIFO micro-batching, per-request deadlines, graceful drain, optional
  :class:`~repro.sat.batch.BatchSession` ingest offload, and
  :mod:`repro.obs` instrumentation;
* :mod:`~repro.service.adaptive` — :class:`AdaptiveController`: the
  closed-loop controller behind ``SATServer(adaptive=...)``, retuning
  batch size, coalesce window, and deadline shedding each tick from
  live queue depth / p99 / occupancy signals;
* :mod:`~repro.service.loadgen` — a seeded, oracle-verified load driver
  (``python -m repro loadgen``), including the chaos cluster volley
  (``--chaos``);
* :mod:`~repro.service.cluster` — :class:`WorkerSupervisor`: a pool of
  shard worker processes with heartbeat health checks, crash detection,
  automatic restart, and re-hydration from checksummed flat checkpoints
  (:class:`CheckpointStore`);
* :mod:`~repro.service.router` — :class:`ShardRouter`: contiguous
  tile-range placement across the pool (primary + replicas), ≤4-corner
  query fan-out with deterministic stitching, retry-with-backoff,
  replica failover, per-worker circuit breakers, and graceful
  degradation to a local oracle.
"""

from .adaptive import AdaptiveController, ControllerConfig, ObsSnapshot
from .cluster import CheckpointStore, ShardCheckpoint, WorkerSupervisor
from .loadgen import (
    ClusterLoadgenReport,
    LoadgenReport,
    run_cluster_loadgen,
    run_loadgen,
    run_overload_comparison,
)
from .router import CircuitBreaker, ShardRouter, make_placement
from .queries import (
    box_filter,
    local_stats,
    local_stats_many,
    region_mean,
    region_sum,
    region_sums,
)
from .server import Request, Response, SATServer
from .store import Dataset, TileAggregates, TiledSATStore
from .update import point_update, region_add, region_update

__all__ = [
    "AdaptiveController",
    "CheckpointStore",
    "CircuitBreaker",
    "ClusterLoadgenReport",
    "ControllerConfig",
    "Dataset",
    "LoadgenReport",
    "ObsSnapshot",
    "Request",
    "Response",
    "SATServer",
    "ShardCheckpoint",
    "ShardRouter",
    "TileAggregates",
    "TiledSATStore",
    "WorkerSupervisor",
    "box_filter",
    "local_stats",
    "local_stats_many",
    "make_placement",
    "point_update",
    "region_add",
    "region_mean",
    "region_sum",
    "region_sums",
    "region_update",
    "run_cluster_loadgen",
    "run_loadgen",
    "run_overload_comparison",
]
