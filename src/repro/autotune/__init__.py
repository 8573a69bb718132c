"""Cost-model-guided online autotuning (``algorithm="auto"``).

The paper's Table II shows no single SAT algorithm wins at every size:
2R1W leads up to ~4K, the kR1W family takes over from ~5K, and the best
mixing parameter ``p`` shrinks as ``n`` grows. This package turns that
observation into a planner:

1. **Model prior** — candidate configurations (algorithm, kR1W ``p``,
   machine width, fused backend, serving tile) are ranked by predicted
   ``C/w + S + (B+1)l`` from the calibrated
   :mod:`repro.analysis` model (:mod:`~repro.autotune.arms`).
2. **Measured refinement** — executed decisions report their wall-clock
   back; a per-key UCB/epsilon-greedy bandit blends the measurements
   with the prior, so mispredicted configurations get probed and
   corrected online (:mod:`~repro.autotune.bandit`,
   :mod:`~repro.autotune.planner`).
3. **Persistence** — learned statistics live in a versioned,
   corruption-tolerant JSON sidecar next to the other caches
   (:mod:`~repro.autotune.sidecar`), so choices survive restarts.

Entry points: ``make_algorithm("auto")`` and
``BatchSession(algorithm="auto")`` route through
:class:`~repro.autotune.auto.AutoSAT`;
``python -m repro autotune --sweep`` prints the live decision table
reproducing Table II's crossover; ``python -m repro stats`` surfaces the
planner via ``engine.stats()["autotune"]``.
"""

from .arms import Arm, compute_arms, serving_tile_arms
from .auto import AutoSAT
from .bandit import ArmStats, KeyState
from .planner import (
    AutotunePlanner,
    Decision,
    autotune_stats,
    default_planner,
    set_default_planner,
)
from .sidecar import ENV_VAR as SIDECAR_ENV_VAR

__all__ = [
    "Arm",
    "ArmStats",
    "AutoSAT",
    "AutotunePlanner",
    "Decision",
    "KeyState",
    "SIDECAR_ENV_VAR",
    "autotune_stats",
    "compute_arms",
    "default_planner",
    "serving_tile_arms",
    "set_default_planner",
]
