"""4R1W SAT algorithm (Section VI): the element-wise diagonal recurrence.

Formula (1): ``s[i][j] = a[i][j] + s[i][j-1] + s[i-1][j] - s[i-1][j-1]``.
Evaluating it along anti-diagonals makes every stage's elements
independent: Stage ``k`` (``0 <= k <= 2n - 2``) computes all ``s[i][j]``
with ``i + j == k``, reading already-final neighbors (Figure 10). The
computation is in place — ``a[i][j]`` is only overwritten at its own
stage.

Anti-diagonal elements are ``n - 1`` words apart, so every access is
stride: each block task reads its chunk of the diagonal and the three
neighbouring runs (left, up, corner) and writes the chunk back, each as
one anti-diagonal run (``read_drun`` / ``write_drun``) — up to 4 reads and
1 write per element, ``5 n^2`` stride ops total, with a barrier after
every one of the ``2n - 1`` stages (Lemma 5: cost ``~5 n^2 + 2 n l``).
Both the stride traffic and the kernel-launch latency are maximal — the
paper measures this as by far the slowest GPU algorithm, and this
reproduction's model agrees.

The class exposes ``snapshot_after_stage`` so the Figure 10 benchmark can
show the half-computed matrix exactly as the paper draws it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine.engine.fused import ScatterStageSpec, attach_fused_spec
from ..machine.macro.executor import BlockContext, HMMExecutor
from .base import MATRIX_BUFFER, SATAlgorithm


class FourReadOneWrite(SATAlgorithm):
    """The 4R1W SAT algorithm (anti-diagonal evaluation of Formula (1))."""

    name = "4R1W"
    requires_block_multiple = False
    supports_rectangular = True

    def __init__(self, snapshot_after_stage: Optional[int] = None) -> None:
        self.snapshot_after_stage = snapshot_after_stage
        self.snapshot: Optional[np.ndarray] = None

    @property
    def plan_safe(self) -> bool:
        # Capturing a mid-run snapshot reads global memory between
        # kernels, which a reusable plan cannot express.
        return self.snapshot_after_stage is None

    @staticmethod
    def _stage_task(k: int, i0: int, length: int):
        """One block task evaluating Formula (1) on ``length`` elements of
        anti-diagonal ``k`` from row ``i0`` (one thread per element, at
        most ``w`` per block, matching the paper's thread layout).

        The run's elements are ``(i0 + t, k - i0 - t)``. Every one has an
        upper neighbour unless ``i0 == 0`` (then the first has none), and a
        left neighbour unless the run reaches column 0 (then the last has
        none); the neighbour runs are those sub-runs shifted up, left, or
        both.
        """
        j0 = k - i0
        u0 = 1 if i0 == 0 else 0  # first element with an upper neighbour
        n_left = min(length, j0)  # elements with a left neighbour

        def task(ctx: BlockContext) -> None:
            gm = ctx.gm
            s = gm.read_drun(MATRIX_BUFFER, i0, j0, length)  # original a values
            if n_left > 0:
                s[:n_left] += gm.read_drun(MATRIX_BUFFER, i0, j0 - 1, n_left)
            if length > u0:
                s[u0:] += gm.read_drun(
                    MATRIX_BUFFER, i0 + u0 - 1, j0 - u0, length - u0
                )
            if n_left > u0:
                s[u0:n_left] -= gm.read_drun(
                    MATRIX_BUFFER, i0 + u0 - 1, j0 - u0 - 1, n_left - u0
                )
            gm.write_drun(MATRIX_BUFFER, i0, j0, s)

        return task

    def _run(self, executor: HMMExecutor, rows: int, cols: int) -> None:
        w = executor.params.width
        for k in range(rows + cols - 1):
            i_lo = max(0, k - (cols - 1))
            length = min(k, rows - 1) - i_lo + 1
            tasks = [
                self._stage_task(k, i0, min(w, i_lo + length - i0))
                for i0 in range(i_lo, i_lo + length, w)
            ]
            attach_fused_spec(tasks, ScatterStageSpec(MATRIX_BUFFER, k, i_lo, length))
            executor.run_kernel(tasks, label=f"stage{k}")
            if self.snapshot_after_stage is not None and k == self.snapshot_after_stage:
                self.snapshot = executor.gm.array(MATRIX_BUFFER).copy()
