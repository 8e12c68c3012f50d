"""SUU-T: directed-forest precedence via chain blocks (Appendix B, Thm 12).

Decompose the forest into ``O(log n)`` blocks of vertex-disjoint chains
(:mod:`repro.instance.decomposition`), then run SUU-C once per block,
sequentially.  Sequential block execution is precedence-safe: every
predecessor of a job in block ``b`` lies in an earlier block or earlier in
the same chain, so while block ``b`` runs, chain-internal eligibility is
exactly true eligibility.

Each block is executed on a *sub-instance* (the block's jobs relabelled
``0..k-1`` with the chain edges), and the sub-policy's assignments are
translated back to global job ids.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.core.chain_batch import ChainCursorBatch
from repro.core.rounding import PAPER_SCALE
from repro.core.suu_c import SUUCPolicy
from repro.errors import ReproError
from repro.instance.decomposition import decompose_forest
from repro.instance.instance import SUUInstance
from repro.instance.precedence import PrecedenceGraph
from repro.schedule.base import IDLE, PhasedPolicy, SimulationState

__all__ = ["SUUTPolicy"]


@register_policy(
    "suu-t", default_for=("out_forest", "in_forest", "mixed_forest")
)
class SUUTPolicy(PhasedPolicy):
    """Forest precedence: sequential SUU-C over heavy-path chain blocks.

    Parameters are forwarded to the per-block :class:`SUUCPolicy`.

    Attributes
    ----------
    stats:
        ``n_blocks`` plus the per-block SUU-C stats of the last execution.

    Like :class:`SUUCPolicy`, grouped batch dispatch covers discipline v2
    only (per-block array cursors); under v1 the batch kernel runs one
    scalar policy per trial.
    """

    name = "SUU-T"
    phased_disciplines = ("v2",)

    def __init__(self, scale: int = PAPER_SCALE, **suu_c_kwargs):
        self.scale = int(scale)
        self.suu_c_kwargs = dict(suu_c_kwargs)
        self.stats: dict = {}
        self._instance = None
        #: Per-block array-cursor engines under discipline v2.
        self._v2_cursors: list[ChainCursorBatch] | None = None

    def start(self, instance, rng) -> None:
        self._instance = instance
        self._rng = rng
        self._v2_cursors = None
        blocks = decompose_forest(instance.graph)
        self._blocks = blocks
        self._block_idx = -1
        self._sub_policy: SUUCPolicy | None = None
        self._sub_jobs: np.ndarray | None = None
        self._idle = np.full(instance.n_machines, IDLE, dtype=np.int64)
        self._sub_t = 0
        self.stats = {"n_blocks": len(blocks), "blocks": []}

    def _block_sub_instance(self, b: int) -> tuple[SUUInstance, np.ndarray]:
        """The block's jobs relabelled ``0..k-1`` with their chain edges."""
        block = self._blocks[b]
        jobs = sorted(j for chain in block for j in chain)
        index = {j: k for k, j in enumerate(jobs)}
        edges = [
            (index[chain[k]], index[chain[k + 1]])
            for chain in block
            for k in range(len(chain) - 1)
        ]
        sub_q = self._instance.q[:, jobs]
        sub_inst = SUUInstance(sub_q, PrecedenceGraph(len(jobs), edges))
        return sub_inst, np.asarray(jobs, dtype=np.int64)

    def _start_block(self, b: int) -> None:
        """Build the block's sub-instance and a fresh SUU-C policy for it."""
        sub_inst, jobs = self._block_sub_instance(b)
        policy = SUUCPolicy(scale=self.scale, **self.suu_c_kwargs)
        policy.start(sub_inst, self._rng.spawn(1)[0])
        self._sub_policy = policy
        # Chain edges as (predecessor, successor) index arrays, built once
        # per block because _sub_state runs every step.
        edges = np.asarray(sub_inst.graph.edges, dtype=np.int64).reshape(-1, 2)
        self._chain_pred, self._chain_succ = edges[:, 0], edges[:, 1]
        self._sub_jobs = jobs
        self._sub_t = 0
        self._block_idx = b

    def _sub_state(self, state: SimulationState) -> SimulationState:
        """Project the global simulation state onto the block's jobs."""
        jobs = self._sub_jobs
        remaining = state.remaining[jobs]
        # Chain predecessors: eligible when the (unique) predecessor is done.
        eligible = remaining.copy()
        eligible[self._chain_succ[remaining[self._chain_pred]]] = False
        return SimulationState(
            t=self._sub_t,
            remaining=remaining,
            eligible=eligible,
            mass_accrued=state.mass_accrued[jobs],
        )

    def assign(self, state: SimulationState) -> np.ndarray:
        if self._instance is None:
            raise RuntimeError("policy used before start()")
        # Advance to the first block with uncompleted jobs.
        while True:
            if self._sub_policy is not None and bool(
                state.remaining[self._sub_jobs].any()
            ):
                break
            if self._sub_policy is not None:
                self.stats["blocks"].append(dict(self._sub_policy.stats))
            nxt = self._block_idx + 1
            if nxt >= len(self._blocks):
                if state.remaining.any():
                    raise ReproError(
                        "SUU-T exhausted all blocks with jobs remaining"
                    )
                return self._idle
            self._start_block(nxt)

        sub_row = self._sub_policy.assign(self._sub_state(state))
        self._sub_t += 1
        row = self._idle.copy()
        active = sub_row >= 0
        row[active] = self._sub_jobs[sub_row[active]]
        return row

    # ------------------------------------------------------------------
    # Grouped batch dispatch (discipline v2): per-block array cursors
    # (see core.chain_batch)
    # ------------------------------------------------------------------
    def _shared_block_plans(self, instance) -> list:
        """Per-block ``(sub-instance, jobs, plan)`` triples, plan-cached."""
        self._blocks = decompose_forest(instance.graph)
        probe = SUUCPolicy(scale=self.scale, **self.suu_c_kwargs)
        shared = []
        for b in range(len(self._blocks)):
            sub_inst, jobs = self._block_sub_instance(b)
            shared.append((sub_inst, jobs, probe.prepare_plan(sub_inst)))
        return shared

    def start_phased_v2(self, instance, streams, n_trials: int) -> None:
        probe = SUUCPolicy(scale=self.scale, **self.suu_c_kwargs)
        self._instance = instance
        shared = self._shared_block_plans(instance)
        cursors = []
        for b, (sub_inst, jobs, plan) in enumerate(shared):
            # Block delays are pre-drawn for every trial (v1 draws them on
            # block entry; the joint distribution is identical since all
            # draws are independent), keyed by block index.
            delays = self._draw_block_delays(streams, n_trials, plan, b, probe)
            cursors.append(
                ChainCursorBatch(
                    plan,
                    sub_inst,
                    delays,
                    n_machines=instance.n_machines,
                    job_map=jobs,
                    n_engine_jobs=instance.n_jobs,
                    scale=self.scale,
                    inner=probe.inner,
                    enable_segments=probe.enable_segments,
                    enable_fallback=probe.enable_fallback,
                )
            )
        self._v2_cursors = cursors
        self._v2_block = np.zeros(n_trials, dtype=np.int64)
        self._block_job_arrays = [jobs for _, jobs, _ in shared]
        self.stats = {"n_blocks": len(shared), "blocks": [c.stats for c in cursors]}

    def _draw_block_delays(self, streams, n_trials, plan, block: int, probe):
        """Block ``block``'s ``(n_trials, n_chains)`` delay matrix.

        Delegates to SUU-C's draw (one distribution, one implementation),
        keyed by block.  Override point for the cursor cross-check tests.
        """
        return probe._draw_v2_delays(streams, n_trials, plan, block)

    def begin_step(self, state) -> None:
        """Per-step vectorized block advance + signature-grouped stepping.

        One pass computes every trial's current block (the first block, at
        or past its last one, that still has live jobs) and hands each
        block's member trials to its cursor's :meth:`~repro.core.
        chain_batch.ChainCursorBatch.prepare_step`.
        """
        alive = np.stack(
            [
                state.remaining[:, jobs].any(axis=1)
                for jobs in self._block_job_arrays
            ]
        )
        n_blocks = alive.shape[0]
        allowed = alive & (
            np.arange(n_blocks, dtype=np.int64)[:, None]
            >= self._v2_block[None, :]
        )
        active = np.asarray(state.active)
        if bool((active & ~allowed.any(axis=0)).any()):
            raise ReproError("SUU-T exhausted all blocks with jobs remaining")
        self._v2_block = np.where(
            active, np.argmax(allowed, axis=0), self._v2_block
        )
        for b, cursor in enumerate(self._v2_cursors):
            members = np.flatnonzero(active & (self._v2_block == b))
            if members.size:
                cursor.prepare_step(state, members)

    def phase_key(self, trial: int, state):
        blk = int(self._v2_block[trial])
        return (blk,) + self._v2_cursors[blk].key_of(trial)

    def assign_group(self, state, trials) -> np.ndarray:
        blk = int(self._v2_block[int(trials[0])])
        cursor = self._v2_cursors[blk]
        return cursor.dispatch(cursor.key_of(int(trials[0])), trials)
