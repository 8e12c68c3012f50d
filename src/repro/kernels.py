"""The batch engine's stepping kernels, as whole-batch numpy passes.

The batch engine's per-step inner body (:mod:`repro.sim.batch`) and the
chain cursors' whole-batch boundary transitions
(:mod:`repro.core.chain_batch`) are six functions over ``(trials, ...)``
state arrays:

==================== ====================================================
``accrue``           one step's dense mass accrual + assignment validation
                     (the v1 ``suu`` coin-flip path)
``commit``           completion commit / in-degree + eligibility refresh
``drive_step``       the threshold step on the assigned ``(rows, m)``
                     cells only: validation, per-job sums in a caller's
                     scratch, completion test, commit
``chain_finish``     chain-cursor advance at a drained superstep
``chain_build``      chain start / pause recovery / signature encoding
``expand_signature`` superstep signature -> shared assignment rows
==================== ====================================================

Callers reach them as attributes of this module (``kernels.drive_step(
...)``, arguments by position), never through a name bound at import, so
a wrapper installed on the object :func:`get_backend` returns — how
``perfbench``'s tracer attributes kernel time — sees every call.

The kernels are serial and keep no module state.  With
``kernel_threads > 1``, :func:`repro.sim.batch.run_policy_batch` splits
a vectorized batch that steps against a threshold matrix into
contiguous trial shards on a thread pool, each shard calling
:func:`drive_step` on its own rows and its own scratch; every other
batch calls the kernels from one thread.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "BAD_PRECEDENCE",
    "BAD_RANGE",
    "KIND_BLOCK",
    "KIND_END",
    "KIND_PAUSE",
    "OK",
    "accrue",
    "chain_build",
    "chain_finish",
    "commit",
    "drive_step",
    "expand_signature",
    "get_backend",
]

# Item-kind codes in the flattened chain-program tables
# (:class:`~repro.core.chain_batch.ChainCursorBatch`).
KIND_BLOCK = 0
KIND_PAUSE = 1
KIND_END = 2

# Violation codes returned by the step kernels; the batch engine raises
# the actual ScheduleViolationError.
OK = 0
BAD_RANGE = 1
BAD_PRECEDENCE = 2


def get_backend():
    """This module: the object whose kernel attributes the engine calls."""
    return sys.modules[__name__]


def accrue(a, ell, remaining, eligible, busy, independent):
    """One step's mass accrual: assignments -> delivered mass per job.

    Returns ``(status, trial, machine, step_mass)``; on a non-zero status
    the step must be abandoned (the batch engine raises).  ``busy`` is
    updated in place.  Job ids are always range-checked, and precedence
    unless ``independent`` (where it cannot fail).  ``remaining`` /
    ``eligible`` must be C-contiguous (their ``.ravel()`` views share
    memory), which :func:`repro.sim.batch._drive_batch` guarantees.
    """
    B, m = a.shape
    n = remaining.shape[1]
    if (a >= n).any() or (a < -1).any():
        bad = (a >= n) | (a < -1)
        b, i = np.argwhere(bad)[0]
        return BAD_RANGE, int(b), int(i), np.zeros((B, n), dtype=np.float64)
    assigned = a >= 0
    clipped = np.maximum(a, 0)  # IDLE -> job 0 with zero weight below
    flat_base = (np.arange(B, dtype=np.int64) * n)[:, None]
    flat_all = flat_base + clipped  # (B, m) indices into (B*n,) planes
    # As in the scalar engine: assignments to completed jobs idle
    # silently, assignments to remaining-but-ineligible jobs are
    # precedence violations.  Inactive trials have remaining all-False,
    # so they can never trip the check.
    effective = assigned & remaining.ravel()[flat_all]
    if not independent:
        bad = effective & ~eligible.ravel()[flat_all]
        if bad.any():
            b, i = np.argwhere(bad)[0]
            return BAD_PRECEDENCE, int(b), int(i), np.zeros((B, n), dtype=np.float64)
    machine_base = (np.arange(m, dtype=np.int64) * n)[None, :]
    weights = ell.ravel()[machine_base + clipped] * effective
    step_mass = np.bincount(
        flat_all.ravel(), weights=weights.ravel(), minlength=B * n
    ).reshape(B, n)
    busy += effective.sum(axis=1)
    return OK, -1, -1, step_mass


def commit(done_now, t_next, completion_times, remaining, eligible, indeg,
           succ_indptr, succ_indices, active, independent):
    """Fold one step's completions into the batch state (in place)."""
    if not done_now.any():
        return
    completion_times[done_now] = t_next
    remaining &= ~done_now
    if independent:
        np.copyto(eligible, remaining)
    else:
        done_trials, done_jobs = np.nonzero(done_now)
        origins, successors = _successors_flat(succ_indptr, succ_indices, done_jobs)
        if successors.size:
            np.subtract.at(indeg, (done_trials[origins], successors), 1)
        np.logical_and(remaining, indeg == 0, out=eligible)
    np.any(remaining, axis=1, out=active)


def drive_step(a, ell, theta, u, mode, t_next, remaining, eligible, indeg,
               mass_accrued, completion_times, busy, active,
               succ_indptr, succ_indices, independent, scratch):
    """One engine step under SUU* thresholds, on the assigned cells only.

    A job finishes once its accrued mass reaches its threshold ``theta``
    (SUU*; by Theorem 10 also how the engine samples SUU).  Only the
    ``(rows, m)`` cells the machines were assigned to can change, so every
    pass runs on them, addressed by ``flat = row * n + max(a, 0)``: the
    range check, ``effective = (a >= 0) & remaining``, the precedence
    check (unless ``independent``), and the machine weights.  Each job's
    step mass is summed in ``scratch``, a zeroed ``(>= rows * n,)``
    float64 buffer the caller owns (one per batch, so concurrent trial
    shards share nothing), by one ``np.add.at`` over the cells in row-major
    order: machine-ascending within each job, the order of :func:`accrue`'s
    ``np.bincount`` and of the scalar engine, so the float sums are
    bit-equal.  The touched cells are zeroed again before returning.  A
    cell's sum, its new mass and its completion test are functions of its
    flat index alone, so a job that several machines ran reads and writes
    the same values at each of its cells.

    ``u`` and ``mode`` are reserved slots, kept so that arguments 0-15
    keep their positions (``perfbench``'s tracer reads ``active`` at 12):
    ``mode`` must be 0, and ``u`` is ignored.  ``remaining``, ``eligible``,
    ``mass_accrued``, ``completion_times`` and ``theta`` must be
    C-contiguous (they are read and written through ``.ravel()`` views).
    Returns ``(status, trial, machine)`` with the :func:`accrue` codes; on
    a violation no state array is touched.
    """
    if mode != 0:
        raise ValueError(f"drive_step supports only mode 0 (thresholds), got {mode!r}")
    rows, m = a.shape
    n = remaining.shape[1]
    if (a >= n).any() or (a < -1).any():
        b, i = np.argwhere((a >= n) | (a < -1))[0]
        return BAD_RANGE, int(b), int(i)
    job = np.maximum(a, 0)  # IDLE -> job 0 with zero weight below
    flat = (np.arange(rows, dtype=np.int64) * n)[:, None] + job
    # As in the scalar engine: assignments to completed jobs idle
    # silently, assignments to remaining-but-ineligible jobs are
    # precedence violations.
    effective = (a >= 0) & remaining.ravel()[flat]
    if not independent:
        bad = effective & ~eligible.ravel()[flat]
        if bad.any():
            b, i = np.argwhere(bad)[0]
            return BAD_PRECEDENCE, int(b), int(i)
    machine_base = (np.arange(m, dtype=np.int64) * n)[None, :]
    weights = ell.ravel()[machine_base + job] * effective
    # Unbuffered, in index order: never a pairwise or reordered sum.
    np.add.at(scratch, flat.ravel(), weights.ravel())
    step = scratch[flat]
    scratch[flat] = 0.0
    mass = mass_accrued.ravel()
    new_mass = mass[flat] + step
    mass[flat] = new_mass
    busy += effective.sum(axis=1)
    done = (step > 0.0) & (new_mass >= theta.ravel()[flat])
    if not done.any():
        return OK, -1, -1
    cells = flat[done]
    if independent:
        completion_times.ravel()[cells] = t_next
        remaining.ravel()[cells] = False
        eligible.ravel()[cells] = False
        finished = cells // n  # rows that finished a job (repeats harmless)
        active[finished] = remaining[finished].any(axis=1)
    else:
        # The dense mask counts a job two machines finished once, so
        # commit takes one in-degree off each successor.
        done_now = np.zeros((rows, n), dtype=bool)
        done_now.ravel()[cells] = True
        commit(
            done_now, t_next, completion_times, remaining, eligible, indeg,
            succ_indptr, succ_indices, active, independent,
        )
    return OK, -1, -1


def _successors_flat(indptr, indices, jobs):
    """CSR successor gather — `PrecedenceGraph.successors_flat` on raw arrays."""
    counts = indptr[jobs + 1] - indptr[jobs]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    origins = np.repeat(np.arange(jobs.size, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return origins, indices[indptr[jobs][origins] + within]


def chain_finish(trials, pos, tau, dr, started, remaining,
                 kind, ilen, need, ijob, nit):
    """Advance chain cursors of trials whose superstep expansion drained.

    The matrix transition of ``ChainCursorBatch._finish_superstep``:
    blocks count ``tau`` up (retrying while their job remains), pauses
    count ``dr`` (delay remaining) down, and drained items advance
    ``pos`` and enter the next item.  ``pos`` / ``tau`` / ``dr`` are
    gathered ``(F, C)`` copies updated in place (the caller scatters them
    back); ``remaining`` is the engine's full ``(B, n)`` matrix indexed
    through ``trials``.  Returns ``(into_pause, pause_jobs)`` for
    deferred segment registration.
    """
    C = pos.shape[1]
    c_idx = np.arange(C, dtype=np.int64)
    live = started & (pos < nit)
    cp = np.minimum(pos, nit - 1)
    kd = kind[c_idx, cp]
    rem = remaining[trials[:, None], ijob[c_idx, cp]]
    isblk = live & (kd == KIND_BLOCK)
    ispse = live & (kd == KIND_PAUSE)
    done_blk = isblk & (tau + 1 >= need[c_idx, cp])
    np.copyto(tau, np.where(isblk & ~done_blk, tau + 1, tau))
    np.copyto(tau, np.where(done_blk & rem, 0, tau))  # retry the block
    np.copyto(dr, np.where(ispse & (dr > 0), dr - 1, dr))
    adv = (done_blk & ~rem) | (ispse & (dr == 0) & ~rem)
    np.copyto(pos, np.where(adv, pos + 1, pos))
    into_pause, pause_jobs = _enter_items(adv, pos, tau, dr, kind, ilen, ijob, nit)
    return into_pause, pause_jobs


def chain_build(trials, pos, tau, dr, std, delays, s, remaining,
                kind, ilen, need, ijob, nit, tmult):
    """Start due chains, recover expired pauses, and encode signatures.

    The matrix preamble of ``ChainCursorBatch._build_superstep``: chains
    whose delay has elapsed start (entering their first item), pauses
    that expired while their job was still incomplete — resolved since by
    a segment run — advance past, and each live block encodes as
    ``pos * tmult + tau`` (dead/paused chains encode -1).  ``pos`` /
    ``tau`` / ``dr`` / ``std`` are gathered ``(F, C)`` copies updated in
    place.  Returns the two deferred-pause registrations (one per entry
    wave) and the signature-encoding matrix.
    """
    C = pos.shape[1]
    c_idx = np.arange(C, dtype=np.int64)
    start_now = ~std & (delays <= s[:, None])
    std |= start_now
    pause1, pause1_jobs = _enter_items(
        start_now, pos, tau, dr, kind, ilen, ijob, nit
    )
    live = std & (pos < nit)
    cp = np.minimum(pos, nit - 1)
    kd = kind[c_idx, cp]
    rem = remaining[trials[:, None], ijob[c_idx, cp]]
    recovered = live & (kd == KIND_PAUSE) & (dr == 0) & ~rem
    np.copyto(pos, np.where(recovered, pos + 1, pos))
    pause2, pause2_jobs = _enter_items(
        recovered, pos, tau, dr, kind, ilen, ijob, nit
    )
    live = std & (pos < nit)
    cp = np.minimum(pos, nit - 1)
    isblk = live & (kind[c_idx, cp] == KIND_BLOCK)
    enc = np.where(isblk, cp * tmult + tau, -1)
    return pause1, pause1_jobs, pause2, pause2_jobs, enc


def expand_signature(enc, tmult, ijob, prelude_len,
                     pre_indptr, pre_machine, pre_count,
                     step_indptr, step_machine, step_count,
                     n_machines, idle):
    """Flatten one distinct superstep signature into shared assignment rows.

    ``enc`` is one trial's ``(n_chains,)`` signature row: ``pos * tmult +
    tau`` per live block, -1 otherwise.  The chain-program tables are
    flat CSR spans of ``(machine, count)`` pairs per ``(c, p)`` item slot,
    flattened as ``c * P + p``.  Entering blocks (``tau == 0``)
    contribute their prelude solo rows first, in chain order — the scalar
    policy's solo-queue emission order — followed by the congestion rows
    (machine ``i``'s ``r``-th queued job at row ``r``, ``idle``
    elsewhere).  Returns ``(rows, n_prelude, congestion)`` with ``rows``
    an ``(n_prelude + congestion, n_machines)`` int64 matrix.  Memoized
    by the caller, so this runs once per distinct signature.
    """
    C = enc.shape[0]
    P = ijob.shape[1]
    per_machine: list[list[int]] = [[] for _ in range(n_machines)]
    prelude: list[np.ndarray] = []
    for c in range(C):
        e = int(enc[c])
        if e < 0:
            continue
        p, tu = divmod(e, int(tmult))
        cp = c * P + p
        job = int(ijob[c, p])
        if tu == 0 and prelude_len[c, p] > 0:
            for r in range(int(prelude_len[c, p])):
                row = np.full(n_machines, idle, dtype=np.int64)
                for k in range(int(pre_indptr[cp]), int(pre_indptr[cp + 1])):
                    if pre_count[k] > r:
                        row[int(pre_machine[k])] = job
                prelude.append(row)
        for k in range(int(step_indptr[cp]), int(step_indptr[cp + 1])):
            if step_count[k] > tu:
                per_machine[int(step_machine[k])].append(job)
    n_prelude = len(prelude)
    congestion = max((len(lst) for lst in per_machine), default=0)
    rows = np.full((n_prelude + congestion, n_machines), idle, dtype=np.int64)
    for r, row in enumerate(prelude):
        rows[r] = row
    for i, lst in enumerate(per_machine):
        for r, job in enumerate(lst):
            rows[n_prelude + r, i] = job
    return rows, n_prelude, congestion


def _enter_items(entered, pos, tau, dr, kind, ilen, ijob, nit):
    """Item-entry bookkeeping for chains that just advanced (or started):
    arm entered pauses' countdowns, zero entered blocks' tallies."""
    C = pos.shape[1]
    c_idx = np.arange(C, dtype=np.int64)
    newlive = entered & (pos < nit)
    cp = np.minimum(pos, nit - 1)
    kd = kind[c_idx, cp]
    into_pause = newlive & (kd == KIND_PAUSE)
    into_block = newlive & (kd == KIND_BLOCK)
    np.copyto(dr, np.where(into_pause, ilen[c_idx, cp], dr))
    np.copyto(tau, np.where(into_block, 0, tau))
    return into_pause, ijob[c_idx, cp]
