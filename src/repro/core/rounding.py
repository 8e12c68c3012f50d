"""Lemma 2 / Lemma 6 rounding: fractional LP solutions to integral assignments.

The rounding proceeds exactly as in the paper:

1. **Group** machines by log-mass magnitude: for each job ``j``, machines
   with ``l'_ij`` in ``[2^k, 2^(k+1))`` form group ``k``, with total
   fractional assignment ``D_jk = sum x*_ij``.  Grouping costs at most a
   factor 2 of mass.
2. **Scale and floor** the group assignments to ``floor(scale * D_jk)``
   (``scale = 6`` in the paper).  The geometric-series argument in Lemma 2
   shows the floored groups still carry mass at least ``L`` per job.
3. **Integral flow**: build the network ``s -> u_jk -> v_i -> w`` with
   source capacities ``floor(scale * D_jk)``, machine capacities
   ``ceil(scale * t*)``, and job-to-machine arcs restricted to the group's
   machines (capacity ``ceil(scale * d*_j)`` in the Lemma 6 variant,
   infinite otherwise).  Scaling the fractional solution by ``scale`` is a
   feasible fractional flow saturating the source, so by Ford–Fulkerson
   integrality Dinic returns an integral flow saturating it; the arc flows
   are the integral assignment ``{x̂_ij}``.

The result is an :class:`~repro.schedule.base.IntegralAssignment` with load
at most ``ceil(scale * t*)``, every job receiving capped mass at least
``L``, and (in the Lemma 6 variant) per-job lengths ``d̂_j <= ceil(scale *
d*_j)``.

The networks are small (a few groups per job, one node per machine) and
rounded once per LP1 solve, so the implementation stays in plain Python
lists: the covered columns of ``l'`` and ``x*`` are read once with
``tolist()``, the network is built in a fixed order (machine → sink edges,
then each group's source edge and its machine arcs, groups by ``(j, k)``
and machines ascending) and the arc flows are read back in one pass.  The
order fixes Dinic's augmenting paths and so the assignment itself; a
different max-flow routine would return a different (equally valid)
assignment, and so different samples.  ``tests/test_rounding_reference.py``
pins the result to the numpy-scalar implementation this replaced.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.lp1 import LP1Relaxation, MASS_EPS
from repro.errors import RoundingError
from repro.flow.dinic import INF_CAPACITY, MaxFlowNetwork
from repro.schedule.base import IntegralAssignment

__all__ = ["round_assignment", "PAPER_SCALE"]

#: The scaling constant of Lemma 2.  6 is what the paper's geometric-series
#: argument needs; the ablation bench sweeps it.
PAPER_SCALE: int = 6

#: Relative feasibility tolerance when checking the rounded masses.  The
#: Lemma guarantees feasibility for exact LP optima; the tolerance only
#: absorbs solver round-off.
_FEAS_RTOL: float = 1e-6


def round_assignment(
    relaxation: LP1Relaxation,
    scale: int = PAPER_SCALE,
    per_job_caps: np.ndarray | None = None,
    *,
    check: bool = True,
) -> IntegralAssignment:
    """Round a fractional (LP1)/(LP2) solution to an integral assignment.

    Parameters
    ----------
    relaxation:
        The fractional solution (for (LP2), pass its x/t/l' projected into
        an :class:`~repro.core.lp1.LP1Relaxation`; see
        :func:`repro.core.lp2.solve_lp2`).
    scale:
        The scaling constant (paper: 6).  Values below 6 void the Lemma 2
        guarantee; the rounding then raises :class:`RoundingError` whenever
        the produced assignment misses the target (used by the ablation).
    per_job_caps:
        Lemma 6 variant: cap the flow from job ``j`` to any single machine
        at ``per_job_caps[j]`` (``ceil(scale * d*_j)`` in the paper).
    check:
        Verify feasibility of the rounded solution (mass target and load
        bound) and raise :class:`RoundingError` on miss.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    x_star = relaxation.x
    ell = relaxation.ell_capped
    m, n = x_star.shape
    L = relaxation.target
    jobs = relaxation.jobs
    if per_job_caps is not None:
        per_job_caps = np.asarray(per_job_caps)
        if per_job_caps.shape != (n,):
            raise ValueError(
                f"per_job_caps must have shape ({n},), got {per_job_caps.shape}"
            )

    if not jobs:
        return IntegralAssignment(
            x=np.zeros((m, n), dtype=np.int64), jobs=(), target=L
        )

    # --- Steps 1-2: group machines per job, scale and floor. -------------
    # One (job, floor(scale * D_jk), machines of group k) per kept group,
    # in (j, k) order; D_jk sums the positive x*_ij in machine order.
    covered = sorted(jobs)
    ell_cols = ell.take(covered, axis=1).T.tolist()
    x_cols = x_star.take(covered, axis=1).T.tolist()
    groups: list[tuple[int, int, list[int]]] = []
    for j, mass_col, x_col in zip(covered, ell_cols, x_cols):
        members: dict[int, list[int]] = {}
        d_total: dict[int, float] = {}
        for i, v in enumerate(mass_col):
            if v > MASS_EPS:
                k = math.floor(math.log2(v))
                if k in members:
                    members[k].append(i)
                else:
                    members[k] = [i]
                if x_col[i] > 0.0:
                    d_total[k] = d_total.get(k, 0.0) + x_col[i]
        for k in sorted(d_total):
            cap = math.floor(scale * d_total[k])
            if cap > 0:
                groups.append((j, cap, members[k]))

    # Capacity ceil(scale * t*) as in the paper; taking the max with the
    # fractional solution's actual load keeps the scaled flow feasible even
    # when the solver reports t* a hair below the true machine loads.
    t_eff = max(relaxation.t_star, float(x_star.sum(axis=1).max()))
    machine_cap = max(int(math.ceil(scale * t_eff)), 1)

    # --- Step 3: integral flow. ------------------------------------------
    # Nodes: 0 = source, 1 = sink, then one per group, then one per machine.
    # Edges: every machine -> sink first, then per group its source edge
    # followed by its machine arcs, machines ascending.
    source, sink = 0, 1
    machine0 = 2 + len(groups)
    net = MaxFlowNetwork(machine0 + m)
    for i in range(m):
        net.add_edge(machine0 + i, sink, machine_cap)
    caps = None if per_job_caps is None else per_job_caps.tolist()
    demand = 0
    arc_ids: list[int] = []
    arc_cells: list[int] = []  # flat (i, j) cell of each arc's x̂_ij
    for node, (j, cap, machines) in enumerate(groups, start=2):
        demand += cap
        net.add_edge(source, node, cap)
        arc_cap = INF_CAPACITY if caps is None else int(caps[j])
        for i in machines:
            arc_ids.append(net.add_edge(node, machine0 + i, arc_cap))
            arc_cells.append(i * n + j)

    flow = net.max_flow(source, sink)
    if flow != demand:
        raise RoundingError(
            f"integral flow {flow} fell short of demand {demand}; the "
            f"scaled fractional solution should saturate the source "
            f"(scale={scale}, t*={relaxation.t_star:.6g})"
        )

    # A machine sits in one group per job, so each (i, j) has one arc.
    x_hat = np.zeros((m, n), dtype=np.int64)
    x_hat.put(arc_cells, [net.flow_on(eid) for eid in arc_ids])

    result = IntegralAssignment(x=x_hat, jobs=jobs, target=L)

    if check:
        mass = result.mass_per_job(ell)
        short = [j for j in jobs if mass[j] < L * (1.0 - _FEAS_RTOL)]
        if short:
            raise RoundingError(
                f"rounded assignment misses target L={L} on jobs {short[:5]} "
                f"(scale={scale}; scale >= 6 is required by Lemma 2)"
            )
        if result.load > machine_cap:
            raise RoundingError(
                f"rounded load {result.load} exceeds machine capacity "
                f"{machine_cap}"
            )
    return result
