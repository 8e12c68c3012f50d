"""Lemma 2 rounding and schedule layout pinned to their earlier implementations.

:func:`repro.core.rounding.round_assignment` reads the relaxation once
with ``tolist()`` and builds its flow network from Python lists, and
:meth:`FiniteObliviousSchedule.from_assignment` lays the steps out with
``np.repeat``.  The reference implementations below are the code they
replaced, kept as it was: the grouping over numpy scalars, the network
built node by node, the per-edge flow read, the Dinic max flow with its
augmenting order, and the machine-by-job layout loop.

Over generated relaxations — independent and chain instances on the
specialist and uniform models, random survivor subsets, targets from 1/8
to 16, scales 6, 3 and 1, and Lemma 6's per-job caps on chains and on
forest blocks — the new code must return the same integral assignment
and schedule table, or raise a ``RoundingError`` with the same text.
"""

import math
from collections import deque

import numpy as np
import pytest

from repro.core.lp1 import MASS_EPS, solve_lp1
from repro.core.lp2 import solve_lp2
from repro.core.rounding import round_assignment
from repro.errors import RoundingError
from repro.flow.dinic import INF_CAPACITY
from repro.instance import (
    chain_instance,
    decompose_forest,
    extract_chains,
    forest_instance,
    independent_instance,
)
from repro.schedule.base import IDLE, IntegralAssignment
from repro.schedule.oblivious import FiniteObliviousSchedule

SCALES = (6, 3, 1)
MODELS = ("specialist", "uniform")


# ---------------------------------------------------------------------------
# Reference implementations.


class ReferenceNetwork:
    """Dinic's max flow as ``repro.flow.dinic.MaxFlowNetwork`` ran it."""

    def __init__(self, n_nodes):
        self.n_nodes = n_nodes
        self._to, self._cap, self._initial_cap = [], [], []
        self._adj = [[] for _ in range(n_nodes)]

    def add_node(self):
        self._adj.append([])
        self.n_nodes += 1
        return self.n_nodes - 1

    def add_edge(self, u, v, capacity):
        eid = len(self._to)
        self._to.append(v)
        self._cap.append(capacity)
        self._initial_cap.append(capacity)
        self._adj[u].append(eid)
        self._to.append(u)
        self._cap.append(0)
        self._initial_cap.append(0)
        self._adj[v].append(eid + 1)
        return eid

    def _bfs_levels(self, source, sink):
        level = [-1] * self.n_nodes
        level[source] = 0
        dq = deque([source])
        while dq:
            v = dq.popleft()
            for eid in self._adj[v]:
                w = self._to[eid]
                if self._cap[eid] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    dq.append(w)
        return level if level[sink] >= 0 else None

    def _blocking_flow(self, source, sink, level):
        total = 0
        it = [0] * self.n_nodes
        path = []
        v = source
        while True:
            if v == sink:
                pushed = min(self._cap[eid] for eid in path)
                for eid in path:
                    self._cap[eid] -= pushed
                    self._cap[eid ^ 1] += pushed
                total += pushed
                for k, eid in enumerate(path):
                    if self._cap[eid] == 0:
                        del path[k:]
                        break
                v = self._to[path[-1]] if path else source
                continue
            advanced = False
            while it[v] < len(self._adj[v]):
                eid = self._adj[v][it[v]]
                w = self._to[eid]
                if self._cap[eid] > 0 and level[w] == level[v] + 1:
                    path.append(eid)
                    v = w
                    advanced = True
                    break
                it[v] += 1
            if advanced:
                continue
            if v == source:
                return total
            level[v] = -1
            eid = path.pop()
            v = self._to[eid ^ 1]
            it[v] += 1

    def max_flow(self, source, sink):
        total = 0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                return total
            total += self._blocking_flow(source, sink, level)

    def flow_on(self, edge_id):
        return self._initial_cap[edge_id] - self._cap[edge_id]


def reference_round_assignment(relaxation, scale=6, per_job_caps=None):
    """The Lemma 2 / Lemma 6 rounding over numpy scalars, as it was."""
    x_star = relaxation.x
    ell = relaxation.ell_capped
    m, n = x_star.shape
    L = relaxation.target
    jobs = relaxation.jobs
    if not jobs:
        return IntegralAssignment(x=np.zeros((m, n), dtype=np.int64), jobs=(), target=L)

    group_cap: dict[tuple[int, int], int] = {}
    group_machines: dict[tuple[int, int], list[int]] = {}
    for j in jobs:
        mass_col = ell[:, j]
        usable = np.nonzero(mass_col > MASS_EPS)[0]
        d_total: dict[int, float] = {}
        for i in usable:
            k = int(math.floor(math.log2(mass_col[i])))
            group_machines.setdefault((j, k), []).append(int(i))
            if x_star[i, j] > 0.0:
                d_total[k] = d_total.get(k, 0.0) + float(x_star[i, j])
        for k, d in d_total.items():
            cap = int(math.floor(scale * d))
            if cap > 0:
                group_cap[(j, k)] = cap

    t_eff = max(relaxation.t_star, float(x_star.sum(axis=1).max()))
    machine_cap = max(int(math.ceil(scale * t_eff)), 1)

    net = ReferenceNetwork(2)
    source, sink = 0, 1
    group_ids = sorted(group_cap)
    group_node = {gk: net.add_node() for gk in group_ids}
    machine_node = [net.add_node() for _ in range(m)]
    for i in range(m):
        net.add_edge(machine_node[i], sink, machine_cap)
    demand = 0
    arc_edges = []
    for gk in group_ids:
        j, k = gk
        cap = group_cap[gk]
        demand += cap
        net.add_edge(source, group_node[gk], cap)
        arc_cap = INF_CAPACITY
        if per_job_caps is not None:
            arc_cap = int(per_job_caps[j])
        for i in group_machines[gk]:
            eid = net.add_edge(group_node[gk], machine_node[i], arc_cap)
            arc_edges.append((eid, i, j))

    flow = net.max_flow(source, sink)
    if flow != demand:
        raise RoundingError(
            f"integral flow {flow} fell short of demand {demand}; the "
            f"scaled fractional solution should saturate the source "
            f"(scale={scale}, t*={relaxation.t_star:.6g})"
        )

    x_hat = np.zeros((m, n), dtype=np.int64)
    for eid, i, j in arc_edges:
        x_hat[i, j] += net.flow_on(eid)

    result = IntegralAssignment(x=x_hat, jobs=jobs, target=L)
    mass = result.mass_per_job(ell)
    short = [j for j in jobs if mass[j] < L * (1.0 - 1e-6)]
    if short:
        raise RoundingError(
            f"rounded assignment misses target L={L} on jobs {short[:5]} "
            f"(scale={scale}; scale >= 6 is required by Lemma 2)"
        )
    if result.load > machine_cap:
        raise RoundingError(
            f"rounded load {result.load} exceeds machine capacity {machine_cap}"
        )
    return result


def reference_table(assignment):
    """The machine-by-job layout loop of ``from_assignment``, as it was."""
    x = assignment.x
    m, n = x.shape
    length = int(x.sum(axis=1).max()) if x.size else 0
    table = np.full((length, m), IDLE, dtype=np.int64)
    for i in range(m):
        t = 0
        for j in range(n):
            steps = int(x[i, j])
            if steps:
                table[t : t + steps, i] = j
                t += steps
    return table


# ---------------------------------------------------------------------------
# Generated relaxations.


def _lp1_relaxations():
    rng = np.random.default_rng(2208)
    out = []
    for shape in ("independent", "chains"):
        for model in MODELS:
            for seed in range(12):
                n = int(rng.integers(3, 15))
                m = int(rng.integers(2, 8))
                if shape == "independent":
                    inst = independent_instance(n, m, model, rng=seed)
                else:
                    inst = chain_instance(n, m, int(rng.integers(1, n + 1)), model, rng=seed)
                for _ in range(8):
                    jobs = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    if rng.random() < 0.5:
                        # Capped entries l' = L then sit on a group edge 2^k.
                        target = float(2.0 ** int(rng.integers(-3, 5)))
                    else:
                        target = float(2.0 ** rng.uniform(-3.0, 4.0))
                    out.append(solve_lp1(inst, jobs=np.sort(jobs), target=target))
    return out


def _lp2_cases():
    out = []
    for model in MODELS:
        for seed in range(6):
            inst = chain_instance(12, 4, 3, model, rng=seed)
            out.append(solve_lp2(inst, extract_chains(inst.graph)))
            inst = forest_instance(14, 3, 2, model=model, rng=seed)
            out.extend(solve_lp2(inst, block) for block in decompose_forest(inst.graph))
    return out


@pytest.fixture(scope="module")
def lp1_relaxations():
    return _lp1_relaxations()


@pytest.fixture(scope="module")
def lp2_relaxations():
    return _lp2_cases()


def _outcome(rounding, *args, **kwargs):
    try:
        result = rounding(*args, **kwargs)
    except RoundingError as exc:
        return ("error", str(exc))
    return ("ok", result.x.dtype.str, result.x.tobytes(), result.jobs, result.target)


def _caps(relaxation, scale):
    """``round_lp2``'s per-job caps ``ceil(scale * d*_j)``."""
    caps = np.zeros(relaxation.d.shape[0], dtype=np.int64)
    for chain in relaxation.chains:
        for j in chain:
            caps[j] = int(math.ceil(scale * relaxation.d[j]))
    return caps


# ---------------------------------------------------------------------------
# Tests.


class TestRoundingMatchesReference:
    def test_lp1_roundings(self, lp1_relaxations):
        kinds = {"ok": 0, "error": 0}
        for relaxation in lp1_relaxations:
            for scale in SCALES:
                got = _outcome(round_assignment, relaxation, scale=scale)
                assert got == _outcome(reference_round_assignment, relaxation, scale)
                kinds[got[0]] += 1
        assert sum(kinds.values()) >= 1000
        assert kinds["ok"] > 500 and kinds["error"] > 50

    def test_lp2_roundings_with_per_job_caps(self, lp2_relaxations):
        kinds = {"ok": 0, "error": 0}
        for relaxation in lp2_relaxations:
            lp1_view = relaxation.as_lp1()
            for scale in SCALES:
                caps = _caps(relaxation, scale)
                got = _outcome(round_assignment, lp1_view, scale=scale, per_job_caps=caps)
                assert got == _outcome(reference_round_assignment, lp1_view, scale, caps)
                kinds[got[0]] += 1
        assert kinds["ok"] > 20

    def test_both_error_texts_match(self, lp1_relaxations, lp2_relaxations):
        # A valid relaxation's scaled flow always saturates the source, so
        # the shortfall text needs arc caps below the Lemma 6 ones.
        texts = set()
        cases = [(r, s, None) for r in lp1_relaxations[::4] for s in (3, 1)]
        cases += [(r.as_lp1(), 6, np.ones(r.d.shape, np.int64)) for r in lp2_relaxations]
        for relaxation, scale, caps in cases:
            got = _outcome(round_assignment, relaxation, scale=scale, per_job_caps=caps)
            assert got == _outcome(reference_round_assignment, relaxation, scale, caps)
            if got[0] == "error":
                texts.add(got[1].split()[1])
        assert texts == {"flow", "assignment"}


class TestLayoutMatchesReference:
    def test_rounded_assignments(self, lp1_relaxations):
        for relaxation in lp1_relaxations:
            assignment = round_assignment(relaxation)
            table = FiniteObliviousSchedule.from_assignment(assignment).table
            want = reference_table(assignment)
            assert table.dtype == want.dtype
            assert table.shape == want.shape
            assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_random_assignments(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            x = rng.integers(0, 4, size=(m, n)) * (rng.random((m, n)) < 0.4)
            assignment = IntegralAssignment(x=x.astype(dtype), jobs=tuple(range(n)), target=1.0)
            table = FiniteObliviousSchedule.from_assignment(assignment).table
            want = reference_table(assignment)
            assert table.shape == want.shape
            assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4), (2, 5)])
    def test_empty_and_zero_assignments(self, shape):
        assignment = IntegralAssignment(
            x=np.zeros(shape, dtype=np.int64), jobs=(), target=1.0
        )
        table = FiniteObliviousSchedule.from_assignment(assignment).table
        assert table.shape == reference_table(assignment).shape == (0, shape[0])
