"""Dinic's maximum-flow algorithm on integer capacities.

The Lemma 2 / Lemma 6 roundings need an *integral* maximum flow
(Ford–Fulkerson integrality is what turns fractional LP assignments into
integral schedules), so we implement Dinic's algorithm from scratch:
BFS level graph + blocking-flow DFS, both iterative.  Runtime is
``O(V^2 E)`` generally and ``O(E sqrt(V))`` on the unit-ish bipartite
networks the roundings build — far below the LP solve time in practice.
"""

from __future__ import annotations

from collections import deque

__all__ = ["MaxFlowNetwork", "INF_CAPACITY"]

#: Sentinel "infinite" capacity.  Large enough to never bind (total demand
#: in our networks is bounded by ``6 * m * n * max-assignment``), small
#: enough to never overflow int64 arithmetic.
INF_CAPACITY: int = 1 << 60


class MaxFlowNetwork:
    """A directed flow network with integer capacities.

    Edges are stored in a flat adjacency structure: ``add_edge`` returns an
    edge id whose flow can be queried after :meth:`max_flow` with
    :meth:`flow_on`.  Residual (reverse) edges are created automatically.

    Example
    -------
    >>> net = MaxFlowNetwork(4)
    >>> e0 = net.add_edge(0, 1, 3)
    >>> e1 = net.add_edge(1, 2, 2)
    >>> e2 = net.add_edge(2, 3, 3)
    >>> net.max_flow(0, 3)
    2
    >>> net.flow_on(e1)
    2
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ValueError(f"a flow network needs >= 2 nodes, got {n_nodes}")
        self.n_nodes = n_nodes
        # Parallel arrays: edge k goes to _to[k] with remaining capacity
        # _cap[k]; k ^ 1 is its residual twin.
        self._to: list[int] = []
        self._cap: list[int] = []
        self._initial_cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._solved = False

    def add_node(self) -> int:
        """Append a fresh node and return its id."""
        self._adj.append([])
        self.n_nodes += 1
        return self.n_nodes - 1

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add edge ``u -> v`` with integer ``capacity``; returns an edge id."""
        n = self.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError("self-loop edges are not allowed")
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if self._solved:
            raise RuntimeError("cannot add edges after max_flow() has run")
        to, cap, initial, adj = self._to, self._cap, self._initial_cap, self._adj
        eid = len(to)
        to.append(v)
        cap.append(capacity)
        initial.append(capacity)
        adj[u].append(eid)
        to.append(u)
        cap.append(0)
        initial.append(0)
        adj[v].append(eid + 1)
        return eid

    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        to, cap, adj = self._to, self._cap, self._adj
        level = [-1] * self.n_nodes
        level[source] = 0
        # A list read while it grows is a FIFO queue.
        queue = [source]
        for v in queue:
            deeper = level[v] + 1
            for eid in adj[v]:
                if cap[eid] > 0:
                    w = to[eid]
                    if level[w] < 0:
                        level[w] = deeper
                        queue.append(w)
        return level if level[sink] >= 0 else None

    def _blocking_flow(self, source: int, sink: int, level: list[int]) -> int:
        """Iterative DFS sending blocking flow along the level graph."""
        to, cap, adj = self._to, self._cap, self._adj
        total = 0
        it = [0] * self.n_nodes  # per-node pointer into adjacency (current-arc)
        # path holds edge ids from source to the current node.
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                pushed = min([cap[eid] for eid in path])
                for eid in path:
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                total += pushed
                # Retreat to just before the first saturated edge on the path.
                for k, eid in enumerate(path):
                    if cap[eid] == 0:
                        del path[k:]
                        break
                v = to[path[-1]] if path else source
                continue
            # Advance along the first admissible arc from the current one.
            edges = adj[v]
            deeper = level[v] + 1
            k = it[v]
            while k < len(edges):
                eid = edges[k]
                if cap[eid] > 0 and level[to[eid]] == deeper:
                    break
                k += 1
            it[v] = k
            if k < len(edges):
                path.append(eid)
                v = to[eid]
                continue
            if v == source:
                return total
            # Dead end: prune this vertex from the level graph and retreat.
            level[v] = -1
            eid = path.pop()
            v = to[eid ^ 1]
            it[v] += 1

    def max_flow(self, source: int, sink: int) -> int:
        """Compute the maximum flow value from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                break
            total += self._blocking_flow(source, sink, level)
        self._solved = True
        return total

    # ------------------------------------------------------------------
    def flow_on(self, edge_id: int) -> int:
        """Flow routed through the edge returned by :meth:`add_edge`."""
        if not (0 <= edge_id < len(self._to)) or edge_id % 2 != 0:
            raise ValueError(f"invalid edge id {edge_id}")
        return self._initial_cap[edge_id] - self._cap[edge_id]

    def min_cut_side(self, source: int) -> list[bool]:
        """Source side of a minimum cut (reachable in the residual graph).

        Only meaningful after :meth:`max_flow`; used by tests to check the
        max-flow/min-cut certificate.
        """
        seen = [False] * self.n_nodes
        seen[source] = True
        dq = deque([source])
        while dq:
            v = dq.popleft()
            for eid in self._adj[v]:
                w = self._to[eid]
                if self._cap[eid] > 0 and not seen[w]:
                    seen[w] = True
                    dq.append(w)
        return seen
