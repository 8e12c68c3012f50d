"""Random workload generators.

The paper evaluates nothing empirically, so reproduction experiments need
workload families that exercise each algorithm's regime:

* ``uniform`` failure probabilities — the easy case: every machine is
  moderately useful for every job, one LP round nearly always suffices.
* ``powerlaw`` log masses — heavy-tailed machine quality; a few machines
  are far better than the rest, making multi-round adaptivity pay off.
* ``specialist`` — each job has a small random set of competent machines
  and is nearly hopeless elsewhere; the archetypal *unrelated*-machines
  instance (this is where LP-based assignment beats any oblivious
  uniform strategy).
* ``related`` — machine reliability depends only on the machine
  (``q_ij = q_i``), a classic related-machines sanity check.

Precedence shapes: independent, disjoint chains, random in/out-trees and
forests, and layered DAGs (the MapReduce motivation from the paper's
introduction).  All generators take a seed or Generator and are fully
deterministic given it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError
from repro.instance.instance import SUUInstance
from repro.instance.precedence import PrecedenceGraph
from repro.util.rng import ensure_rng

__all__ = [
    "failure_matrix",
    "independent_instance",
    "chain_instance",
    "prelude_chain_instance",
    "lpwall_instance",
    "tree_instance",
    "forest_instance",
    "layered_instance",
    "random_dag_instance",
    "StochasticInstance",
    "stochastic_instance",
]


# ----------------------------------------------------------------------
# Failure-probability models
# ----------------------------------------------------------------------
def failure_matrix(
    n_machines: int,
    n_jobs: int,
    model: str = "uniform",
    rng=None,
    *,
    q_lo: float = 0.1,
    q_hi: float = 0.9,
    powerlaw_alpha: float = 1.5,
    specialists_per_job: int = 2,
    q_bad: float = 0.999,
) -> np.ndarray:
    """Generate an ``(m, n)`` failure-probability matrix.

    Parameters
    ----------
    model:
        One of ``"uniform"``, ``"powerlaw"``, ``"specialist"``, ``"related"``.
    q_lo, q_hi:
        Range for uniform draws (also the good-machine range for
        ``specialist`` and the per-machine range for ``related``).
    powerlaw_alpha:
        Pareto tail index for the ``powerlaw`` model: log masses are drawn
        ``Pareto(alpha)``-distributed then rescaled, so most machines give
        little mass and a few give a lot.
    specialists_per_job:
        Number of competent machines per job in the ``specialist`` model.
    q_bad:
        Failure probability of non-specialist machines.
    """
    rng = ensure_rng(rng)
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise InvalidInstanceError(f"invalid q range [{q_lo}, {q_hi}]")
    m, n = n_machines, n_jobs
    if model == "uniform":
        q = rng.uniform(q_lo, q_hi, size=(m, n))
    elif model == "powerlaw":
        # Log masses ~ Pareto(alpha), scaled so the median mass is ~0.25
        # (q ~ 0.84): most pairs are weak, the tail is strong.
        raw = rng.pareto(powerlaw_alpha, size=(m, n)) + 1.0
        mass = 0.25 * raw / np.median(raw)
        q = np.power(2.0, -mass)
    elif model == "specialist":
        k = min(specialists_per_job, m)
        q = np.full((m, n), q_bad, dtype=np.float64)
        for j in range(n):
            good = rng.choice(m, size=k, replace=False)
            q[good, j] = rng.uniform(q_lo, q_hi, size=k)
    elif model == "related":
        per_machine = rng.uniform(q_lo, q_hi, size=m)
        q = np.repeat(per_machine[:, None], n, axis=1)
    else:
        raise InvalidInstanceError(f"unknown failure model {model!r}")
    return np.clip(q, 0.0, 1.0)


# ----------------------------------------------------------------------
# Precedence shapes
# ----------------------------------------------------------------------
def independent_instance(
    n_jobs: int, n_machines: int, model: str = "uniform", rng=None, **kw
) -> SUUInstance:
    """Random SUU-I instance (no precedence constraints)."""
    rng = ensure_rng(rng)
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q)


def chain_instance(
    n_jobs: int,
    n_machines: int,
    n_chains: int,
    model: str = "uniform",
    rng=None,
    **kw,
) -> SUUInstance:
    """Random SUU-C instance: jobs split into ``n_chains`` disjoint chains.

    Chain lengths are a random composition of ``n_jobs`` into ``n_chains``
    positive parts; job ids are shuffled so chain membership is not
    correlated with id order.
    """
    rng = ensure_rng(rng)
    if not (1 <= n_chains <= n_jobs):
        raise InvalidInstanceError(
            f"need 1 <= n_chains <= n_jobs, got {n_chains} chains for {n_jobs} jobs"
        )
    # Random composition via stars-and-bars.
    cuts = np.sort(rng.choice(n_jobs - 1, size=n_chains - 1, replace=False)) + 1
    bounds = np.concatenate(([0], cuts, [n_jobs]))
    perm = rng.permutation(n_jobs)
    edges: list[tuple[int, int]] = []
    for c in range(n_chains):
        members = perm[bounds[c] : bounds[c + 1]]
        edges.extend((int(members[k]), int(members[k + 1])) for k in range(len(members) - 1))
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def prelude_chain_instance(
    n_jobs: int = 40,
    n_machines: int = 2,
    chain_length: int = 5,
    q_lo: float = 0.8,
    q_hi: float = 0.97,
    rng=3,
) -> SUUInstance:
    """A chain instance in SUU-C's non-polynomial-``t_LP2`` regime.

    High per-step failure probabilities over few machines push the LP2
    horizon past ``n * m``, so the chain plan rounds block step counts to
    a unit ``Δ > 1`` and re-inserts the lost steps as solo *preludes*
    (Section 4's trick).  Jobs form consecutive-id chains of
    ``chain_length`` so the regime is stable under the defaults — the
    construction shared by the prelude coverage tests and benchmarks,
    which assert ``plan.unit > 1`` rather than trusting it.
    """
    rng = ensure_rng(rng)
    q = rng.uniform(q_lo, q_hi, size=(n_machines, n_jobs))
    edges: list[tuple[int, int]] = []
    k = 0
    while k < n_jobs:
        hi = min(k + chain_length, n_jobs)
        edges.extend((j, j + 1) for j in range(k, hi - 1))
        k = hi
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def lpwall_instance(
    n_jobs: int = 384,
    n_machines: int = 2,
    chain_length: int | None = None,
    q_lo: float = 0.90,
    q_hi: float = 0.98,
    rng=5,
) -> SUUInstance:
    """A long-job-heavy instance whose cost is dominated by LP1 solves.

    Uniformly hard failure probabilities (every ``l_ij = -log2 q_ij`` is
    tiny) make every job *long*: reaching each round's mass target takes
    many steps on any machine, so round schedules are large and the LP1
    behind each one is expensive.  Many jobs over few machines keep the
    survivor sets entering rounds 2+ big — and, across Monte Carlo trials,
    *distinct* (each trial completes a different random sliver of the
    universe), so a scalar sweep pays one full LP1 pipeline per (trial,
    round): the "LP wall".

    ``chain_length=None`` (default) yields independent jobs for the
    ``sem`` family; an integer builds consecutive-id chains (the
    :func:`prelude_chain_instance` shape) so the same wall exercises the
    SUU-C segment path.
    """
    rng = ensure_rng(rng)
    q = rng.uniform(q_lo, q_hi, size=(n_machines, n_jobs))
    edges: list[tuple[int, int]] = []
    if chain_length is not None:
        k = 0
        while k < n_jobs:
            hi = min(k + chain_length, n_jobs)
            edges.extend((j, j + 1) for j in range(k, hi - 1))
            k = hi
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def tree_instance(
    n_jobs: int,
    n_machines: int,
    orientation: str = "out",
    model: str = "uniform",
    rng=None,
    *,
    attach_bias: float = 1.0,
    **kw,
) -> SUUInstance:
    """Random SUU-T instance whose precedence graph is a single tree.

    A random recursive tree: job ``k`` attaches to a uniformly random
    earlier job (``attach_bias`` < 1 biases toward recent jobs, producing
    deeper trees; > 1 biases toward early jobs, producing bushier trees).
    ``orientation="out"`` points edges parent -> child (out-tree);
    ``"in"`` points child -> parent (in-tree).
    """
    rng = ensure_rng(rng)
    if orientation not in ("in", "out"):
        raise InvalidInstanceError(f"orientation must be 'in' or 'out', got {orientation!r}")
    edges: list[tuple[int, int]] = []
    for k in range(1, n_jobs):
        w = np.arange(1, k + 1, dtype=np.float64) ** attach_bias
        parent = int(rng.choice(k, p=w / w.sum()))
        edges.append((parent, k) if orientation == "out" else (k, parent))
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def forest_instance(
    n_jobs: int,
    n_machines: int,
    n_trees: int,
    orientation: str = "out",
    model: str = "uniform",
    rng=None,
    **kw,
) -> SUUInstance:
    """Random forest of ``n_trees`` trees (``orientation`` may be ``"mixed"``)."""
    rng = ensure_rng(rng)
    if not (1 <= n_trees <= n_jobs):
        raise InvalidInstanceError(
            f"need 1 <= n_trees <= n_jobs, got {n_trees} trees for {n_jobs} jobs"
        )
    cuts = np.sort(rng.choice(n_jobs - 1, size=n_trees - 1, replace=False)) + 1
    bounds = np.concatenate(([0], cuts, [n_jobs]))
    perm = rng.permutation(n_jobs)
    edges: list[tuple[int, int]] = []
    for t in range(n_trees):
        members = perm[bounds[t] : bounds[t + 1]]
        if orientation == "mixed":
            orient = "out" if rng.random() < 0.5 else "in"
        else:
            orient = orientation
        for k in range(1, len(members)):
            parent = int(members[rng.integers(k)])
            child = int(members[k])
            edges.append((parent, child) if orient == "out" else (child, parent))
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def layered_instance(
    layer_sizes,
    n_machines: int,
    model: str = "uniform",
    rng=None,
    *,
    density: float = 1.0,
    **kw,
) -> SUUInstance:
    """Layered DAG: edges only between consecutive layers.

    With ``density = 1`` consecutive layers are completely bipartite — the
    MapReduce dependency structure from the paper's introduction (map phase,
    then reduce phase).  Lower densities sample each cross edge
    independently but guarantee every non-first-layer job keeps at least one
    predecessor, so the layering is tight.
    """
    rng = ensure_rng(rng)
    sizes = [int(s) for s in layer_sizes]
    if any(s <= 0 for s in sizes) or not sizes:
        raise InvalidInstanceError(f"layer sizes must be positive, got {sizes}")
    n_jobs = sum(sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    edges: list[tuple[int, int]] = []
    for layer in range(len(sizes) - 1):
        ups = range(starts[layer], starts[layer + 1])
        downs = range(starts[layer + 1], starts[layer + 2])
        for v in downs:
            picked = [u for u in ups if density >= 1.0 or rng.random() < density]
            if not picked:
                picked = [int(rng.choice(list(ups)))]
            edges.extend((u, v) for u in picked)
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


def random_dag_instance(
    n_jobs: int,
    n_machines: int,
    edge_prob: float = 0.1,
    model: str = "uniform",
    rng=None,
    **kw,
) -> SUUInstance:
    """General random DAG: each forward pair ``(u, v)`` is an edge w.p. ``edge_prob``."""
    rng = ensure_rng(rng)
    mask = rng.random((n_jobs, n_jobs)) < edge_prob
    edges = [(u, v) for u in range(n_jobs) for v in range(u + 1, n_jobs) if mask[u, v]]
    q = failure_matrix(n_machines, n_jobs, model, rng, **kw)
    return SUUInstance(q, PrecedenceGraph(n_jobs, edges))


# ----------------------------------------------------------------------
# Stochastic scheduling (Appendix C)
# ----------------------------------------------------------------------
class StochasticInstance:
    """Instance of ``R | pmtn, p_j ~ exp(lambda_j) | E[Cmax]``.

    Attributes
    ----------
    rates:
        ``lambda_j`` of each job's exponential length distribution (shape
        ``(n,)``); the mean length is ``1 / lambda_j``.
    speeds:
        ``v_ij`` processing speeds (shape ``(m, n)``): machine ``i`` applies
        ``v_ij`` units of work per unit time to job ``j``.
    """

    def __init__(self, rates, speeds):
        rates = np.ascontiguousarray(np.asarray(rates, dtype=np.float64))
        speeds = np.ascontiguousarray(np.asarray(speeds, dtype=np.float64))
        if rates.ndim != 1:
            raise InvalidInstanceError("rates must be 1-D")
        if speeds.ndim != 2 or speeds.shape[1] != rates.shape[0]:
            raise InvalidInstanceError(
                f"speeds shape {speeds.shape} incompatible with {rates.shape[0]} jobs"
            )
        if (rates <= 0).any() or not np.isfinite(rates).all():
            raise InvalidInstanceError("rates must be positive and finite")
        if (speeds < 0).any() or not np.isfinite(speeds).all():
            raise InvalidInstanceError("speeds must be nonnegative and finite")
        if (speeds.max(axis=0) <= 0).any():
            raise InvalidInstanceError("every job needs a machine with positive speed")
        rates.setflags(write=False)
        speeds.setflags(write=False)
        self.rates = rates
        self.speeds = speeds

    @property
    def n_jobs(self) -> int:
        """Number of jobs."""
        return self.rates.shape[0]

    @property
    def n_machines(self) -> int:
        """Number of machines."""
        return self.speeds.shape[0]

    def mean_lengths(self) -> np.ndarray:
        """Expected job lengths ``1 / lambda_j``."""
        return 1.0 / self.rates

    def sample_lengths(self, rng) -> np.ndarray:
        """Draw realized job lengths ``p_j ~ exp(lambda_j)``."""
        rng = ensure_rng(rng)
        return rng.exponential(1.0 / self.rates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StochasticInstance(n_jobs={self.n_jobs}, n_machines={self.n_machines})"


def stochastic_instance(
    n_jobs: int,
    n_machines: int,
    rng=None,
    *,
    rate_lo: float = 0.5,
    rate_hi: float = 2.0,
    speed_model: str = "uniform",
    speed_lo: float = 0.2,
    speed_hi: float = 2.0,
) -> StochasticInstance:
    """Random stochastic-scheduling instance with unrelated speeds.

    ``speed_model="specialist"`` gives each job one fast machine and slow
    ones elsewhere, mirroring the SUU specialist model.
    """
    rng = ensure_rng(rng)
    rates = rng.uniform(rate_lo, rate_hi, size=n_jobs)
    if speed_model == "uniform":
        speeds = rng.uniform(speed_lo, speed_hi, size=(n_machines, n_jobs))
    elif speed_model == "specialist":
        speeds = rng.uniform(speed_lo / 10.0, speed_lo / 2.0, size=(n_machines, n_jobs))
        for j in range(n_jobs):
            speeds[rng.integers(n_machines), j] = rng.uniform(speed_hi / 2.0, speed_hi)
    else:
        raise InvalidInstanceError(f"unknown speed model {speed_model!r}")
    return StochasticInstance(rates, speeds)
