"""Tests for the stepping kernels (``repro.kernels``) and the knobs around them.

Six layers of guarantees:

* **Seam**: the batch engine and the chain cursors reach every kernel
  through the module object :func:`repro.kernels.get_backend` returns,
  so wrappers installed there (perfbench's tracer) see every call.
* **Kernel contract**: each kernel, called directly on hand-built batch
  state, accrues, validates, commits and expands as documented; and a
  plain per-trial loop oracle (below) reproduces the whole-batch numpy
  passes — on random states, and installed at the seam across a policy
  × semantics × discipline grid of full batch runs.
* **Validation**: every step of every batch range-checks the assigned
  job ids and, on instances with precedence edges, checks precedence —
  through :func:`run_policy_batch` and through :func:`simulate` by
  registry name alike, serially and in trial shards, whose errors name
  the batch trial.
* **Threading**: the thread count reaches :func:`simulate` /
  ``evaluate_grid`` reports, the request server (``/healthz``), and the
  CLI; stale ``kernel`` inputs fail loudly; the policies of a grid sweep
  share common random numbers.
* **Trial parallelism** (``REPRO_KERNEL_THREADS``): resolution and
  validation of the thread count, and bit-identity of
  ``kernel_threads > 1`` runs against serial runs across a policy ×
  semantics × discipline grid — trial shards where the batch steps a
  vectorized policy against thresholds, and an ignored knob elsewhere.
"""

import numpy as np
import pytest

from repro import kernels
from repro.api.config import KERNEL_THREADS_ENV_VAR, resolve_kernel_threads
from repro.api.scenario import Scenario, SimConfig
from repro.api.service import evaluate_grid, simulate
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.errors import (
    InvalidScenarioError,
    ScheduleViolationError,
    SimulationHorizonError,
)
from repro.instance import (
    PrecedenceGraph,
    SUUInstance,
    chain_instance,
    independent_instance,
)
from repro.schedule.base import VectorizedPolicy
from repro.sim.batch import run_policy_batch


@pytest.fixture(autouse=True)
def _clean_threads_env(monkeypatch):
    """Default every test to unset REPRO_KERNEL_THREADS; tests that probe
    the env resolution set it explicitly."""
    monkeypatch.delenv(KERNEL_THREADS_ENV_VAR, raising=False)


def make_instance(kind):
    if kind == "independent":
        return independent_instance(12, 4, "uniform", rng=3)
    if kind == "chains":
        return chain_instance(12, 4, 3, "uniform", rng=7)
    raise ValueError(kind)


class TestThreadsResolution:
    def test_default_is_serial(self):
        assert resolve_kernel_threads() == 1
        assert SimConfig().resolved().kernel_threads == 1

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "8")
        assert resolve_kernel_threads(2) == 2

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "3")
        assert resolve_kernel_threads() == 3
        assert SimConfig().resolved().kernel_threads == 3

    @pytest.mark.parametrize("bad", [0, -2, "two", "1.5"])
    def test_bad_argument_fails_loudly(self, bad):
        with pytest.raises(ValueError, match="kernel_threads"):
            resolve_kernel_threads(bad)

    def test_bad_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="kernel_threads"):
            resolve_kernel_threads()

    def test_simconfig_validates_kernel_threads(self):
        assert SimConfig(kernel_threads=4).resolved().kernel_threads == 4
        with pytest.raises(InvalidScenarioError, match="kernel_threads"):
            SimConfig(kernel_threads=0)
        with pytest.raises(InvalidScenarioError, match="kernel_threads"):
            SimConfig(kernel_threads="2")

    def test_simconfig_round_trips_kernel_threads(self):
        clone = SimConfig.from_dict(SimConfig(kernel_threads=2).to_dict())
        assert clone.kernel_threads == 2


#: Policy x shape x semantics grid the oracle and trial-shard identity
#: tests run over.
CASES = [
    (GreedyLRPolicy, "independent", "suu"),
    (GreedyLRPolicy, "independent", "suu_star"),
    (SUUISemPolicy, "independent", "suu"),
    (SUUISemPolicy, "independent", "suu_star"),
    (SUUCPolicy, "chains", "suu"),
    (SUUTPolicy, "chains", "suu_star"),
]


def over_case_grid(test):
    """Parametrize ``test`` over :data:`CASES` x both disciplines."""
    test = pytest.mark.parametrize(
        "factory,shape,semantics",
        CASES,
        ids=[f"{f.__name__}-{sh}-{sem}" for f, sh, sem in CASES],
    )(test)
    return pytest.mark.parametrize("discipline", ["v1", "v2"])(test)


KERNEL_NAMES = ("accrue", "commit", "drive_step", "chain_finish",
                "chain_build", "expand_signature")


def install_counted(monkeypatch, impls):
    """Install ``impls[name]`` for each kernel on the object
    :func:`repro.kernels.get_backend` returns, behind call counters."""
    backend = kernels.get_backend()
    calls = dict.fromkeys(KERNEL_NAMES, 0)
    for name in KERNEL_NAMES:

        def counted(*args, _fn=impls[name], _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(backend, name, counted)
    return calls


# ----------------------------------------------------------------------
# Loop oracle: the kernel contracts as plain per-trial loops, with none
# of the numpy versions' flat gathers, bincounts or masked rewrites.
# Per-job masses accumulate machine-ascending, as np.bincount sums them,
# so float results match the numpy kernels bit for bit.
# ----------------------------------------------------------------------
def loop_accrue(a, ell, remaining, eligible, busy, independent):
    B, m = a.shape
    n = remaining.shape[1]
    for b in range(B):
        for i in range(m):
            if not -1 <= a[b, i] < n:
                return kernels.BAD_RANGE, b, i, np.zeros((B, n))
    for b in range(B):
        for i in range(m):
            j = a[b, i]
            if (not independent and j >= 0 and remaining[b, j]
                    and not eligible[b, j]):
                return kernels.BAD_PRECEDENCE, b, i, np.zeros((B, n))
    step_mass = np.zeros((B, n))
    for b in range(B):
        for i in range(m):
            j = a[b, i]
            if j >= 0 and remaining[b, j]:
                step_mass[b, j] += ell[i, j]
                busy[b] += 1
    return kernels.OK, -1, -1, step_mass


def loop_commit(done_now, t_next, completion_times, remaining, eligible,
                indeg, succ_indptr, succ_indices, active, independent):
    B, n = done_now.shape
    for b in range(B):
        if not done_now[b].any():
            continue
        for j in range(n):
            if done_now[b, j]:
                completion_times[b, j] = t_next
                remaining[b, j] = False
                if not independent:
                    for k in range(succ_indptr[j], succ_indptr[j + 1]):
                        indeg[b, succ_indices[k]] -= 1
        for j in range(n):
            eligible[b, j] = remaining[b, j] and (
                independent or indeg[b, j] == 0
            )
        active[b] = remaining[b].any()


def loop_drive_step(a, ell, theta, u, mode, t_next, remaining, eligible,
                    indeg, mass_accrued, completion_times, busy, active,
                    succ_indptr, succ_indices, independent, scratch):
    # ``u`` and ``scratch`` are unused: the oracle works on dense
    # per-trial masses and leaves the caller's zeroed scratch alone.
    if mode != 0:
        raise ValueError(f"drive_step supports only mode 0, got {mode!r}")
    status, vb, vi, step_mass = loop_accrue(
        a, ell, remaining, eligible, busy, independent
    )
    if status != kernels.OK:
        return status, vb, vi
    B, n = step_mass.shape
    done_now = np.zeros((B, n), dtype=bool)
    for b in range(B):
        for j in range(n):
            s = step_mass[b, j]
            if s > 0.0:
                done_now[b, j] = mass_accrued[b, j] + s >= theta[b, j]
            mass_accrued[b, j] += s
    loop_commit(done_now, t_next, completion_times, remaining, eligible,
                indeg, succ_indptr, succ_indices, active, independent)
    return kernels.OK, -1, -1


def _loop_enter(k, c, p, tau, dr, kind, ilen, nit):
    """Enter item ``p`` of chain ``c``; True when it is a pause."""
    if p >= nit[c]:
        return False
    if kind[c, p] == kernels.KIND_PAUSE:
        dr[k, c] = ilen[c, p]
        return True
    if kind[c, p] == kernels.KIND_BLOCK:
        tau[k, c] = 0
    return False


def loop_chain_finish(trials, pos, tau, dr, started, remaining,
                      kind, ilen, need, ijob, nit):
    F, C = pos.shape
    into_pause = np.zeros((F, C), dtype=bool)
    pause_jobs = np.zeros((F, C), dtype=np.int64)
    for k in range(F):
        for c in range(C):
            p = pos[k, c]
            if not started[k, c] or p >= nit[c]:
                continue
            rem = remaining[trials[k], ijob[c, p]]
            adv = False
            if kind[c, p] == kernels.KIND_BLOCK:
                if tau[k, c] + 1 < need[c, p]:
                    tau[k, c] += 1
                elif rem:
                    tau[k, c] = 0  # retry the block
                else:
                    adv = True
            elif kind[c, p] == kernels.KIND_PAUSE:
                if dr[k, c] > 0:
                    dr[k, c] -= 1
                adv = dr[k, c] == 0 and not rem
            if adv:
                pos[k, c] = p + 1
                if _loop_enter(k, c, p + 1, tau, dr, kind, ilen, nit):
                    into_pause[k, c] = True
                    pause_jobs[k, c] = ijob[c, p + 1]
    return into_pause, pause_jobs


def loop_chain_build(trials, pos, tau, dr, std, delays, s, remaining,
                     kind, ilen, need, ijob, nit, tmult):
    F, C = pos.shape
    pause1 = np.zeros((F, C), dtype=bool)
    pause2 = np.zeros((F, C), dtype=bool)
    pause1_jobs = np.zeros((F, C), dtype=np.int64)
    pause2_jobs = np.zeros((F, C), dtype=np.int64)
    enc = np.full((F, C), -1, dtype=np.int64)
    for k in range(F):
        for c in range(C):
            p = pos[k, c]
            if not std[k, c] and delays[k, c] <= s[k]:
                std[k, c] = True
                if _loop_enter(k, c, p, tau, dr, kind, ilen, nit):
                    pause1[k, c] = True
                    pause1_jobs[k, c] = ijob[c, p]
            if not std[k, c]:
                continue
            if (p < nit[c] and kind[c, p] == kernels.KIND_PAUSE
                    and dr[k, c] == 0 and not remaining[trials[k], ijob[c, p]]):
                p += 1
                pos[k, c] = p
                if _loop_enter(k, c, p, tau, dr, kind, ilen, nit):
                    pause2[k, c] = True
                    pause2_jobs[k, c] = ijob[c, p]
            if p < nit[c] and kind[c, p] == kernels.KIND_BLOCK:
                enc[k, c] = p * tmult + tau[k, c]
    return pause1, pause1_jobs, pause2, pause2_jobs, enc


def loop_expand_signature(enc, tmult, ijob, prelude_len,
                          pre_indptr, pre_machine, pre_count,
                          step_indptr, step_machine, step_count,
                          n_machines, idle):
    P = ijob.shape[1]
    prelude, queues = [], [[] for _ in range(n_machines)]
    for c, e in enumerate(enc):
        if e < 0:
            continue
        p, tu = divmod(int(e), int(tmult))
        cp, job = c * P + p, ijob[c, p]
        if tu == 0:
            block = np.full((prelude_len[c, p], n_machines), idle,
                            dtype=np.int64)
            for k in range(pre_indptr[cp], pre_indptr[cp + 1]):
                block[:pre_count[k], pre_machine[k]] = job
            prelude.extend(block)
        for k in range(step_indptr[cp], step_indptr[cp + 1]):
            if step_count[k] > tu:
                queues[step_machine[k]].append(job)
    congestion = max(map(len, queues))
    rows = np.full((len(prelude) + congestion, n_machines), idle,
                   dtype=np.int64)
    rows[:len(prelude)] = np.reshape(prelude, (-1, n_machines))
    for i, queue in enumerate(queues):
        rows[len(prelude):len(prelude) + len(queue), i] = queue
    return rows, len(prelude), congestion


LOOP_ORACLE = {
    "accrue": loop_accrue,
    "commit": loop_commit,
    "drive_step": loop_drive_step,
    "chain_finish": loop_chain_finish,
    "chain_build": loop_chain_build,
    "expand_signature": loop_expand_signature,
}


class TestKernelSeam:
    """Every kernel is reached through the module object
    :func:`repro.kernels.get_backend` returns — the seam perfbench's
    tracer wraps.  A caller that bound a kernel by name at import or at
    construction would bypass the counters installed here."""

    def test_batches_reach_all_six_kernels(self, monkeypatch):
        assert kernels.get_backend() is kernels
        calls = install_counted(
            monkeypatch, {name: getattr(kernels, name) for name in KERNEL_NAMES}
        )
        chains = run_policy_batch(
            chain_instance(12, 4, 3, "uniform", rng=7), SUUCPolicy, 8,
            rng=21, semantics="suu", discipline="v2",
        )
        steps = int(chains.makespans.max())
        chain_calls = dict(calls)
        # v2 suu: one threshold drive_step per step.  It works on the
        # assigned cells without accrue, and on a DAG calls commit
        # through the module attribute at each step that finishes a job
        # (phased dispatch keeps every row, so one per completion time).
        assert chain_calls["drive_step"] == steps
        assert chain_calls["accrue"] == 0
        assert chain_calls["commit"] == np.unique(chains.completion_times).size
        assert chain_calls["chain_build"] > 0
        assert chain_calls["chain_finish"] > 0
        assert chain_calls["expand_signature"] > 0

        greedy = run_policy_batch(
            independent_instance(12, 4, "uniform", rng=3), GreedyLRPolicy, 8,
            rng=21, semantics="suu", discipline="v1",
        )
        steps = int(greedy.makespans.max())
        # v1 suu: the step splits into accrue / per-trial draws / commit.
        assert calls["drive_step"] == chain_calls["drive_step"]
        assert calls["accrue"] - chain_calls["accrue"] == steps
        assert calls["commit"] - chain_calls["commit"] == steps
        assert all(calls[name] > 0 for name in KERNEL_NAMES)


class TestBitIdentity:
    """The numpy kernels against the loop oracle installed at the seam:
    every full batch run on the grid must come out trial-for-trial
    identical."""

    @over_case_grid
    def test_numpy_kernels_match_loop_oracle(self, factory, shape, semantics,
                                             discipline, monkeypatch):
        inst = make_instance(shape)
        ref = run_policy_batch(
            inst, factory, 8, rng=21, semantics=semantics,
            discipline=discipline,
        )
        calls = install_counted(monkeypatch, LOOP_ORACLE)
        got = run_policy_batch(
            inst, factory, 8, rng=21, semantics=semantics,
            discipline=discipline,
        )
        # Every step went through the oracle, not the numpy kernels.
        steps = int(got.makespans.max())
        assert calls["drive_step"] + calls["accrue"] == steps
        assert np.array_equal(ref.makespans, got.makespans)
        assert np.array_equal(ref.completion_times, got.completion_times)
        assert np.array_equal(ref.busy_machine_steps, got.busy_machine_steps)


def _chain2_state(done=None):
    """Two trials over jobs 0 -> 1 and a free job 2 on two machines:
    ``(graph, ell, state)`` with ``state`` the engine's consistent batch
    arrays, ``done`` marking jobs completed before this step."""
    graph = PrecedenceGraph(3, [(0, 1)])
    ell = np.array([[0.5, 0.25, 1.0], [0.125, 0.5, 0.0]])
    done = np.zeros((2, 3), dtype=bool) if done is None else np.array(done)
    remaining = ~done
    indeg = np.repeat(graph.in_degree_array()[None, :], 2, axis=0)
    indeg[:, 1] -= done[:, 0]
    indptr, indices = graph.successors_csr()
    state = {
        "remaining": remaining,
        "eligible": remaining & (indeg == 0),
        "indeg": indeg,
        "busy": np.zeros(2, dtype=np.int64),
        "mass_accrued": np.zeros((2, 3)),
        "completion_times": np.where(done, 1, 0).astype(np.int64),
        "active": remaining.any(axis=1),
        "succ_indptr": indptr,
        "succ_indices": indices,
        "scratch": np.zeros(2 * 3),
    }
    return graph, ell, state


def _accrue(a, ell, st, independent=False):
    return kernels.accrue(
        np.array(a, dtype=np.int64), ell, st["remaining"], st["eligible"],
        st["busy"], independent,
    )


def _commit(done_now, t_next, st, independent=False):
    kernels.commit(
        np.array(done_now), t_next, st["completion_times"], st["remaining"],
        st["eligible"], st["indeg"], st["succ_indptr"], st["succ_indices"],
        st["active"], independent,
    )


def _drive_step(a, ell, st, theta, mode=0, t_next=1):
    return kernels.drive_step(
        np.array(a, dtype=np.int64), ell, theta, None, mode, t_next,
        st["remaining"], st["eligible"], st["indeg"], st["mass_accrued"],
        st["completion_times"], st["busy"], st["active"],
        st["succ_indptr"], st["succ_indices"], False, st["scratch"],
    )


class TestKernelFunctions:
    """Each kernel called directly on hand-built batch state."""

    def test_one_module_exports_six_kernels(self):
        assert not hasattr(kernels, "__path__")  # a module, not a package
        for name in KERNEL_NAMES:
            assert name in kernels.__all__
            assert callable(getattr(kernels, name))
        assert (kernels.OK, kernels.BAD_RANGE, kernels.BAD_PRECEDENCE) == (0, 1, 2)
        kinds = (kernels.KIND_BLOCK, kernels.KIND_PAUSE, kernels.KIND_END)
        assert len(set(kinds)) == 3

    def test_accrue_sums_machine_masses_per_job(self):
        _, ell, st = _chain2_state()
        status, _, _, mass = _accrue([[0, 0], [2, -1]], ell, st)
        assert status == kernels.OK
        assert np.array_equal(mass, [[0.625, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(st["busy"], [2, 1])  # idle machines stay idle

    def test_accrue_idles_completed_jobs(self):
        _, ell, st = _chain2_state(done=[[True, False, False]] * 2)
        status, _, _, mass = _accrue([[0, 1], [1, 0]], ell, st)
        assert status == kernels.OK
        # Job 0 is done: its machines deliver nothing and are not busy.
        assert np.array_equal(mass, [[0.0, 0.5, 0.0], [0.0, 0.25, 0.0]])
        assert np.array_equal(st["busy"], [1, 1])

    def test_accrue_reports_first_out_of_range_id(self):
        _, ell, st = _chain2_state()
        status, b, i, _ = _accrue([[0, 3], [-2, 0]], ell, st)
        assert (status, b, i) == (kernels.BAD_RANGE, 0, 1)
        assert np.array_equal(st["busy"], [0, 0])  # step abandoned

    def test_accrue_reports_precedence_violation(self):
        _, ell, st = _chain2_state()
        status, b, i, _ = _accrue([[2, -1], [1, 0]], ell, st)
        assert (status, b, i) == (kernels.BAD_PRECEDENCE, 1, 0)
        assert np.array_equal(st["busy"], [0, 0])

    def test_accrue_skips_precedence_check_when_independent(self):
        _, ell, st = _chain2_state()
        status, _, _, mass = _accrue([[2, -1], [1, 0]], ell, st, independent=True)
        assert status == kernels.OK
        assert mass[1, 1] == 0.25 and mass[1, 0] == 0.125

    def test_commit_without_completions_changes_nothing(self):
        _, _, st = _chain2_state(done=[[True, False, False], [False] * 3])
        before = {k: v.copy() for k, v in st.items()}
        _commit(np.zeros((2, 3), dtype=bool), 4, st)
        for key, value in st.items():
            assert np.array_equal(value, before[key]), key

    def test_commit_releases_successors(self):
        _, _, st = _chain2_state()
        _commit([[True, False, False], [False, False, True]], 3, st)
        assert np.array_equal(st["completion_times"], [[3, 0, 0], [0, 0, 3]])
        assert np.array_equal(st["remaining"],
                              [[False, True, True], [True, True, False]])
        assert np.array_equal(st["indeg"], [[0, 0, 0], [0, 1, 0]])
        assert np.array_equal(st["eligible"],
                              [[False, True, True], [True, False, False]])
        assert st["active"].all()

    def test_commit_retires_finished_trials(self):
        _, _, st = _chain2_state(done=[[True, True, False], [False] * 3])
        _commit([[False, False, True], [True, False, False]], 5, st)
        assert np.array_equal(st["active"], [False, True])
        assert np.array_equal(st["eligible"][1], [False, True, True])

    def test_drive_step_threshold_rule(self):
        _, ell, st = _chain2_state()
        st["mass_accrued"][0, 0] = 0.375
        theta = np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 1.5]])
        status = _drive_step([[0, 0], [2, -1]], ell, st, theta, t_next=7)
        assert status == (kernels.OK, -1, -1)
        # 0.375 + 0.625 reaches theta exactly (>=); 1.0 < 1.5 does not.
        assert np.array_equal(st["mass_accrued"],
                              [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(st["completion_times"], [[7, 0, 0], [0, 0, 0]])
        assert np.array_equal(st["eligible"][0], [False, True, True])
        assert np.array_equal(st["busy"], [2, 1])
        assert not st["scratch"].any()  # handed back zeroed

    def test_drive_step_two_machines_release_successor_once(self):
        _, ell, st = _chain2_state()
        # Both machines finish job 0 in trial 0: job 1 loses its one
        # in-degree once, not twice.
        theta = np.array([[0.5, 9.0, 9.0], [9.0, 9.0, 9.0]])
        status = _drive_step([[0, 0], [-1, -1]], ell, st, theta, t_next=3)
        assert status == (kernels.OK, -1, -1)
        assert np.array_equal(st["indeg"], [[0, 0, 0], [0, 1, 0]])
        assert np.array_equal(st["eligible"][0], [False, True, True])
        assert np.array_equal(st["completion_times"][0], [3, 0, 0])

    def test_drive_step_mode_1_raises(self):
        # Thresholds are the only completion rule; the mode slot is
        # reserved, and any other value is refused before the state moves.
        _, ell, st = _chain2_state()
        before = {k: v.copy() for k, v in st.items()}
        with pytest.raises(ValueError, match="mode"):
            _drive_step([[2, -1], [2, -1]], ell, st, np.zeros((2, 3)), mode=1)
        for key, value in st.items():
            assert np.array_equal(value, before[key]), key

    def test_drive_step_violation_leaves_state_untouched(self):
        _, ell, st = _chain2_state()
        before = {k: v.copy() for k, v in st.items()}
        theta = np.full((2, 3), 0.1)
        status = _drive_step([[0, 2], [1, -1]], ell, st, theta)
        assert status == (kernels.BAD_PRECEDENCE, 1, 0)
        for key, value in st.items():
            assert np.array_equal(value, before[key]), key

    #: Two chains on two machines (idle = -1, tmult = 10).  Chain 0's
    #: one block is job 5: prelude rows (machine 0 x2, machine 1 x1),
    #: then machine 0 for 3 steps.  Chain 1's block is job 7: machine 0
    #: for 1 step, machine 1 for 2.
    SIGNATURES = [
        ([0, 0], [[5, 5], [5, -1], [5, 7], [7, -1]], 2, 2),
        ([1, -1], [[5, -1]], 0, 1),
        ([-1, 2], np.empty((0, 2)), 0, 0),
    ]

    @pytest.mark.parametrize("enc,rows,n_prelude,congestion", SIGNATURES,
                             ids=["entering", "mid-block", "drained"])
    def test_expand_signature(self, enc, rows, n_prelude, congestion):
        got = kernels.expand_signature(
            np.array(enc), 10,
            np.array([[5], [7]]),  # ijob
            np.array([[2], [0]]),  # prelude_len
            np.array([0, 2, 2]), np.array([0, 1]), np.array([2, 1]),
            np.array([0, 1, 3]), np.array([0, 0, 1]), np.array([3, 1, 2]),
            2, -1,
        )
        assert got[0].dtype == np.int64
        assert np.array_equal(got[0], np.reshape(rows, (-1, 2)))
        assert got[1:] == (n_prelude, congestion)


def _random_step_state(rng, edge_prob, B=5, n=7, m=3):
    """``drive_step``'s positional arguments for a consistent mid-run
    batch state on a random DAG, last trial finished, and a valid
    assignment: idle, completed or eligible jobs.

    Rows 0 and 1 put all three machines on one eligible job with no mass
    yet, and row 2 two of them.  Each such job's threshold is exactly the
    machine-ascending float sum of its masses (``np.bincount``'s order),
    and a three-machine job's masses are redrawn until adding any other
    pair first rounds differently: a step that summed in another order
    would miss the threshold or store other mass bits.  Also returns
    those ``(row, job)`` cells."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    graph = PrecedenceGraph(n, edges)
    done = rng.random((B, n)) < 0.3
    done[-1] = True
    indeg = np.zeros((B, n), dtype=np.int64)
    for i, j in edges:
        indeg[:, j] += ~done[:, i]
    remaining = ~done
    eligible = remaining & (indeg == 0)
    a = np.empty((B, m), dtype=np.int64)
    for b in range(B):
        allowed = [-1] + np.flatnonzero(done[b] | eligible[b]).tolist()
        a[b] = rng.choice(allowed, m)
    ell = rng.random((m, n)) * (rng.random((m, n)) > 0.2)
    mass = np.where(remaining, rng.random((B, n)), 0.0)
    theta = mass + rng.exponential(0.6, (B, n))
    shared = []
    for b, k in ((0, 3), (1, 3), (2, 2)):
        open_jobs = np.flatnonzero(eligible[b])
        if not open_jobs.size:
            continue
        j = int(rng.choice(open_jobs))
        a[b, rng.choice(m, k, replace=False)] = j
        mass[b, j] = 0.0
        if (a[b] == j).all():
            while True:
                w0, w1, w2 = ell[:, j] = rng.random(3)
                if (w0 + w1) + w2 not in ((w0 + w2) + w1, (w1 + w2) + w0):
                    break
        shared.append((b, j))
    for b, j in shared:
        total = 0.0
        for i in range(m):
            if a[b, i] == j:
                total += ell[i, j]
        theta[b, j] = total
    indptr, indices = graph.successors_csr()
    args = (
        a, ell, theta, None, 0, 4, remaining, eligible, indeg, mass,
        np.where(done, 2, 0).astype(np.int64),
        rng.integers(0, 9, B).astype(np.int64), remaining.any(axis=1),
        indptr, indices, not edges, np.zeros(B * n),
    )
    return args, shared


def _random_chain_state(rng, F=6, C=4, P=5, n=9, B=8):
    """Random chain-program tables and gathered cursor copies."""
    nit = rng.integers(0, P + 1, C)
    kind = np.full((C, P), kernels.KIND_END, dtype=np.int8)
    ilen = np.zeros((C, P), dtype=np.int64)
    need = np.ones((C, P), dtype=np.int64)
    ijob = np.zeros((C, P), dtype=np.int64)
    for c in range(C):
        for p in range(nit[c]):
            ijob[c, p] = rng.integers(n)
            ilen[c, p] = rng.integers(4)
            if rng.random() < 0.4:
                kind[c, p] = kernels.KIND_PAUSE
            else:
                kind[c, p] = kernels.KIND_BLOCK
                need[c, p] = max(1, ilen[c, p])
    pos = np.stack([rng.integers(0, nit + 1) for _ in range(F)])
    cursors = {
        "trials": np.sort(rng.choice(B, F, replace=False)),
        "pos": pos,
        "tau": rng.integers(0, need.max(), (F, C)),
        "dr": rng.integers(0, 4, (F, C)),
        "started": rng.random((F, C)) < 0.7,
        "remaining": rng.random((B, n)) < 0.5,
        "delays": rng.integers(0, 4, (F, C)),
        "s": rng.integers(0, 4, F),
    }
    tables = (kind, ilen, need, ijob, nit)
    return cursors, tables


def _copies(arrays):
    return [x.copy() if isinstance(x, np.ndarray) else x for x in arrays]


class TestLoopOracleAgreement:
    """The numpy kernels and the loop oracle on random batch states: the
    same return values and the same in-place updates."""

    @pytest.mark.parametrize("edge_prob", [0.0, 0.4],
                             ids=["independent", "dag"])
    def test_drive_step(self, edge_prob):
        rng = np.random.default_rng(100)
        completed = False
        for _ in range(5):
            args, shared = _random_step_state(rng, edge_prob)
            ours, theirs = _copies(args), _copies(args)
            assert kernels.drive_step(*ours) == loop_drive_step(*theirs)
            for x, y in zip(ours, theirs):
                if isinstance(x, np.ndarray):
                    assert np.array_equal(x, y)
            # Jobs whose threshold sits at their exact sum complete.
            assert shared and not any(theirs[6][b, j] for b, j in shared)
            completed |= not np.array_equal(ours[6], args[6])
        assert completed

    def test_chain_finish(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cur, tables = _random_chain_state(rng)
            args = (cur["trials"], cur["pos"], cur["tau"], cur["dr"],
                    cur["started"], cur["remaining"], *tables)
            ours, theirs = _copies(args), _copies(args)
            into, jobs = kernels.chain_finish(*ours)
            into_ref, jobs_ref = loop_chain_finish(*theirs)
            assert np.array_equal(into, into_ref)
            assert np.array_equal(jobs[into], jobs_ref[into_ref])
            for x, y in zip(ours[1:4], theirs[1:4]):
                assert np.array_equal(x, y)

    def test_chain_build(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            cur, tables = _random_chain_state(rng)
            tmult = int(tables[2].max()) + 1
            args = (cur["trials"], cur["pos"], cur["tau"], cur["dr"],
                    cur["started"], cur["delays"], cur["s"],
                    cur["remaining"], *tables, tmult)
            ours, theirs = _copies(args), _copies(args)
            p1, j1, p2, j2, enc = kernels.chain_build(*ours)
            q1, k1, q2, k2, enc_ref = loop_chain_build(*theirs)
            assert np.array_equal(p1, q1) and np.array_equal(p2, q2)
            assert np.array_equal(j1[p1], k1[q1])
            assert np.array_equal(j2[p2], k2[q2])
            assert np.array_equal(enc, enc_ref)
            for x, y in zip(ours[1:5], theirs[1:5]):
                assert np.array_equal(x, y)


class TestTrialParallelBitIdentity:
    """``kernel_threads > 1`` must be byte-identical to serial on every
    discipline × policy: trial shards on a thread pool where the batch
    steps a vectorized policy against thresholds, and the serial route
    (the knob ignored) everywhere else."""

    @staticmethod
    def _assert_shards_invisible(factory, shape, semantics, discipline,
                                 threads, force_cpus):
        force_cpus(threads)
        inst = make_instance(shape)
        ref = run_policy_batch(
            inst, factory, 8, rng=21, semantics=semantics,
            discipline=discipline, kernel_threads=1,
        )
        got = run_policy_batch(
            inst, factory, 8, rng=21, semantics=semantics,
            discipline=discipline, kernel_threads=threads,
        )
        assert np.array_equal(ref.makespans, got.makespans)
        assert np.array_equal(ref.completion_times, got.completion_times)
        assert np.array_equal(ref.busy_machine_steps, got.busy_machine_steps)

    @over_case_grid
    def test_threads_bit_identity(self, factory, shape, semantics, discipline,
                                  force_cpus):
        # 8 trials on 4 threads: even shards of 2.
        self._assert_shards_invisible(factory, shape, semantics, discipline,
                                      4, force_cpus)

    @over_case_grid
    def test_uneven_shards_bit_identity(self, factory, shape, semantics,
                                        discipline, force_cpus):
        # 8 trials on 3 threads: shards of 2, 3 and 3.
        self._assert_shards_invisible(factory, shape, semantics, discipline,
                                      3, force_cpus)

    def test_shard_count_capped_at_cpu_count(self, monkeypatch, force_cpus):
        # A client-chosen kernel_threads far above the CPU count must not
        # split the batch into that many shards.
        from repro.api.registry import policy_factory
        from repro.sim import batch

        force_cpus(2)
        inst = independent_instance(36, 6, "specialist", rng=0)
        ref = run_policy_batch(inst, policy_factory("greedy"), 64, rng=5,
                               discipline="v2", kernel_threads=1)
        shards = []
        drive = batch._drive_batch

        def counted(*args, **kwargs):
            shards.append(args[3])  # the shard's row count
            return drive(*args, **kwargs)

        monkeypatch.setattr(batch, "_drive_batch", counted)
        got = run_policy_batch(inst, policy_factory("greedy"), 64, rng=5,
                               discipline="v2", kernel_threads=16)
        assert shards == [32, 32]
        assert np.array_equal(ref.makespans, got.makespans)
        assert np.array_equal(ref.completion_times, got.completion_times)
        assert np.array_equal(ref.busy_machine_steps, got.busy_machine_steps)

    def test_env_selected_threads_bit_identity(self, monkeypatch, force_cpus):
        force_cpus(3)
        inst = make_instance("independent")
        ref = run_policy_batch(inst, GreedyLRPolicy, 8, rng=4)
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "3")
        got = run_policy_batch(inst, GreedyLRPolicy, 8, rng=4)
        assert np.array_equal(ref.makespans, got.makespans)

    def test_shared_policy_instance_stays_serial_and_correct(self):
        # A pre-built policy (factory=None) cannot be sharded — one
        # stateful instance cannot serve concurrent shard runs — so the
        # threads knob quietly degrades to the serial path.
        inst = make_instance("independent")
        ref = run_policy_batch(inst, GreedyLRPolicy(), 6, rng=9)
        got = run_policy_batch(inst, GreedyLRPolicy(), 6, rng=9,
                               kernel_threads=4)
        assert np.array_equal(ref.makespans, got.makespans)

    def test_single_trial_stays_serial(self):
        inst = make_instance("independent")
        ref = run_policy_batch(inst, GreedyLRPolicy, 1, rng=9)
        got = run_policy_batch(inst, GreedyLRPolicy, 1, rng=9,
                               kernel_threads=4)
        assert np.array_equal(ref.makespans, got.makespans)

    def test_more_threads_than_trials(self, force_cpus):
        force_cpus(16)
        inst = make_instance("independent")
        ref = run_policy_batch(inst, GreedyLRPolicy, 3, rng=9)
        got = run_policy_batch(inst, GreedyLRPolicy, 3, rng=9,
                               kernel_threads=16)
        assert np.array_equal(ref.makespans, got.makespans)


class _EagerChainPolicy(VectorizedPolicy):
    """Machine 0 always works job 0 (completed assignments are skipped
    harmlessly); machine 1 works ``early_job`` at the first step and job
    1 from then on — a precedence violation in every trial whose job 0
    is still unfinished."""

    name = "eager-chain"

    def __init__(self, early_job=0):
        self._early = early_job
        self._step = 0

    def start(self, instance, rng):
        pass

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        second = self._early if self._step == 0 else 1
        self._step += 1
        out = np.zeros((state.n_trials, 2), dtype=np.int64)
        out[:, 1] = second
        return out


class _BadJobPolicy(VectorizedPolicy):
    name = "bad-job"

    def start(self, instance, rng):
        self._m = instance.n_machines

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        return np.full((state.n_trials, self._m), -5, dtype=np.int64)


class _LateBadPolicy(VectorizedPolicy):
    """Idle at the first step, then both machines work the first eligible
    job of each row — except at step 1, where machine 0 works
    ``late_job`` in the rows ``late_rows`` selects."""

    name = "late-bad"
    late_job = 0
    late_rows = slice(None)

    def start(self, instance, rng):
        pass

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        eligible = state.eligible
        first = np.where(eligible.any(axis=1), eligible.argmax(axis=1), -1)
        out = np.repeat(first[:, None], 2, axis=1).astype(np.int64)
        if state.t == 0:
            out[:] = -1
        elif state.t == 1:
            out[self.late_rows, 0] = self.late_job
        return out


class _LateRangePolicy(_LateBadPolicy):
    """Job id 2 (one past the last job of the two-job chain) in the first
    row only: unchecked, its mass would land on the next row's job 0."""

    name = "late-range"
    late_job = 2
    late_rows = 0


class _LatePrecedencePolicy(_LateBadPolicy):
    """Job 1 while job 0 is still unfinished, in every row."""

    name = "late-precedence"
    late_job = 1


class _SplitLatePolicy(VectorizedPolicy):
    """Both machines work job 0, except that machine 1 works job 1 while
    job 0 is unfinished: at step 3 in trials 0-3 and at step 1 in trials
    4-7 (read from ``state.trials``, so the same in any shard)."""

    name = "split-late"

    def start(self, instance, rng):
        pass

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        out = np.zeros((state.n_trials, 2), dtype=np.int64)
        late = np.where(state.trials < 4, 3, 1)
        out[late == state.t, 1] = 1
        return out


def _chain2_instance():
    graph = PrecedenceGraph(2, [(0, 1)])
    return SUUInstance(np.full((2, 2), 0.5), graph)


#: Serial (v1 coin flips under the default discipline), and trial shards
#: (threshold stepping; each shard checks its own rows and raises
#: through the thread pool).
validate_threads = pytest.mark.parametrize(
    "kernel_threads,semantics", [(1, "suu"), (4, "suu_star")],
    ids=["serial", "shards"],
)


class TestEveryStepChecked:
    @pytest.fixture(autouse=True)
    def _shards_on_any_machine(self, force_cpus):
        # The "shards" cases run shards even on a one-CPU machine.
        force_cpus(4)

    @validate_threads
    def test_first_step_always_validated(self, kernel_threads, semantics):
        # A policy broken from the start fails at the first step.
        with pytest.raises(ScheduleViolationError, match="predecessors"):
            run_policy_batch(
                _chain2_instance(), lambda: _EagerChainPolicy(early_job=1),
                3, rng=0, semantics=semantics, kernel_threads=kernel_threads,
            )

    @validate_threads
    def test_range_check_at_first_step(self, kernel_threads, semantics):
        with pytest.raises(ScheduleViolationError, match="out-of-range"):
            run_policy_batch(
                _chain2_instance(), _BadJobPolicy, 3, rng=0,
                semantics=semantics, kernel_threads=kernel_threads,
            )

    @validate_threads
    def test_late_violation_caught_when_validating(self, kernel_threads,
                                                   semantics):
        # Under suu_star, job 0 outlives step 0 in the odd trials (mass 2
        # against a threshold of 3); suu flips coins and ignores theta.
        theta = np.ones((8, 2))
        theta[1::2, 0] = 3.0
        with pytest.raises(ScheduleViolationError, match="predecessors"):
            run_policy_batch(
                _chain2_instance(), _EagerChainPolicy, 8, rng=0,
                semantics=semantics, thresholds=theta,
                kernel_threads=kernel_threads,
            )

    @pytest.mark.parametrize("kernel_threads", [1, 2], ids=["serial", "shards"])
    def test_violation_names_the_batch_trial(self, kernel_threads):
        # Job 0 is unfinished after step 0 only in trial 5 of 8 (mass 2
        # against a threshold of 3), which the second of two shards holds
        # as its row 1.
        theta = np.ones((8, 2))
        theta[5, 0] = 3.0
        with pytest.raises(ScheduleViolationError, match=r"\(t=1, trial=5\)"):
            run_policy_batch(
                _chain2_instance(), _EagerChainPolicy, 8, rng=0,
                semantics="suu_star", thresholds=theta,
                kernel_threads=kernel_threads,
            )

    @pytest.mark.parametrize("kernel_threads", [1, 2], ids=["serial", "shards"])
    def test_shards_raise_the_serial_error(self, kernel_threads):
        # The first of two shards (trials 0-3) fails at step 3 and the
        # second (trials 4-7) at step 1; a serial batch meets the step-1
        # violation first, so the sharded batch must raise that one too.
        with pytest.raises(ScheduleViolationError, match=r"\(t=1, trial=4\)"):
            run_policy_batch(
                _chain2_instance(), _SplitLatePolicy, 8, rng=0,
                semantics="suu_star", thresholds=np.full((8, 2), 50.0),
                kernel_threads=kernel_threads,
            )

    @pytest.mark.parametrize("kernel_threads", [1, 2], ids=["serial", "shards"])
    def test_horizon_error_counts_the_batch(self, kernel_threads):
        # Every trial idles through step 0, the only step max_steps allows.
        with pytest.raises(SimulationHorizonError,
                           match="max_steps=1 with 8 of 8 trials unfinished"):
            run_policy_batch(
                _chain2_instance(), _LateRangePolicy, 8, rng=0,
                semantics="suu_star", max_steps=1,
                kernel_threads=kernel_threads,
            )

    def test_shards_show_batch_trial_ids(self, monkeypatch):
        from repro.sim import batch

        seen = []

        class Recording(_EagerChainPolicy):
            def assign_batch(self, state):
                if state.t == 0:
                    seen.append(state.trials.tolist())
                return super().assign_batch(state)

        pools = []
        pool_class = batch.ThreadPoolExecutor

        def recording_pool(max_workers=None):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers)

        monkeypatch.setattr(batch, "ThreadPoolExecutor", recording_pool)
        run_policy_batch(
            _chain2_instance(), Recording, 8, rng=0, semantics="suu_star",
            thresholds=np.ones((8, 2)), kernel_threads=2,
        )
        assert pools == [2]
        assert sorted(seen) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @pytest.mark.parametrize(
        "cls,match",
        [(_LateRangePolicy, "out-of-range"),
         (_LatePrecedencePolicy, "predecessors")],
        ids=["range", "precedence"],
    )
    @validate_threads
    def test_registry_policies_checked_at_every_step(self, cls, match,
                                                     kernel_threads, semantics,
                                                     monkeypatch):
        # A policy reached by registry name gets the same checks as any
        # other, at every step: here the bad row first appears at step 1.
        from repro.api import registry

        registry.policy_names()  # register the built-ins first
        monkeypatch.setitem(
            registry._REGISTRY, cls.name,
            registry.PolicyInfo(name=cls.name, cls=cls),
        )
        config = SimConfig(n_trials=8, seed=1, semantics=semantics,
                           kernel_threads=kernel_threads)
        with pytest.raises(ScheduleViolationError, match=match):
            simulate(_chain2_instance(), cls.name, config)


class TestCommonRandomNumbers:
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_grid_policies_share_the_run_randomness(self, discipline):
        sc = Scenario(shape="independent", n_jobs=10, n_machines=4,
                      model="specialist", seed=3)
        config = SimConfig(n_trials=8, seed=5, discipline=discipline)
        a, b = evaluate_grid([sc], ("sem", "sem"), config=config)
        assert np.array_equal(a.stats.samples, b.stats.samples)
        # Each grid cell is the simulate() call of its own policy.
        alone = simulate(sc, "sem", config)
        assert np.array_equal(a.stats.samples, alone.stats.samples)


class TestThreading:
    def test_report_surfaces_kernel_threads(self, small_independent):
        report = simulate(
            small_independent, "greedy-lr",
            SimConfig(n_trials=4, seed=1, kernel_threads=2),
        )
        assert report.kernel == {"threads": 2}
        payload = report.to_dict()
        assert payload["kernel"] == {"threads": 2}
        assert payload["config"]["kernel_threads"] == 2

    @pytest.mark.parametrize("kernel_threads", [None, 2])
    def test_grid_reports_surface_kernel_threads(self, kernel_threads):
        sc = Scenario(shape="independent", n_jobs=8, n_machines=3,
                      model="specialist", seed=1)
        config = SimConfig(n_trials=4, seed=1, kernel_threads=kernel_threads)
        reports = evaluate_grid([sc], ("sem", "greedy-lr"), config=config)
        assert [r.kernel for r in reports] == [
            {"threads": kernel_threads or 1}
        ] * 2

    @pytest.mark.parametrize("env,threads", [(None, 1), ("2", 2)])
    def test_healthz_reports_kernel_threads(self, monkeypatch, env, threads):
        from repro.server.app import SchedulingService

        if env is not None:
            monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, env)
        status, payload = SchedulingService().handle("GET", "/healthz", None)
        assert status == 200
        assert payload["kernel"] == {"threads": threads}

    def test_cold_warm_pool_stats_leave_pool_unbuilt(self):
        from repro.api.executors import make_executor

        executor = make_executor("warm-pool", 1)
        try:
            stats = executor.stats()
            assert stats["warm"] is False
            assert "worker_solve_cache" not in stats
            assert not executor.warm  # stats alone must not build the pool
        finally:
            executor.close()

    def test_config_kernel_threads_changes_no_sample(self, small_independent):
        ref = simulate(small_independent, "greedy-lr",
                       SimConfig(n_trials=6, seed=2))
        alt = simulate(small_independent, "greedy-lr",
                       SimConfig(n_trials=6, seed=2, kernel_threads=2))
        assert np.array_equal(ref.stats.samples, alt.stats.samples)

    def test_cli_run_accepts_kernel_threads(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "inst.json")
        assert main(["generate", "--shape", "independent", "--jobs", "8",
                     "--machines", "3", "--seed", "1", "--out", path]) == 0
        assert main(["run", path, "--policy", "greedy-lr", "--trials", "4",
                     "--kernel-threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "threads:  2" in out

    @pytest.mark.parametrize("command", ["run", "sweep", "serve"])
    def test_cli_rejects_stale_kernel_flag(self, tmp_path, capsys, command):
        from repro.__main__ import main

        path = str(tmp_path / "inst.json")
        assert main(["generate", "--shape", "independent", "--jobs", "8",
                     "--machines", "3", "--seed", "1", "--out", path]) == 0
        argv = {
            "run": ["run", path, "--trials", "2"],
            "sweep": ["sweep", "--jobs", "8", "--trials", "2"],
            "serve": ["serve", "--port", "0", "--executor", "serial"],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kernel", "numpy"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err
