"""The direct HiGHS path (repro.lp.solver) and the direct (LP1) build.

* Byte identity: over a generated corpus — (LP1) on independent jobs and
  on chain survivor subsets at several targets, (LP2) on chains and on a
  forest's blocks, and the ``add_eq`` / ``add_ge`` programs of the
  stochastic baselines — every LP solved directly gives the same ``x``
  bytes and objective value as ``linprog(method="highs")`` fed the
  scipy.sparse matrices the builder produced before the direct path.
  The (LP1) programs come from :func:`_oracle_lp1`, the
  :class:`LinearProgram` assembly ``solve_lp1`` used before it wrote its
  CSC arrays itself.
* Direct (LP1) arrays: :func:`repro.core.lp1.assemble_lp1` emits, field
  by field in bytes and dtype, what ``_oracle_lp1(...).build_arrays()``
  emits — on the corpus and on every survivor set one cold
  ``chains-suuc-v2``-sized SUU-C call solves — and ``solve_lp1``'s
  solution is the oracle's.
* No state leaks: the corpus solved in shuffled order on one reused
  solver, and on four threads at once, matches the serial solve.
* Error paths: infeasible / unbounded statuses, and the post-solve check
  on crafted answers.
* The ``linprog`` fallback (scipy without the binding) still runs every
  ``tests/test_lp.py`` case.
"""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import repro
import repro.core.lp1 as lp1_module
import repro.lp.model as model_module
import repro.lp.solver as solver
import test_lp
from repro.core.lp1 import MASS_EPS, assemble_lp1, cached_capped_logmass, solve_lp1
from repro.core.lp2 import solve_lp2
from repro.core.phased import clear_solve_cache
from repro.errors import InfeasibleLPError, InvalidInstanceError
from repro.instance import (
    chain_instance,
    decompose_forest,
    extract_chains,
    forest_instance,
    independent_instance,
)
from repro.lp import CSCModel, LinearProgram, solve_lp
from repro.lp.solver import check_solution
from repro.lp.stats import lp_stats_delta, lp_stats_snapshot
from repro.stochastic.lawler_labetoulle import solve_r_pmtn_cmax
from repro.stochastic.lst import solve_r_cmax_lst

needs_binding = pytest.mark.skipif(
    solver._highs is None, reason="scipy build without the HiGHS binding"
)

TARGETS = (0.5, 1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# The (LP1) oracle: the LinearProgram assembly solve_lp1 used before it
# built its CSC arrays directly.


def _oracle_lp1(ell_capped, jobs, target) -> LinearProgram:
    """(LP1) for the sorted distinct ``jobs`` via ``LinearProgram``.

    Variables ``t`` then one ``x_ij`` per usable pair, job-major with
    machines ascending; one ``>=`` mass row per job, then one ``<=`` load
    row per machine with a usable job.
    """
    m = ell_capped.shape[0]
    job_arr = np.asarray(jobs, dtype=np.int64)
    sub = ell_capped[:, job_arr]  # (m, k)
    usable = sub > MASS_EPS
    per_job = usable.sum(axis=0)
    job_pos, mach_idx = np.nonzero(usable.T)
    nnz = job_pos.size

    lp = LinearProgram()
    t_var = lp.add_variable(objective=1.0)
    x_vars = np.asarray(lp.add_variables(nnz), dtype=np.int64)
    lp.add_rows_csr(
        np.concatenate(([0], np.cumsum(per_job))),
        x_vars,
        sub[mach_idx, job_pos],
        np.full(job_arr.size, float(target)),
        ">=",
    )
    order = np.argsort(mach_idx, kind="stable")
    per_mach = np.bincount(mach_idx, minlength=m)
    used = per_mach > 0
    load_indptr = np.concatenate(([0], np.cumsum(per_mach[used] + 1)))
    load_cols = np.empty(load_indptr[-1], dtype=np.int64)
    load_vals = np.empty(load_indptr[-1], dtype=np.float64)
    t_slot = load_indptr[1:] - 1
    x_slot = np.ones(load_indptr[-1], dtype=bool)
    x_slot[t_slot] = False
    load_cols[x_slot] = x_vars[order]
    load_vals[x_slot] = 1.0
    load_cols[t_slot] = t_var
    load_vals[t_slot] = -1.0
    lp.add_rows_csr(load_indptr, load_cols, load_vals, np.zeros(int(used.sum())), "<=")
    return lp


def _oracle_x(ell_capped, jobs, sol) -> np.ndarray:
    """The oracle's solution scattered into an ``(m, n)`` matrix."""
    usable = ell_capped[:, np.asarray(jobs, dtype=np.int64)] > MASS_EPS
    job_pos, mach_idx = np.nonzero(usable.T)
    x = np.zeros(ell_capped.shape)
    x[mach_idx, np.asarray(jobs)[job_pos]] = np.maximum(0.0, sol.x[1:]) + 0.0
    return x


def _assembly_args(instance, jobs, target):
    """``(ell_capped, sorted distinct jobs, target)`` as ``solve_lp1`` builds them."""
    return cached_capped_logmass(instance, target), jobs, float(target)


def _assert_same_model(got: CSCModel, want: CSCModel) -> None:
    for name in CSCModel._fields[:-1]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.n_ub == want.n_ub


# ---------------------------------------------------------------------------
# The corpus: every LinearProgram the generators below solve, with the
# (LP1) ones built by the oracle.


def _generate_programs():
    programs: list[tuple[str, LinearProgram]] = []
    lp1_cases: list[tuple] = []
    label = ["?"]
    original = LinearProgram.solve

    def recording_solve(self):
        programs.append((label[0], self))
        return original(self)

    def lp1(instance, jobs=None, target=0.5):
        jobs = range(instance.n_jobs) if jobs is None else jobs
        case = (instance, sorted({int(j) for j in jobs}), float(target))
        lp1_cases.append(case)
        programs.append((label[0], _oracle_lp1(*_assembly_args(*case))))

    rng = np.random.default_rng(2024)
    label[0] = "lp1-independent"
    for seed in range(3):
        inst = independent_instance(10, 3, rng=seed)
        for target in TARGETS:
            lp1(inst, target=target)
            jobs = rng.choice(10, size=int(rng.integers(2, 9)), replace=False)
            lp1(inst, jobs=jobs, target=target)

    label[0] = "lp1-chain-survivors"
    for seed in range(3):
        inst = chain_instance(12, 3, 4, rng=seed)
        chains = extract_chains(inst.graph)
        for target in TARGETS:
            # Survivors after a random prefix of every chain completed.
            survivors = [
                j for chain in chains for j in chain[int(rng.integers(0, len(chain))) :]
            ]
            lp1(inst, jobs=survivors, target=target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearProgram, "solve", recording_solve)

        label[0] = "lp2-chains"
        for seed in range(4):
            inst = chain_instance(12, 3, 4, rng=seed)
            solve_lp2(inst, extract_chains(inst.graph))

        label[0] = "lp2-forest"
        for seed in range(2):
            inst = forest_instance(14, 3, 2, rng=seed)
            for block in decompose_forest(inst.graph):
                solve_lp2(inst, block)

        label[0] = "lst"
        for _ in range(2):
            speeds = rng.uniform(0.2, 1.0, size=(3, 6)) * (rng.random((3, 6)) < 0.8)
            speeds[0] = np.maximum(speeds[0], 0.1)
            solve_r_cmax_lst(speeds, rng.uniform(1.0, 4.0, size=6), rel_tol=0.05)

        label[0] = "lawler-labetoulle"
        for _ in range(3):
            speeds = rng.uniform(0.2, 1.0, size=(3, 6)) * (rng.random((3, 6)) < 0.7)
            speeds[0] = np.maximum(speeds[0], 0.1)
            solve_r_pmtn_cmax(speeds, rng.uniform(0.5, 3.0, size=6))
    return programs, lp1_cases


@pytest.fixture(scope="module")
def generated():
    return _generate_programs()


@pytest.fixture(scope="module")
def lp1_cases(generated):
    return generated[1]


@pytest.fixture(scope="module")
def corpus(generated):
    return generated[0]


def _linprog_args(lp: LinearProgram) -> dict:
    """The arrays the builder handed ``linprog`` before the direct path:
    CSR ``A_ub`` (``>=`` rows negated) and ``A_eq`` from the COO triplets,
    and a bounds list."""
    blocks = lp._blocks
    offsets = np.cumsum([0] + [b[3].size for b in blocks])
    rows = np.concatenate([b[0] + off for b, off in zip(blocks, offsets)])
    cols, vals, rhs, sense = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3, 4))
    sign = np.where(sense == 1, -1.0, 1.0)
    args = {"c": np.asarray(lp._objective, dtype=np.float64)}
    for suffix, family in (("ub", sense != 2), ("eq", sense == 2)):
        if family.any():
            row_index = np.cumsum(family) - 1
            ent = family[rows]
            args[f"A_{suffix}"] = sp.csr_matrix(
                (vals[ent] * sign[rows[ent]], (row_index[rows[ent]], cols[ent])),
                shape=(int(family.sum()), lp.n_variables),
            )
            args[f"b_{suffix}"] = (rhs * sign)[family]
    args["bounds"] = [(lo, None if np.isinf(up) else up) for lo, up in zip(lp._lb, lp._ub)]
    return args


def _reference(lp: LinearProgram):
    res = linprog(**_linprog_args(lp), method="highs")
    if not res.success:
        return ("error", res.status)
    return ("ok", np.asarray(res.x, dtype=np.float64).tobytes(), float(res.fun))


def _outcome(model: CSCModel):
    try:
        sol = solve_lp(model)
    except InfeasibleLPError as exc:
        return ("error", exc.status)
    return ("ok", sol.x.tobytes(), sol.value)


# ---------------------------------------------------------------------------
# Byte identity.


class TestByteIdentity:
    def test_corpus_covers_every_family(self, corpus):
        labels = {label for label, _ in corpus}
        assert labels == {
            "lp1-independent",
            "lp1-chain-survivors",
            "lp2-chains",
            "lp2-forest",
            "lst",
            "lawler-labetoulle",
        }
        # The LST binary search probes infeasible thresholds too.
        assert any(_reference(lp)[0] == "error" for label, lp in corpus if label == "lst")

    def test_csc_arrays_match_scipy(self, corpus):
        for _, lp in corpus:
            args = _linprog_args(lp)
            blocks = [args.get(k) for k in ("A_ub", "A_eq") if args.get(k) is not None]
            ref = sp.csc_array(sp.vstack(blocks))
            model = lp.build_arrays()
            assert model.start.tobytes() == ref.indptr.astype(np.int32).tobytes()
            assert model.index.tobytes() == ref.indices.astype(np.int32).tobytes()
            assert model.value.tobytes() == ref.data.tobytes()

    def test_solutions_match_linprog(self, corpus):
        for label, lp in corpus:
            assert _outcome(lp.build_arrays()) == _reference(lp), label

    def test_linprog_style_arguments_match_linprog(self, corpus):
        for _, lp in corpus[::5]:
            args = _linprog_args(lp)
            try:
                sol = solve_lp(**args)
                got = ("ok", sol.x.tobytes(), sol.value)
            except InfeasibleLPError as exc:
                got = ("error", exc.status)
            assert got == _reference(lp)

    @needs_binding
    def test_shuffled_order_on_one_solver(self, corpus):
        models = [lp.build_arrays() for _, lp in corpus]
        in_order = [_outcome(m) for m in models]
        highs = solver._solver()
        order = list(range(len(models)))
        random.Random(7).shuffle(order)
        shuffled = {i: _outcome(models[i]) for i in order}
        assert solver._solver() is highs
        assert [shuffled[i] for i in range(len(models))] == in_order

    @needs_binding
    def test_four_threads_match_serial(self, corpus):
        models = [lp.build_arrays() for _, lp in corpus]
        serial = [_outcome(m) for m in models]
        barrier = threading.Barrier(4)

        def work(seed):
            order = list(range(len(models)))
            random.Random(seed).shuffle(order)
            barrier.wait(timeout=30)
            out = {i: _outcome(models[i]) for i in order}
            return id(solver._solver()), [out[i] for i in range(len(models))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, seed) for seed in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({ident for ident, _ in results}) == 4  # one solver per thread
        for _, outcomes in results:
            assert outcomes == serial

    def test_fallback_matches_direct_path(self, corpus, monkeypatch):
        models = [lp.build_arrays() for _, lp in corpus[::4]]
        direct = [_outcome(m) for m in models]
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(solver, "_highs", None)
        monkeypatch.setattr(solver, "linprog", spy)
        assert [_outcome(m) for m in models] == direct
        assert len(calls) == len(models)


class TestDirectLP1Assembly:
    """``assemble_lp1`` writes the arrays the ``LinearProgram`` oracle builds."""

    def test_corpus_models_match_oracle(self, lp1_cases):
        assert len(lp1_cases) == 36
        for case in lp1_cases:
            args = _assembly_args(*case)
            model, _ = assemble_lp1(*args)
            _assert_same_model(model, _oracle_lp1(*args).build_arrays())

    def test_solutions_match_oracle(self, lp1_cases):
        for instance, jobs, target in lp1_cases:
            ell_capped = cached_capped_logmass(instance, target)
            oracle = _oracle_lp1(ell_capped, jobs, target).solve()
            got = solve_lp1(instance, jobs=np.asarray(jobs), target=target)
            assert got.x.tobytes() == _oracle_x(ell_capped, jobs, oracle).tobytes()
            assert got.t_star == oracle.value

    def test_chains_call_survivor_sets_match_oracle(self, monkeypatch):
        # Every LP1 a cold 30-trial v2 SUU-C call on the 36x6 specialist
        # chains instance solves: its survivor sets and targets.
        captured = []
        original = lp1_module.assemble_lp1

        def spy(ell_capped, jobs, target):
            out = original(ell_capped, jobs, target)
            captured.append((ell_capped, list(jobs), target, out[0]))
            return out

        monkeypatch.setattr(lp1_module, "assemble_lp1", spy)
        clear_solve_cache()
        repro.simulate(
            repro.Scenario(
                shape="chains", n_jobs=36, n_machines=6, model="specialist", seed=0
            ),
            "suu-c",
            repro.SimConfig(n_trials=30, seed=0, discipline="v2"),
        )
        assert len(captured) > 200
        assert len({(tuple(jobs), target) for _, jobs, target, _ in captured}) > 200
        for ell_capped, jobs, target, model in captured:
            _assert_same_model(model, _oracle_lp1(ell_capped, jobs, target).build_arrays())

    def test_job_without_usable_machine_raises(self):
        ell = np.array([[0.5, 0.0], [0.25, 0.0]])
        with pytest.raises(InvalidInstanceError, match="job 1 has no machine"):
            assemble_lp1(ell, [0, 1], 0.5)

    def test_assembly_time_is_counted(self, lp1_cases):
        before = lp_stats_snapshot()
        assemble_lp1(*_assembly_args(*lp1_cases[0]))
        delta = lp_stats_delta(before)
        assert delta["assembly_seconds"] > 0.0
        assert delta["lp_solves"] == 0

    def test_solve_goes_through_the_model_seam(self, lp1_cases, monkeypatch):
        # perfbench wraps ``repro.lp.model.solve_lp``; LP1 must call it
        # there, looked up at call time.
        calls = []
        original = model_module.solve_lp

        def spy(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(model_module, "solve_lp", spy)
        instance, jobs, target = lp1_cases[1]
        solve_lp1(instance, jobs=jobs, target=target)
        assert len(calls) == 1


class TestBuildArrays:
    def test_bulk_duplicates_sum_like_the_dict_api(self):
        # Row 0 repeats column 0 three times; the == row moves behind the
        # two inequality rows.
        bulk = LinearProgram()
        bulk.add_variables(3, objective=1.0)
        bulk.add_rows_csr(
            [0, 4, 5, 7],
            [0, 2, 0, 0, 1, 2, 2],
            [0.5, 1.0, 0.25, 0.125, 1.0, 1.0, 2.0],
            [1.0, 2.0, 3.0],
            [">=", "==", "<="],
        )
        merged = LinearProgram()
        merged.add_variables(3, objective=1.0)
        merged.add_ge({0: 0.5 + 0.25 + 0.125, 2: 1.0}, 1.0)
        merged.add_eq({1: 1.0}, 2.0)
        merged.add_le({2: 3.0}, 3.0)
        got, want = bulk.build_arrays(), merged.build_arrays()
        assert got.n_ub == want.n_ub == 2
        for name in CSCModel._fields[:-1]:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.row_lower.tolist() == [-np.inf, -np.inf, 2.0]
        assert got.row_upper.tolist() == [-1.0, 3.0, 2.0]


# ---------------------------------------------------------------------------
# Solver set-up and error paths.


@needs_binding
class TestDirectSolver:
    def test_options_are_linprogs(self):
        highs = solver._solver()
        for name, value in solver.HIGHS_OPTIONS:
            status, current = highs.getOptionValue(name)
            assert current == value, name

    def test_infeasible_status_and_message(self):
        # x <= -1 with x >= 0.
        with pytest.raises(InfeasibleLPError) as info:
            solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-1.0]))
        assert info.value.status == 2
        text = solver._solver().modelStatusToString(
            solver._highs.HighsModelStatus.kInfeasible
        )
        assert text in str(info.value)

    def test_unbounded_status_and_message(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=-1.0)
        y = lp.add_variable()
        lp.add_le({x: 1.0, y: -1.0}, 1.0)
        with pytest.raises(InfeasibleLPError) as info:
            lp.solve()
        assert info.value.status == 3
        text = solver._solver().modelStatusToString(
            solver._highs.HighsModelStatus.kUnbounded
        )
        assert text in str(info.value)


class TestCheckSolution:
    @staticmethod
    def _model():
        # min x + y  s.t.  x + y >= 1,  y == 0.5,  0 <= x <= 2,  y >= 0.
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, ub=2.0)
        y = lp.add_variable(objective=1.0)
        lp.add_ge({x: 1.0, y: 1.0}, 1.0)
        lp.add_eq({y: 1.0}, 0.5)
        return lp.build_arrays()

    @staticmethod
    def _check(model, x):
        x = np.asarray(x, dtype=np.float64)
        A = sp.csc_array(
            (model.value, model.index, model.start),
            shape=(model.row_upper.size, model.c.size),
        )
        check_solution(model, x, float(model.c @ x), A @ x)

    def test_feasible_answer_passes(self):
        model = self._model()
        self._check(model, [0.5, 0.5])
        self._check(model, [0.5 - 1e-5, 0.5])  # within linprog's tolerance

    @pytest.mark.parametrize(
        "x",
        [
            [3.0, 0.5],  # x above its upper bound
            [-0.1, 1.2],  # x below its lower bound (rows hold)
            [0.1, 0.5],  # the >= row violated
            [1.0, 0.6],  # the equality residual off
            [np.nan, 0.5],  # NaN
        ],
    )
    def test_violations_raise_status_4(self, x):
        with pytest.raises(InfeasibleLPError) as info:
            self._check(self._model(), x)
        assert info.value.status == 4


# ---------------------------------------------------------------------------
# The linprog fallback runs every tests/test_lp.py case.


@pytest.fixture
def without_binding(monkeypatch):
    monkeypatch.setattr(solver, "_highs", None)


@pytest.mark.usefixtures("without_binding")
class TestSolveLPFallback(test_lp.TestSolveLP):
    pass


@pytest.mark.usefixtures("without_binding")
class TestLinearProgramFallback(test_lp.TestLinearProgram):
    pass
