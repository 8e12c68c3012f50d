"""Independent-jobs experiments: E-OBL, E-SEM, E-LP1, A-ROUNDS.

These verify Theorems 3 and 4 empirically: SUU-I-OBL's ratio should track
``log2 n`` while SUU-I-SEM's stays near-flat (``log log``), and Lemma 2's
rounding should inflate the LP value by only a constant.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import lower_bound
from repro.analysis.ratios import measure_ratio
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.core.lp1 import solve_lp1
from repro.core.rounding import round_assignment
from repro.core.suu_i_obl import build_obl_schedule
from repro.core.suu_i_sem import SUUISemPolicy, paper_round_count
from repro.experiments.common import ExperimentResult, loglog, register_experiment, safe_log2
from repro.instance.generators import independent_instance
from repro.sim.montecarlo import sample_oblivious_repeat_makespans
from repro.util.rng import ensure_rng

__all__ = ["run_obl_scaling", "run_sem_scaling", "run_lp_rounding", "run_rounds_ablation"]


@register_experiment("E-OBL")
def run_obl_scaling(
    *,
    ns=(10, 20, 40, 80, 160),
    m: int = 10,
    n_trials: int = 200,
    n_instances: int = 3,
    seed: int = 3,
) -> ExperimentResult:
    """E-OBL: SUU-I-OBL ratio vs ``log2 n`` (uses the exact repeat sampler).

    Ratios are averaged over ``n_instances`` independent instance draws per
    size to suppress instance-to-instance noise.
    """
    rng = ensure_rng(seed)
    res = ExperimentResult(
        exp_id="E-OBL",
        title="Theorem 3: oblivious repeat, ratio growth vs log2 n",
        headers=["n", "m", "mean LB", "mean E[T] OBL", "ratio", "ratio/log2(n)"],
    )
    for n in ns:
        bounds, means = [], []
        for _ in range(n_instances):
            inst = independent_instance(n, m, "specialist", rng=rng.spawn(1)[0])
            bounds.append(lower_bound(inst))
            schedule = build_obl_schedule(inst)
            stats = sample_oblivious_repeat_makespans(
                inst, schedule, n_trials, rng.spawn(1)[0]
            )
            means.append(stats.mean)
        ratio = float(np.mean([mu / b for mu, b in zip(means, bounds)]))
        res.add(
            n, m, float(np.mean(bounds)), float(np.mean(means)), ratio,
            ratio / safe_log2(n),
        )
    res.notes.append(
        "ratio/log2(n) should be roughly flat if the O(log n) bound is tight "
        "on specialist workloads."
    )
    return res


@register_experiment("E-SEM")
def run_sem_scaling(
    *,
    ns=(10, 20, 40, 80),
    m: int = 10,
    n_trials: int = 30,
    n_trials_obl: int = 200,
    n_instances: int = 3,
    seed: int = 4,
    max_steps: int = 400_000,
) -> ExperimentResult:
    """E-SEM: SEM vs OBL vs greedy; SEM's curve should flatten (Theorem 4)."""
    rng = ensure_rng(seed)
    res = ExperimentResult(
        exp_id="E-SEM",
        title="Theorem 4: semioblivious rounds vs O(log n) baselines",
        headers=[
            "n",
            "m",
            "mean LB",
            "greedy ratio",
            "OBL ratio",
            "SEM ratio",
            "K (paper)",
            "SEM/loglog",
        ],
    )
    for n in ns:
        bounds, r_greedy, r_obl, r_sem = [], [], [], []
        for _ in range(n_instances):
            inst = independent_instance(n, m, "specialist", rng=rng.spawn(1)[0])
            bound = lower_bound(inst)
            bounds.append(bound)
            greedy = measure_ratio(
                inst, GreedyLRPolicy, n_trials, rng.spawn(1)[0], bound=bound,
                max_steps=max_steps,
            )
            r_greedy.append(greedy.ratio)
            schedule = build_obl_schedule(inst)
            obl_stats = sample_oblivious_repeat_makespans(
                inst, schedule, n_trials_obl, rng.spawn(1)[0]
            )
            r_obl.append(obl_stats.mean / bound)
            sem = measure_ratio(
                inst, SUUISemPolicy, n_trials, rng.spawn(1)[0], bound=bound,
                max_steps=max_steps,
            )
            r_sem.append(sem.ratio)
        sem_ratio = float(np.mean(r_sem))
        res.add(
            n,
            m,
            float(np.mean(bounds)),
            float(np.mean(r_greedy)),
            float(np.mean(r_obl)),
            sem_ratio,
            paper_round_count(n, m),
            sem_ratio / loglog(min(m, n)),
        )
    res.notes.append(
        "At fixed m, SEM's ratio stays in a band across n and OBL's grows "
        "(Theorems 4 and 3); greedy's falls on these random specialist "
        "instances; each row averages over independent instance draws."
    )
    return res


@register_experiment("E-LP1")
def run_lp_rounding(
    *,
    sizes=((20, 5), (40, 10), (80, 20)),
    models=("uniform", "specialist", "powerlaw"),
    seed: int = 5,
) -> ExperimentResult:
    """E-LP1: Lemma 2 rounding quality — load blow-up and mass margins."""
    rng = ensure_rng(seed)
    res = ExperimentResult(
        exp_id="E-LP1",
        title="Lemmas 1-2: rounding blow-up (load / t*) and mass margin",
        headers=["model", "n", "m", "t*", "rounded load", "load/t*", "min mass/L"],
    )
    for model in models:
        for n, m in sizes:
            inst = independent_instance(n, m, model, rng=rng.spawn(1)[0])
            relax = solve_lp1(inst, target=0.5)
            rounded = round_assignment(relax)
            mass = rounded.mass_per_job(relax.ell_capped)
            jobs = list(relax.jobs)
            min_margin = float(np.min(mass[jobs]) / relax.target)
            blow = rounded.load / max(relax.t_star, 1e-12)
            res.add(model, n, m, relax.t_star, rounded.load, blow, min_margin)
    res.notes.append(
        "Lemma 2 guarantees load <= ceil(6 t*) (blow-up <= ~6) and "
        "mass margin >= 1; measured blow-ups are usually far smaller."
    )
    return res


@register_experiment("A-ROUNDS")
def run_rounds_ablation(
    *,
    n: int = 60,
    m: int = 10,
    k_values=(1, 2, 3, 4, 5, 6),
    n_trials: int = 30,
    seed: int = 6,
    max_steps: int = 400_000,
    discipline: str | None = None,
) -> ExperimentResult:
    """A-ROUNDS: sweep the number of SEM rounds ``K`` around the paper's value."""
    rng = ensure_rng(seed)
    inst = independent_instance(n, m, "specialist", rng=rng.spawn(1)[0])
    bound = lower_bound(inst)
    res = ExperimentResult(
        exp_id="A-ROUNDS",
        title="Ablation: SUU-I-SEM round budget K",
        headers=["K", "paper K?", "E[T]", "ratio"],
    )
    k_paper = paper_round_count(n, m)
    for k in k_values:
        meas = measure_ratio(
            inst,
            lambda k=k: SUUISemPolicy(n_rounds=k),
            n_trials,
            rng.spawn(1)[0],
            bound=bound,
            max_steps=max_steps,
            discipline=discipline,
        )
        res.add(k, "yes" if k == k_paper else "", meas.stats.mean, meas.ratio)
    res.notes.append(
        "small K leans on the fallback; large K wastes rounds. The paper's "
        f"K={k_paper} should sit near the flat region."
    )
    return res
