"""Session-scoped simulation fixtures shared by the acceptance and slow-property suites.

Each fixture freezes its RNG seed so every run of the suite sees identical
Monte Carlo data; the heavy ensembles are built once per session and reused
by all consumers.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from spinchaos import classical as cl
from spinchaos import correspondence as corr
from spinchaos import liouville as lv
from spinchaos import quantum as qm

A_ROT = 5.0
IC_CHAOTIC = (20.0, 40.0, 160.0, 130.0)   # degrees; mixed-regime chaotic zone
IC_REGULAR = (5.0, 5.0, 5.0, 5.0)         # near the stable parallel fixed point
IC_GLOBAL2 = (45.0, 70.0, 135.0, 70.0)    # the transient-peak initial condition


@dataclass(frozen=True)
class PairedRun:
    """A quantum series, matched classical series, and their difference."""

    s: int
    l: int
    gamma: float
    ic_deg: tuple
    n_traj: int
    seed: int
    q: corr.MomentSeries
    c: corr.MomentSeries
    d: corr.DifferenceSeries
    elapsed: float


def make_paired_run(s, l, gamma, ic_deg, n_kicks, n_traj, seed) -> PairedRun:
    t0 = time.perf_counter()
    ang = np.deg2rad(ic_deg)
    c_param = gamma / np.sqrt(s * (s + 1.0))
    r = np.sqrt(l * (l + 1.0) / (s * (s + 1.0)))
    flo = qm.build_floquet(s, l, A_ROT, c_param)
    state = qm.product_state(
        s, l, qm.coherent_state(s, ang[0], ang[1]), qm.coherent_state(l, ang[2], ang[3])
    )
    q_series = qm.evolve_series(state, flo, n_kicks)
    ens = lv.build_ensemble(s, l, *ang, n_traj=n_traj, seed=seed)
    c_series = lv.ensemble_evolve(ens, cl.ClassicalParams(A_ROT, gamma, r), n_kicks)
    d = corr.difference_series(q_series, c_series)
    return PairedRun(
        s=s, l=l, gamma=gamma, ic_deg=tuple(ic_deg), n_traj=n_traj, seed=seed,
        q=q_series, c=c_series, d=d, elapsed=time.perf_counter() - t0,
    )


@pytest.fixture(scope="session")
def mixed_run_hi():
    """gamma=1.215, l=154, chaotic IC, 1e7 trajectories, 31 kicks."""
    return make_paired_run(140, 154, 1.215, IC_CHAOTIC, 31, 10_000_000, seed=101)


@pytest.fixture(scope="session")
def mixed_run_1e6():
    """gamma=1.215, l=154, chaotic IC, the criterion-scale 1e6 ensemble."""
    return make_paired_run(140, 154, 1.215, IC_CHAOTIC, 31, 1_000_000, seed=102)


@pytest.fixture(scope="session")
def global_run_ic1():
    """gamma=2.835, l=154, chaotic IC (20,40,160,130), 200 kicks, 1e6."""
    return make_paired_run(140, 154, 2.835, IC_CHAOTIC, 200, 1_000_000, seed=77)


@pytest.fixture(scope="session")
def global_run_ic2():
    """gamma=2.835, l=154, transient-peak IC (45,70,135,70), 200 kicks, 1e6."""
    return make_paired_run(140, 154, 2.835, IC_GLOBAL2, 200, 1_000_000, seed=77)


@pytest.fixture(scope="session")
def global_run_hi_ic2():
    """gamma=2.835, l=154, IC (45,70,135,70), 1e7 trajectories, short horizon."""
    return make_paired_run(140, 154, 2.835, IC_GLOBAL2, 12, 10_000_000, seed=104)


@pytest.fixture(scope="session")
def regular_run():
    """gamma=1.215, regular IC (5,5,5,5), 200 kicks, 1e6 trajectories."""
    return make_paired_run(140, 154, 1.215, IC_REGULAR, 200, 1_000_000, seed=106)


@pytest.fixture(scope="session")
def mixed_sweep():
    """gamma=1.215, chaotic IC, r~1.1, 30 kicks, 1e6, keyed by l in {11,22,44,88,220}."""
    from spinchaos.cli import choose_s_for_r

    return {
        l: make_paired_run(
            choose_s_for_r(l, 1.1), l, 1.215, IC_CHAOTIC, 30, 1_000_000, seed=300 + i
        )
        for i, l in enumerate((11, 22, 44, 88, 220))
    }


@pytest.fixture(scope="session")
def break_sweep(mixed_sweep, mixed_run_hi):
    """Break-time records at p=0.1 over l in {11,22,44,88,154,220}, gamma=1.215."""
    runs = [*mixed_sweep.values(), mixed_run_hi]
    return [corr.break_time(run.d, 0.1) for run in runs]
