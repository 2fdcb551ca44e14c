import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from spinchaos import classical as cl

from oracles import (
    complex_step_jacobian,
    fd_jacobian,
    map_step_longdouble,
    map_step_rotation_compose,
)

MIXED = cl.ClassicalParams(a=5.0, gamma=1.215, r=1.1)
GLOBAL = cl.ClassicalParams(a=5.0, gamma=2.835, r=1.1)
CHAOTIC_IC = cl.angles_to_state(*np.deg2rad([20.0, 40.0, 160.0, 130.0]))


def random_states(n, rng):
    v = rng.normal(size=(n, 6))
    v[:, :3] /= np.linalg.norm(v[:, :3], axis=1, keepdims=True)
    v[:, 3:] /= np.linalg.norm(v[:, 3:], axis=1, keepdims=True)
    return v


def tangent_matrix(x, p):
    """The 6x6 Jacobian at x (batched), one column per unit displacement."""
    return np.swapaxes(cl.tangent_apply(x[..., None, :], np.eye(6), p), -1, -2)


def random_params(rng):
    return cl.ClassicalParams(
        a=rng.uniform(0.1, 2 * np.pi - 0.1),
        gamma=rng.uniform(-3.0, 3.0),
        r=rng.uniform(1.0, 4.0),
    )


# ---------------------------------------------------------------------------
# the map itself


def test_map_step_decoupled_limit_is_z_rotation():
    p = cl.ClassicalParams(a=0.9, gamma=0.0, r=1.3)
    x = cl.angles_to_state(0.6, 0.3, 1.9, 4.0)
    out = cl.map_step(x, p)
    ca, sa = np.cos(0.9), np.sin(0.9)
    expected = np.array(
        [
            x[0] * ca - x[1] * sa,
            x[1] * ca + x[0] * sa,
            x[2],
            x[3] * ca - x[4] * sa,
            x[4] * ca + x[3] * sa,
            x[5],
        ]
    )
    assert np.max(np.abs(out - expected)) < 1e-14


def test_parallel_pole_is_fixed_point():
    pole = cl.fixed_point_state(cl.PARALLEL)
    for p in (MIXED, cl.ClassicalParams(2.0, 2.835, 2.5), cl.ClassicalParams(0.3, -1.7, 1.0)):
        assert np.max(np.abs(cl.map_step(pole, p) - pole)) < 1e-15


def test_antiparallel_pole_is_fixed_point():
    pole = cl.fixed_point_state(cl.ANTIPARALLEL)
    assert np.max(np.abs(cl.map_step(pole, MIXED) - pole)) < 1e-15


def test_map_step_matches_extended_precision_oracle():
    out = cl.map_step(CHAOTIC_IC, MIXED, renormalize=False)
    oracle = map_step_longdouble(CHAOTIC_IC, 5.0, 1.215, 1.1)
    assert np.max(np.abs(out - oracle)) < 1e-14
    compose = map_step_rotation_compose(CHAOTIC_IC, 5.0, 1.215, 1.1)
    assert np.max(np.abs(out - compose)) < 1e-14


def test_map_step_batched_matches_single():
    rng = np.random.default_rng(5)
    xs = random_states(40, rng)
    batch = cl.map_step(xs, MIXED)
    for i in range(40):
        assert np.array_equal(batch[i], cl.map_step(xs[i], MIXED))


def test_norms_preserved_over_1e5_steps():
    x = CHAOTIC_IC.copy()
    for _ in range(1000):
        x = cl.map_step(x, MIXED)
    # vectorized long run: 1e5 steps on a small batch
    xs = np.stack([CHAOTIC_IC, cl.angles_to_state(*np.deg2rad([5.0, 5.0, 5.0, 5.0]))])
    for _ in range(100_000):
        xs = cl.map_step(xs, MIXED)
    assert np.max(np.abs(np.linalg.norm(xs[:, :3], axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(xs[:, 3:], axis=1) - 1.0)) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        cl.ClassicalParams(a=-0.1, gamma=1.0, r=1.1)
    with pytest.raises(ValueError):
        cl.ClassicalParams(a=7.0, gamma=1.0, r=1.1)
    with pytest.raises(ValueError):
        cl.ClassicalParams(a=1.0, gamma=1.0, r=0.5)


# ---------------------------------------------------------------------------
# coordinate charts


def test_angles_to_state_axis_cases():
    assert np.allclose(cl.angles_to_state(0, 0, 0, 0), [0, 0, 1, 0, 0, 1], atol=1e-15)
    x = cl.angles_to_state(np.pi / 2, 0.0, np.pi / 2, np.pi / 2)
    assert np.max(np.abs(x - [1, 0, 0, 0, 1, 0])) < 1e-15


def test_canonical_round_trip():
    ang = np.deg2rad([27.0, 27.0, 27.0, 27.0])
    x = cl.angles_to_state(*ang)
    canon, pole = cl.state_to_canonical(x)
    assert not pole.any()
    assert np.max(np.abs(cl.canonical_to_state(canon) - x)) < 1e-12

    rng = np.random.default_rng(2)
    xs = random_states(50, rng)
    canon, _ = cl.state_to_canonical(xs)
    assert np.max(np.abs(cl.canonical_to_state(canon) - xs)) < 1e-12
    assert np.all(canon[:, [1, 3]] >= 0.0) and np.all(canon[:, [1, 3]] < 2 * np.pi)


def test_pole_flag():
    canon, pole = cl.state_to_canonical(np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0]))
    assert pole.all()
    assert canon[1] == 0.0 and canon[3] == 0.0


# ---------------------------------------------------------------------------
# tangent map


def test_tangent_decoupled_eigenvalues():
    p = cl.ClassicalParams(a=1.1, gamma=0.0, r=1.5)
    m = tangent_matrix(cl.angles_to_state(0.7, 0.2, 2.0, 1.0), p)
    eig = np.sort_complex(np.linalg.eigvals(m))
    expected = np.sort_complex(
        np.array([np.exp(1j * 1.1), np.exp(-1j * 1.1)] * 2 + [1.0, 1.0])
    )
    assert np.max(np.abs(eig - expected)) < 1e-10


def test_tangent_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = random_states(1, rng)[0]
        p = random_params(rng)
        m = tangent_matrix(x, p)
        fd = fd_jacobian(lambda y: cl.map_step(y, p, renormalize=False), x)
        assert np.max(np.abs(m - fd)) < 1e-5


def test_tangent_apply_consistent_with_matrix():
    rng = np.random.default_rng(23)
    x = random_states(30, rng)
    v = rng.normal(size=(30, 6))
    m = complex_step_jacobian(x, MIXED.a, MIXED.gamma, MIXED.r)
    direct = cl.tangent_apply(x, v, MIXED)
    via_matrix = np.einsum("bij,bj->bi", m, v)
    assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_canonical_chart_preserves_measure():
    # |det dF/dx| = 1 in the canonical chart (area preservation)
    rng = np.random.default_rng(31)
    count = 0
    while count < 100:
        x = random_states(1, rng)[0]
        canon, _ = cl.state_to_canonical(x)
        # stay away from poles where the chart is singular
        if max(abs(canon[0]), abs(canon[2])) > 0.9:
            continue
        p = random_params(rng)
        jac = fd_jacobian(
            lambda c: cl.state_to_canonical(cl.map_step(cl.canonical_to_state(c), p))[0],
            canon,
            wrap_cols=(1, 3),
        )
        det = np.linalg.det(jac)
        assert abs(abs(det) - 1.0) < 1e-8, f"det={det} at {canon}, {p}"
        count += 1


def test_tangent_at_fixed_point_matches_quartic_roots():
    for kind in (cl.PARALLEL, cl.ANTIPARALLEL):
        m = tangent_matrix(cl.fixed_point_state(kind), MIXED)
        eig = np.linalg.eigvals(m)
        # discard the two trivial unit eigenvalues along the sphere normals
        quartic = cl.fixed_point_eigenvalues(MIXED, kind)
        for xi in quartic:
            assert np.min(np.abs(eig - xi)) < 1e-8


# ---------------------------------------------------------------------------
# fixed-point stability


def test_eigenvalues_satisfy_characteristic_equation():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = random_params(rng)
        for kind in (cl.PARALLEL, cl.ANTIPARALLEL):
            for xi in cl.fixed_point_eigenvalues(p, kind):
                assert abs(cl.characteristic_poly(xi, p, kind)) < 1e-10


def test_parallel_stability_cases():
    stable = cl.fixed_point_eigenvalues(cl.ClassicalParams(5.0, 1.0, 1.1), cl.PARALLEL)
    assert np.max(np.abs(np.abs(stable) - 1.0)) < 1e-10
    unstable = cl.fixed_point_eigenvalues(cl.ClassicalParams(5.0, 1.5, 1.1), cl.PARALLEL)
    assert np.max(np.abs(unstable)) > 1.0 + 1e-6


def test_antiparallel_unstable_for_any_positive_gamma():
    for gamma in (0.01, 0.1, 0.5, 1.215, 2.835):
        xi = cl.fixed_point_eigenvalues(cl.ClassicalParams(5.0, gamma, 1.1), cl.ANTIPARALLEL)
        assert np.max(np.abs(xi)) > 1.0 + 1e-9


def test_parallel_instability_onset_bracket():
    onset = cl.parallel_instability_onset(a=5.0, r=1.1)
    assert 1.40 <= onset <= 1.44


# ---------------------------------------------------------------------------
# Lyapunov machinery (reference-value reproduction lives in the acceptance suite)


def test_lyapunov_deterministic_replay():
    lam1 = cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 2000)
    lam2 = cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 2000)
    assert lam1 == lam2


def test_lyapunov_renorm_interval_equivalent():
    lam1 = cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 3000, renorm_every=1)
    lam2 = cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 3000, renorm_every=7)
    assert abs(lam1 - lam2) < 1e-9


CHECKPOINTS = [1, 5, 700, 1000, 1003]


def test_lyapunov_batch_matches_single():
    # one state steps on Python floats through math, a batch on arrays through
    # numpy: the same bits, final values and checkpoints (with a partial stretch),
    # where numpy's float64 cos, sin and sqrt call libm
    near_pole = cl.angles_to_state(*np.deg2rad([5.0, 5.0, 5.0, 5.0]))
    xs = np.vstack([CHAOTIC_IC, near_pole, random_states(12, np.random.default_rng(8))])
    for p in (MIXED, GLOBAL):
        for re in (1, 7):
            lams = cl.lyapunov_exponent(xs, p, 1003, re)
            running = cl.lyapunov_exponent(xs, p, 1003, re, checkpoints=CHECKPOINTS)
            for i, x in enumerate(xs):
                assert lams[i] == cl.lyapunov_exponent(x, p, 1003, re)
                assert np.array_equal(
                    running[:, i], cl.lyapunov_exponent(x, p, 1003, re, checkpoints=CHECKPOINTS)
                )


def test_lyapunov_degenerate_state_raises_floating_point_error():
    # math raises on 0/0 and cos(inf) where numpy gives nan: both paths report it alike
    for x in (np.zeros(6), np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 1.0])):
        for x0 in (x, x[None]):
            with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
                cl.lyapunov_exponent(x0, MIXED, 10)


def test_lyapunov_input_validation():
    with pytest.raises(ValueError):
        cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 0)
    with pytest.raises(ValueError):
        cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 10, renorm_every=0)


@pytest.mark.parametrize("renorm_every", [1, 7])
def test_lyapunov_checkpoints_equal_fresh_calls(renorm_every):
    running = cl.lyapunov_exponent(
        CHAOTIC_IC, MIXED, 1003, renorm_every=renorm_every, checkpoints=CHECKPOINTS
    )
    assert running.shape == (len(CHECKPOINTS),)
    for lam, k in zip(running, CHECKPOINTS):
        assert lam == cl.lyapunov_exponent(CHAOTIC_IC, MIXED, k, renorm_every=renorm_every)


def test_lyapunov_checkpoints_batched():
    xs = np.stack([CHAOTIC_IC, cl.angles_to_state(*np.deg2rad([5.0, 5.0, 5.0, 5.0]))])
    running = cl.lyapunov_exponent(xs, MIXED, 1003, renorm_every=7, checkpoints=CHECKPOINTS)
    assert running.shape == (len(CHECKPOINTS), 2)
    for lams, k in zip(running, CHECKPOINTS):
        assert np.array_equal(lams, cl.lyapunov_exponent(xs, MIXED, k, renorm_every=7))


@pytest.mark.parametrize("checkpoints", [[], [5, 5], [700, 5], [0, 5], [5, 1004]])
def test_lyapunov_checkpoints_validation(checkpoints):
    with pytest.raises(ValueError, match="checkpoints"):
        cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 1003, checkpoints=checkpoints)


def test_lyapunov_single_state_equals_batch_of_one():
    # the scalar path for one state runs the kernels of the batched path
    for re in (1, 7):
        assert cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 1003, renorm_every=re) == (
            cl.lyapunov_exponent(CHAOTIC_IC[None], MIXED, 1003, renorm_every=re)[0]
        )
        assert np.array_equal(
            cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 1003, re, checkpoints=CHECKPOINTS),
            cl.lyapunov_exponent(CHAOTIC_IC[None], MIXED, 1003, re, checkpoints=CHECKPOINTS)[:, 0],
        )


@pytest.mark.parametrize("checkpoints", [None, CHECKPOINTS], ids=["final", "checkpoints"])
def test_lyapunov_batch_independent_of_worker_count(monkeypatch, checkpoints):
    xs = random_states(7, np.random.default_rng(3))  # odd: the two blocks differ in size
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(cl, "_WORKERS", workers)
        runs.append(cl.lyapunov_exponent(xs, MIXED, 1003, checkpoints=checkpoints))
    assert runs[0].shape == ((7,) if checkpoints is None else (len(CHECKPOINTS), 7))
    assert np.array_equal(runs[0], runs[1])


def test_regime_scan_independent_of_worker_count(monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(cl, "_WORKERS", workers)
        runs.append(cl.regime_scan(MIXED, n_samples=101, n_steps=500, seed=4))
    assert np.array_equal(runs[0].lambdas, runs[1].lambdas)
    assert np.array_equal(runs[0].points, runs[1].points)


def test_lyapunov_forks_only_for_two_or_more_blocks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cl, "_WORKERS", 2)
    cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 50)
    cl.lyapunov_exponent(CHAOTIC_IC, MIXED, 50, checkpoints=[10, 50])
    cl.lyapunov_exponent(CHAOTIC_IC[None], MIXED, 50)
    cl.regime_scan(MIXED, n_samples=1, n_steps=50)
    assert forks == []
    cl.lyapunov_exponent(np.stack([CHAOTIC_IC, CHAOTIC_IC]), MIXED, 50)
    assert len(forks) == 1


def _fail_in(raising, wait_s):
    """A block function that raises in block ``raising`` and sleeps ``wait_s`` in the others."""
    def fn(b):
        if b == raising:
            raise ValueError(f"block {b} failed")
        time.sleep(wait_s)
        return b

    return fn


@pytest.mark.parametrize("raising", [1, 0], ids=["child", "caller"])
def test_pool_exception_reaches_caller_and_leaves_no_child(monkeypatch, raising):
    # block 1 runs in the forked child, block 0 in the caller; a caller that
    # fails first kills the child, which would otherwise sleep for 30 s
    monkeypatch.setattr(cl, "_WORKERS", 2)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=f"^block {raising} failed$"):
        cl._in_order(_fail_in(raising, 0.2 if raising else 30.0), [0, 1])
    assert time.monotonic() - t0 < 10.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _HoldsLock(Exception):
    """An exception that pickle cannot take: it holds a lock."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _unpicklable_in_child(b):
    if b == 1:
        raise _HoldsLock()
    return b


def _killed_in_child(b):
    if b == 1:
        time.sleep(0.1)
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(30.0)
    return b


@pytest.mark.parametrize(
    "fn, how", [(_unpicklable_in_child, "exit status 1"), (_killed_in_child, "signal SIGKILL")],
    ids=["unpicklable-exception", "sigkill"],
)
def test_pool_names_a_worker_that_gives_no_result(monkeypatch, fn, how):
    # block 1 runs in the forked child, which ends without writing a whole result
    monkeypatch.setattr(cl, "_WORKERS", 2)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        cl._in_order(fn, [0, 1])
    assert time.monotonic() - t0 < 10.0
    named = re.fullmatch(rf"pool worker 1 \(pid (\d+)\) gave no result: {how}", str(info.value))
    assert named and int(named[1]) != os.getpid(), str(info.value)
    assert isinstance(info.value.__cause__, EOFError)
    with pytest.raises(ChildProcessError):  # reaped once, none left
        os.waitpid(-1, os.WNOHANG)


def test_pool_results_in_block_order(monkeypatch):
    monkeypatch.setattr(cl, "_WORKERS", 2)
    blocks = [np.full(3, k) for k in range(5)]
    out = cl._in_order(lambda b: (b * 2, os.getpid()), blocks)
    assert [list(v) for v, _ in out] == [[2 * k] * 3 for k in range(5)]
    assert [pid for _, pid in out] == [os.getpid(), out[1][1]] * 2 + [os.getpid()]
    assert out[1][1] != os.getpid()


_ORPHAN = """
import os, sys, time
from spinchaos import classical as cl

def fn(b):
    if b:
        with open(sys.argv[1] + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.rename(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(30)

cl._WORKERS = 2
cl._in_order(fn, [0, 1])
"""


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_pool_child_dies_with_a_killed_caller(tmp_path):
    pid_file = tmp_path / "child.pid"
    caller = subprocess.Popen([sys.executable, "-c", _ORPHAN, str(pid_file)])
    try:
        deadline = time.monotonic() + 30.0
        while not pid_file.exists():
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert not _gone_or_zombie(child)
    finally:
        caller.kill()
        caller.wait()
    deadline = time.monotonic() + 5.0
    while not _gone_or_zombie(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone_or_zombie(child)


def test_regime_scan_integrable_limit():
    p = cl.ClassicalParams(a=1.3, gamma=0.0, r=1.2)
    res = cl.regime_scan(p, n_samples=200, n_steps=2000, seed=9)
    assert res.chaotic_fraction == 0.0


def test_regime_scan_reproducible():
    res1 = cl.regime_scan(MIXED, n_samples=100, n_steps=500, seed=4)
    res2 = cl.regime_scan(MIXED, n_samples=100, n_steps=500, seed=4)
    assert np.array_equal(res1.lambdas, res2.lambdas)
    assert np.array_equal(res1.points, res2.points)


def test_regime_scan_mixed_regime_has_both_kinds():
    res = cl.regime_scan(MIXED, n_samples=300, n_steps=3000, seed=12)
    assert 0.0 < res.chaotic_fraction < 1.0
