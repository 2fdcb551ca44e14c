import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinchaos import classical as cl
from spinchaos import liouville as lv
from spinchaos import quantum as q

from oracles import ensemble_states, marginal_pz_classical, sample_polarized

ROOT = Path(__file__).resolve().parents[1]


def _quad_moments(sigma2):
    """Quadrature oracle for the matched density: <z>, <z^2> on the sphere."""
    import mpmath as mp

    s = mp.mpf(sigma2)
    # substitute t = 1 - z, weight e^{-t/sigma^2} on [0, 2]
    pts = [0, min(float(10 * s), 2.0), 2]
    norm = mp.quad(lambda t: mp.e ** (-t / s), pts)
    m1 = mp.quad(lambda t: t * mp.e ** (-t / s), pts)
    m2 = mp.quad(lambda t: t * t * mp.e ** (-t / s), pts)
    z1 = 1 - m1 / norm
    z2 = 1 - 2 * m1 / norm + m2 / norm
    return float(z1), float(z2)


# ---------------------------------------------------------------------------
# width parameter and G


def test_sigma2_values():
    assert abs(lv.sigma2_for(154) - 1.0 / (2 * math.sqrt(154 * 155))) < 1e-18
    assert abs(lv.sigma2_for(154) - 0.0032362) < 1e-7  # printed to 5 significant digits
    assert abs(lv.sigma2_for(0.5) - 1.0 / math.sqrt(3.0)) < 1e-15
    # leading order: 2j sigma^2 -> 1
    assert abs(2 * 1e6 * lv.sigma2_for(1e6) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        lv.sigma2_for(0.25)


def test_big_g_against_printed_formula():
    import mpmath as mp

    for s2 in (0.003236, 0.05, 0.3, 1.0 / math.sqrt(3)):
        e = mp.e ** (mp.mpf(-2) / s2)
        expected = float((1 + e) / (1 - e) - mp.mpf(s2))
        assert abs(lv.big_g(s2) - expected) < 1e-12
    assert abs(lv.big_g(0.003236) - 0.996764) < 1e-9


def test_big_g_limits_and_underflow_branch():
    assert abs(lv.big_g(1e-8) - (1.0 - 1e-8)) < 1e-15
    # below the underflow threshold the formula reduces to 1 - sigma^2 exactly
    assert lv.big_g(0.002) == 1.0 - 0.002
    assert abs(lv.big_g(0.1) - (1.0 - 0.1)) < 1e-8  # small-sigma asymptote
    with pytest.raises(ValueError):
        lv.big_g(0.0)


def test_matched_moments_against_quadrature():
    # <J_z>_c = |J| G and <J_x^2>_c = |J|^2 sigma^2 G, against direct quadrature
    for j in (2, 55, 154):
        s2 = lv.sigma2_for(j)
        mag = math.sqrt(j * (j + 1))
        z1, z2 = _quad_moments(s2)
        assert abs(mag * z1 - mag * lv.big_g(s2)) < 1e-9 * mag
        jx2 = mag**2 * 0.5 * (1.0 - z2)
        assert abs(jx2 - mag**2 * s2 * lv.big_g(s2)) < 1e-9 * mag**2


def test_initial_offset_closed_form():
    # |<J_z> - <J_z>_c| = 1/(8j) + O(j^-2) at theta = 0
    off = lv.initial_offset_jz(154)
    assert abs(off - 1.0 / (8 * 154)) < 0.10 / (8 * 154)


# ---------------------------------------------------------------------------
# sampling


def test_sample_polarized_is_on_sphere():
    rng = np.random.default_rng(1)
    vec = sample_polarized(lv.MatchedDensityParams(11, 0.7, 1.3), rng, 50_000)
    assert np.max(np.abs(np.linalg.norm(vec, axis=1) - 1.0)) < 1e-12


def test_sample_polarized_delta_limit():
    rng = np.random.default_rng(2)
    # sigma^2 = sigma2_for(1e12) = 5e-13
    params = lv.MatchedDensityParams(j=1e12, theta0=np.deg2rad(45), phi0=np.deg2rad(70))
    vec = sample_polarized(params, rng, 1000)
    target = np.array(
        [np.sin(params.theta0) * np.cos(params.phi0),
         np.sin(params.theta0) * np.sin(params.phi0),
         np.cos(params.theta0)]
    )
    assert np.max(np.linalg.norm(vec - target, axis=1)) < 1e-5


def test_sample_moments_match_closed_forms():
    j = 154
    s2 = lv.sigma2_for(j)
    mag = math.sqrt(j * (j + 1))
    rng = np.random.default_rng(3)
    vec = sample_polarized(lv.MatchedDensityParams(j), rng, 1_000_000)
    n = vec.shape[0]

    jz = mag * vec[:, 2]
    se_z = jz.std(ddof=1) / math.sqrt(n)
    assert abs(jz.mean() - mag * lv.big_g(s2)) < 4 * se_z

    jx2 = (mag * vec[:, 0]) ** 2
    se_x2 = jx2.std(ddof=1) / math.sqrt(n)
    assert abs(jx2.mean() - mag**2 * s2 * lv.big_g(s2)) < 4 * se_x2

    # axial symmetry at theta0 = 0
    for comp in (0, 1):
        m = vec[:, comp].mean()
        se = vec[:, comp].std(ddof=1) / math.sqrt(n)
        assert abs(m) < 4 * se


@pytest.mark.parametrize("j", [11, 55, 154])
def test_sampled_ratio_matches_quantum(j):
    # <J_z>_c / <J_x^2>_c = 2 = <J_z>/<J_x^2>, the width-matching condition
    mag = math.sqrt(j * (j + 1))
    rng = np.random.default_rng(100 + j)
    vec = sample_polarized(lv.MatchedDensityParams(j), rng, 1_000_000)
    n = vec.shape[0]
    jz = mag * vec[:, 2]
    jx2 = (mag * vec[:, 0]) ** 2
    ratio = jz.mean() / jx2.mean()
    se = ratio * math.sqrt(
        (jz.std(ddof=1) / math.sqrt(n) / jz.mean()) ** 2
        + (jx2.std(ddof=1) / math.sqrt(n) / jx2.mean()) ** 2
    )
    assert abs(ratio - (j / (j / 2.0))) < 4 * se


# ---------------------------------------------------------------------------
# ensembles


def _small_ensemble(n=4000, seed=7, l=22, s=20):
    ang = np.deg2rad([45.0, 70.0, 135.0, 70.0])
    return lv.build_ensemble(s, l, ang[0], ang[1], ang[2], ang[3], n_traj=n, seed=seed)


def test_ensemble_states_on_sphere_and_reproducible():
    ens = _small_ensemble()
    st = ensemble_states(ens)
    assert st.shape == (4000, 6)
    assert np.max(np.abs(np.linalg.norm(st[:, :3], axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(st[:, 3:], axis=1) - 1.0)) < 1e-12
    assert np.array_equal(st, ensemble_states(_small_ensemble()))


def test_ensemble_evolve_matches_direct_propagation(monkeypatch):
    p = cl.ClassicalParams(5.0, 1.215, 1.1)
    drawn = []  # each spin's vectors, as every tile draws them, in tile order
    real_polarized = lv._polarized

    def recording(*args):
        drawn.append(real_polarized(*args))
        return drawn[-1]

    monkeypatch.setattr(lv, "_polarized", recording)
    monkeypatch.setattr(cl, "_WORKERS", 1)  # a forked worker's draws would go unrecorded
    # 700 trajectories in one chunk, then in chunks of 250, 250 and 200; with
    # tiles of 64 some tiles end inside a chunk and some at its edge
    for chunk, tile in ((lv._CHUNK, lv._TILE), (250, lv._TILE), (250, 64)):
        monkeypatch.setattr(lv, "_CHUNK", chunk)
        monkeypatch.setattr(lv, "_TILE", tile)
        ens = _small_ensemble(n=700)
        states = ensemble_states(ens)
        drawn.clear()
        series = lv.ensemble_evolve(ens, p, 5)
        starts = [b + i for b in range(0, 700, chunk) for i in range(0, min(chunk, 700 - b), tile)]
        assert len(drawn) == 2 * len(starts)
        for start, end, s_vec, l_vec in zip(starts, starts[1:] + [700], drawn[::2], drawn[1::2]):
            tile_rows = np.hstack([s_vec, l_vec])
            assert tile_rows.tobytes() == states[start:end].tobytes(), (chunk, tile, start)
        for n in range(6):
            lmean = states[:, 3:].mean(axis=0)
            assert np.max(np.abs(series.l_tilde_mean[n] - lmean)) < 1e-13
            assert abs(series.var_norm_l[n] - (1.0 - lmean @ lmean)) < 1e-13
            if n < 5:
                states = cl.map_step(states, p)
        assert np.array_equal(series.pz_final, marginal_pz_classical(states, 22))


def test_ensemble_evolve_deterministic():
    p = cl.ClassicalParams(5.0, 2.835, 1.1)
    s1 = lv.ensemble_evolve(_small_ensemble(), p, 4)
    s2 = lv.ensemble_evolve(_small_ensemble(), p, 4)
    assert np.array_equal(s1.l_tilde_mean, s2.l_tilde_mean)
    assert np.array_equal(s1.var_norm_l_se, s2.var_norm_l_se)


def test_ensemble_evolve_independent_of_worker_count(monkeypatch):
    p = cl.ClassicalParams(5.0, 2.835, 1.1)
    monkeypatch.setattr(lv, "_TILE", 64)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(cl, "_WORKERS", workers)
        runs.append(lv.ensemble_evolve(_small_ensemble(n=1000), p, 6))
    for name in ("kicks", "s_tilde_mean", "s_tilde_se", "l_tilde_mean", "l_tilde_se",
                 "var_norm_s", "var_norm_s_se", "var_norm_l", "var_norm_l_se", "pz_final"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


_EVOLVE = """
import sys
import numpy as np
from spinchaos import classical as cl, liouville as lv
cl._WORKERS = 2
ang = np.deg2rad([45.0, 70.0, 135.0, 70.0])
ens = lv.build_ensemble(20, 22, *ang, n_traj=2 * lv._TILE, seed=7)
series = lv.ensemble_evolve(ens, cl.ClassicalParams(5.0, 2.835, 1.1), 40)
np.savez(sys.argv[1], *(getattr(series, k) for k in ("s_tilde_mean", "l_tilde_se", "var_norm_l")))
"""


def test_ensemble_evolve_independent_of_blas_threads(tmp_path):
    # Two full tiles on two forked workers, with one BLAS thread and with the
    # count unset: a threaded BLAS call in a worker would oversubscribe the
    # cores (a multi-minute stall on two cores) and move the sums' last bits
    runs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        path = tmp_path / f"{threads}.npz"
        res = subprocess.run([sys.executable, "-c", _EVOLVE, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        with np.load(path) as saved:
            runs.append([saved[k] for k in sorted(saved.files)])
    for x, y in zip(*runs):
        assert x.tobytes() == y.tobytes()


_TRACED = """
import sys
sys.path.insert(0, "perfbench")
import trace_cli
trace_cli.classical._WORKERS = int(sys.argv[1])
sys.exit(trace_cli.main(sys.argv[2:]))
"""


def _traced_spans(workers, mode, sets, outdir):
    """(layer, name, parent index, work) of every span of a traced CLI run."""
    spans_path = outdir / "spans.json"
    argv = [sys.executable, "-c", _TRACED, str(workers), str(spans_path), mode,
            "--set", f"outdir={outdir}"]
    for item in sets:
        argv += ["--set", item]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return [(s["layer"], s["name"], s["parent"], s["work"]) for s in json.loads(spans_path.read_text())]


_POOL_RUNS = {  # mode -> (overrides, a public function whose blocks run on the pool)
    "regime-scan": (["a=5", "gamma=1.215", "r=1.1", "n_samples=9", "scan_steps=20"],
                    "lyapunov_exponent"),
    "ensemble": (["a=5", "gamma=1.215", "s=10", "l=11", "theta_s=45", "phi_s=70", "theta_l=135",
                  "phi_l=70", "n_kicks=6", "n_traj=40000"], "ensemble_evolve"),
}


def test_traced_spans_independent_of_worker_count(tmp_path):
    # A span tracer wraps every public function, in the caller only: the spans
    # of a traced run must not depend on how many worker processes it forks.
    for mode, (sets, caller) in _POOL_RUNS.items():
        runs = [_traced_spans(w, mode, sets, tmp_path / f"{mode}{w}") for w in (1, 2)]
        assert runs[0] == runs[1], mode
        assert caller in {name for _, name, _, _ in runs[0]}


def test_ensemble_workers_call_no_public_function(monkeypatch, tmp_path):
    # A public call from a forked worker would escape a span tracer, which runs
    # in the caller only.  Each call appends its name and process id to a file,
    # which the workers share.  Both users of the pool run here.
    log = tmp_path / "calls.txt"

    def recording(fn, name):
        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)

        return wrapper

    for module in (cl, lv):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                monkeypatch.setattr(module, name, recording(fn, name))
    monkeypatch.setattr(lv, "_tile_sums", recording(lv._tile_sums, "block:_tile_sums"))
    monkeypatch.setattr(cl, "_lyapunov_marks", recording(cl._lyapunov_marks, "block:_lyapunov_marks"))
    monkeypatch.setattr(lv, "_TILE", 64)
    monkeypatch.setattr(cl, "_WORKERS", 2)
    p = cl.ClassicalParams(5.0, 2.835, 1.1)
    lv.ensemble_evolve(_small_ensemble(n=1000), p, 6)
    cl.regime_scan(p, n_samples=9, n_steps=20)
    calls = [line.split() for line in log.read_text().splitlines()]
    main = str(os.getpid())
    public = {(name, pid) for name, pid in calls if not name.startswith("block:")}
    assert {("ensemble_evolve", main), ("regime_scan", main), ("lyapunov_exponent", main)} <= public
    assert all(pid == main for _, pid in public), public
    blocks = {}  # the private kernel each caller runs per block -> process ids
    for name, pid in calls:
        if name.startswith("block:"):
            blocks.setdefault(name, set()).add(pid)
    assert sorted(blocks) == ["block:_lyapunov_marks", "block:_tile_sums"]
    assert all(len(pids) == 2 and main in pids for pids in blocks.values()), blocks


def test_ensemble_evolve_decoupled_keeps_lz():
    ens = _small_ensemble(n=2000)
    p = cl.ClassicalParams(1.3, 0.0, 1.1)
    series = lv.ensemble_evolve(ens, p, 10)
    drift = np.max(np.abs(series.l_tilde_mean[:, 2] - series.l_tilde_mean[0, 2]))
    assert drift < 1e-12


def test_global_chaos_relaxes_to_microcanonical():
    # l=22 scale: t_sat ~ ln(22)/(2*0.45) ~ 3.4, so n=34 is past 5 t_sat
    ens = _small_ensemble(n=100_000, seed=17)
    series = lv.ensemble_evolve(ens, cl.ClassicalParams(5.0, 2.835, 1.1), 34)
    lz = series.l_tilde_mean[-1, 2]
    assert abs(lz) < 5 * series.l_tilde_se[-1, 2]
    assert abs(series.var_norm_l[-1] - 1.0) < 5 * max(series.var_norm_l_se[-1], 3.0 / 100_000)
    assert np.all(series.var_norm_l <= 1.0 + 3 * series.var_norm_l_se + 1e-12)


# ---------------------------------------------------------------------------
# classical marginal distribution


def test_marginal_concentrated_at_pole():
    states = np.tile([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], (100, 1))
    p = marginal_pz_classical(states, l=9)
    assert p[0] == 1.0  # descending order: first bin is m_l = +l (clamped sliver)
    assert abs(p.sum() - 1.0) < 1e-15


def test_marginal_initial_matches_quantum():
    l = 154
    ens = lv.build_ensemble(
        140, l, *np.deg2rad([45.0, 70.0, 135.0, 70.0]), n_traj=400_000, seed=5
    )
    pc = marginal_pz_classical(ensemble_states(ens), l)
    pq = q.marginal_pz(
        q.product_state(
            140,
            l,
            q.coherent_state(140, np.deg2rad(45), np.deg2rad(70)),
            q.coherent_state(l, np.deg2rad(135), np.deg2rad(70)),
        )
    )
    assert abs(pc.sum() - 1.0) < 1e-12
    tv = 0.5 * np.sum(np.abs(pc - pq))
    assert tv < 0.02, f"total variation {tv}"


def test_marginal_relaxes_near_uniform():
    l, n = 22, 100_000
    ens = _small_ensemble(n=n)
    p = lv.ensemble_evolve(ens, cl.ClassicalParams(5.0, 2.835, 1.1), 15).pz_final
    u = 1.0 / (2 * l + 1)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.max(np.abs(p - u)) < 0.2 * u


def test_marginal_clamps_sliver_beyond_l():
    # equilibrium states put |L_z| in (l, sqrt(l(l+1))] with small probability
    l = 22
    ens = _small_ensemble(n=50_000, seed=23)
    states = ensemble_states(ens)
    for _ in range(20):
        states = cl.map_step(states, cl.ClassicalParams(5.0, 2.835, 1.1))
    lz = math.sqrt(l * (l + 1)) * states[:, 5]
    assert np.any(np.abs(lz) > l), "expected some mass in the clamped sliver"
    p = marginal_pz_classical(states, l)
    assert abs(p.sum() - 1.0) < 1e-15
    assert p.shape == (2 * l + 1,)


# ---------------------------------------------------------------------------
# sphere-moment obstruction


def test_appendix_closed_forms():
    mom = lv.appendix_moments(10)
    assert mom.qm_jx2 == 5.0
    assert mom.cl_jx2 == 5.0
    assert mom.qm_jx4 == 72.5
    assert mom.cl_jx4 == 37.5
    assert mom.delta_jx4 == 35.0


def test_quantum_jx4_against_dense_operator():
    from oracles import jx_matrix

    for twoj in range(1, 11):
        j = twoj / 2.0
        jx = jx_matrix(j)
        val = np.linalg.matrix_power(jx, 4)[0, 0]  # <j,j| J_x^4 |j,j>
        assert abs(val - (3 * j * j / 4.0 - j / 4.0)) < 1e-10
        assert abs((jx @ jx)[0, 0] - j / 2.0) < 1e-12


def test_vector_model_mc_matches_closed_forms():
    j = 10
    mc = lv.vector_model_mc(j, 1_000_000, seed=99)
    mom = lv.appendix_moments(j)
    assert abs(mc.jx2 - mom.cl_jx2) < 4 * mc.jx2_se
    assert abs(mc.jx4 - mom.cl_jx4) < 4 * mc.jx4_se
