"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy ensemble
fixtures (seeded, deterministic) are shared with the slow property tests via
conftest; total runtime is several minutes on a desktop machine.
"""

import math
import time

import numpy as np
import pytest

from spinchaos import classical as cl
from spinchaos import cli
from spinchaos import correspondence as corr
from spinchaos import liouville as lv
from spinchaos import quantum as qm

from conftest import A_ROT, IC_CHAOTIC, IC_REGULAR, make_paired_run
from oracles import jx_matrix, jz_matrix, ladder_plus, sample_polarized, wigner_d_formula


def report(num: int, name: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {name}: {detail}"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_kinematics():
    t0 = time.perf_counter()
    checks = {}

    # unitarity of single kicks at random parameters, and 200-kick norm stability
    rng = np.random.default_rng(8)
    drifts = []
    for _ in range(5):
        s = float(rng.choice([1.5, 4.0, 9.0]))
        l = float(rng.choice([2.0, 5.5, 12.0]))
        f = qm.build_floquet(s, l, rng.uniform(0, 2 * np.pi), rng.uniform(-4, 4))
        shape = (qm.dim_of(s), qm.dim_of(l))
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)  # x-frame amplitudes
        z /= np.linalg.norm(z)
        qm._frame_kick(z, f, np.empty_like(z))  # in place
        drifts.append(abs(np.linalg.norm(z) - 1.0))
    checks["unitarity 1e-12"] = max(drifts) < 1e-12

    f = qm.build_floquet(140, 154, A_ROT, 2.835 / math.sqrt(140 * 141))
    state = qm.product_state(
        140, 154, qm.coherent_state(140, 0.3, 0.1), qm.coherent_state(154, 2.0, 1.2)
    )
    evolved = qm.evolve_series(state, f, 200).final
    checks["norm 200 kicks 1e-12"] = abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-12
    obs0, obs1 = qm.observables(state), qm.observables(evolved)
    checks["Casimir conserved 1e-12"] = (
        abs(obs1.l2 - obs0.l2) < 1e-12 * obs0.l2 and abs(obs1.s2 - obs0.s2) < 1e-12 * obs0.s2
    )

    worst_orth = max(
        np.max(np.abs(qm.wigner_d(j, th) @ qm.wigner_d(j, th).T - np.eye(qm.dim_of(j))))
        for j in (2, 55, 154, 220)
        for th in (0.3, np.pi / 2, 2.8)
    )
    checks["d-matrix orthogonality 1e-10 (j<=220)"] = worst_orth < 1e-10

    worst_formula = max(
        np.max(np.abs(qm.wigner_d(j, th) - wigner_d_formula(j, th)))
        for j in (2.5, 10, 17.5, 25)
        for th in (0.1, np.pi / 2, 2.9)
    )
    checks["d-matrix vs formula 1e-10 (j<=25)"] = worst_formula < 1e-10

    coh_ok = True
    for j in (10, 55.5, 154):
        for theta, phi in ((0.0, 0.0), (np.deg2rad(45), np.deg2rad(70))):
            vec = qm.coherent_state(j, theta, phi)
            jz = np.vdot(vec, jz_matrix(j) @ vec).real
            jp = np.vdot(vec, ladder_plus(j) @ vec)
            var_norm = (j * (j + 1) - jz**2 - abs(jp) ** 2) / (j * (j + 1))
            coh_ok &= abs(jz - j * np.cos(theta)) < 1e-10
            coh_ok &= abs(jp - j * np.sin(theta) * np.exp(1j * phi)) < 1e-10
            coh_ok &= abs(var_norm - 1.0 / (j + 1)) < 1e-10
        polar = qm.coherent_state(j, 0.0, 0.0)
        coh_ok &= abs(np.linalg.norm(jx_matrix(j) @ polar) ** 2 - j / 2.0) < 1e-10
    checks["coherent identities 1e-10"] = bool(coh_ok)

    elapsed = time.perf_counter() - t0
    checks["runtime < 60 s"] = elapsed < 60.0
    report(
        1,
        "kinematics suite",
        all(checks.values()),
        f"{'; '.join(k for k, v in checks.items() if not v) or 'all sub-checks'} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_2_appendix_moment_theorem():
    t0 = time.perf_counter()
    checks = {}

    oracle_ok = True
    for twoj in range(1, 11):
        j = twoj / 2.0
        jx4 = np.linalg.matrix_power(jx_matrix(j), 4)[0, 0]
        oracle_ok &= abs(jx4 - (3 * j * j / 4 - j / 4)) < 1e-10
    checks["quantum <Jx^4> oracle j<=5"] = bool(oracle_ok)

    j = 10
    mom = lv.appendix_moments(j)
    mc = lv.vector_model_mc(j, 1_000_000, seed=99)
    checks["vector-model MC <Jx^4> within 4 SE"] = abs(mc.jx4 - mom.cl_jx4) < 4 * mc.jx4_se
    checks["vector-model MC <Jx^2> within 4 SE"] = abs(mc.jx2 - mom.cl_jx2) < 4 * mc.jx2_se
    checks["mismatch delta = |3j^2/8 - j/4|"] = (
        mom.delta_jx4 == abs(3 * j * j / 8 - j / 4) == 35.0
    )
    elapsed = time.perf_counter() - t0
    checks["runtime < 60 s"] = elapsed < 60.0
    report(
        2,
        "sphere-moment obstruction",
        all(checks.values()),
        f"{'; '.join(k for k, v in checks.items() if not v) or 'all sub-checks'} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_3_lyapunov_reproduction():
    t0 = time.perf_counter()
    mixed = cl.ClassicalParams(A_ROT, 1.215, 1.1)
    glob = cl.ClassicalParams(A_ROT, 2.835, 1.1)
    lam_chaotic = cl.lyapunov_exponent(
        cl.angles_to_state(*np.deg2rad(IC_CHAOTIC)), mixed, 100_000
    )
    lam_regular = cl.lyapunov_exponent(
        cl.angles_to_state(*np.deg2rad(IC_REGULAR)), mixed, 100_000
    )
    lam_global = cl.lyapunov_exponent(
        cl.angles_to_state(*np.deg2rad(IC_CHAOTIC)), glob, 100_000
    )
    scan = cl.regime_scan(glob, n_samples=30_000, n_steps=10_000, seed=1)
    checks = {
        "lambda(chaotic)=0.04+-0.01": abs(lam_chaotic - 0.04) <= 0.01,
        "lambda(regular)=0+-0.005": abs(lam_regular) <= 0.005,
        "lambda(global)=0.45+-0.05": abs(lam_global - 0.45) <= 0.05,
        "chaotic fraction >= 0.999": scan.chaotic_fraction >= 0.999,
    }
    report(
        3,
        "Lyapunov reproduction",
        all(checks.values()),
        f"lam_c={lam_chaotic:.4f} lam_r={lam_regular:.5f} lam_g={lam_global:.4f} "
        f"fraction={scan.chaotic_fraction:.5f} ({time.perf_counter()-t0:.0f} s)",
    )


def test_criterion_4_fixed_point_stability_boundary():
    t0 = time.perf_counter()
    onset = cl.parallel_instability_onset(a=A_ROT, r=1.1)
    anti_ok = all(
        np.max(np.abs(cl.fixed_point_eigenvalues(cl.ClassicalParams(A_ROT, g, 1.1), cl.ANTIPARALLEL)))
        > 1.0 + 1e-9
        for g in (0.01, 0.1, 0.5, 1.215, 2.835)
    )
    elapsed = time.perf_counter() - t0
    checks = {
        "onset in [1.40, 1.44]": 1.40 <= onset <= 1.44,
        "antiparallel unstable for gamma > 0": anti_ok,
        "runtime < 1 s": elapsed < 1.0,
    }
    report(
        4,
        "fixed-point stability boundary",
        all(checks.values()),
        f"onset={onset:.4f} ({elapsed:.3f} s)",
    )


def test_criterion_5_variance_growth(
    mixed_run_1e6, global_run_ic1, global_run_ic2, mixed_sweep
):
    t0 = time.perf_counter()
    checks = {}

    # (a) mixed-regime chaotic IC: lambda_w = 0.13 +- 0.03, quantum and classical fits
    wq = corr.variance_growth_fit(mixed_run_1e6.q.var_norm_l, 154)
    wc = corr.variance_growth_fit(mixed_run_1e6.c.var_norm_l, 154)
    checks["mixed lambda_w(q) in 0.13+-0.03"] = abs(wq.lam - 0.13) <= 0.03
    checks["mixed lambda_w(c) in 0.13+-0.03"] = abs(wc.lam - 0.13) <= 0.03

    # (b) global chaos: single-IC rates scatter widely around lambda_L, so the
    # regime's growth rate is estimated as the mean over canonically sampled
    # coherent-state centers (quantum side, deterministic)
    rng = np.random.default_rng(77)
    lams = []
    flo = qm.build_floquet(140, 154, A_ROT, 2.835 / math.sqrt(140 * 141))
    for _ in range(32):
        sz, lz = rng.uniform(-1, 1, 2)
        ps, pl = rng.uniform(0, 2 * np.pi, 2)
        state = qm.product_state(
            140, 154,
            qm.coherent_state(140, np.arccos(sz), ps),
            qm.coherent_state(154, np.arccos(lz), pl),
        )
        v = qm.evolve_series(state, flo, 14).var_norm_l
        sat = np.flatnonzero(v >= 0.5)
        sat = int(sat[0]) if sat.size else v.size
        if sat - 1 >= 2:
            lams.append(corr.variance_growth_fit(v, 154, window=(1, sat - 1)).lam)
    lam_mean = float(np.mean(lams))
    checks["global mean lambda_w within 20% of 0.45"] = abs(lam_mean - 0.45) <= 0.2 * 0.45

    # (c) quantum-classical variance correspondence at the hbar scale.  The
    # relative gap (q - c)/q is a systematic O(1/l) effect, so at 1e6
    # trajectories it exceeds 3 Monte Carlo SE by a factor growing as
    # sqrt(N)/l; the check is that the gap vanishes with hbar = 1/l, while the
    # per-kick 3-SE violation pattern is reported as a diagnostic.
    def pre_saturation_end(run):
        """Last kick before the quantum variance first reaches 0.5."""
        sat = np.flatnonzero(run.q.var_norm_l >= 0.5)
        return (int(sat[0]) if sat.size else run.q.var_norm_l.size) - 1

    def rel_gap_rms(run, n_hi):
        """RMS of (q - c)/q over kicks 0..n_hi of the normalized L variance."""
        q, c = run.q.var_norm_l[: n_hi + 1], run.c.var_norm_l[: n_hi + 1]
        return float(np.sqrt(np.mean(((q - c) / q) ** 2)))

    def violations(run):
        n_hi = pre_saturation_end(run)
        gap = np.abs(run.q.var_norm_l - run.c.var_norm_l)[: n_hi + 1]
        ratio = gap / np.maximum(3 * run.c.var_norm_l_se[: n_hi + 1], 1e-300)
        return f"@{np.flatnonzero(ratio > 1).tolist()} (worst {ratio.max():.1f}x)"

    # mixed regime: R(l) ~ l^-1 over kicks 0..14, before saturation at every l
    mixed = {
        44: mixed_sweep[44], 88: mixed_sweep[88], 154: mixed_run_1e6, 220: mixed_sweep[220]
    }
    n_mixed = 14
    checks["mixed window kicks 0..14 before saturation"] = all(
        pre_saturation_end(run) >= n_mixed for run in mixed.values()
    )
    r_mixed = {l: rel_gap_rms(run, n_mixed) for l, run in mixed.items()}
    exponent = float(np.polyfit(np.log(list(r_mixed)), np.log(list(r_mixed.values())), 1)[0])
    checks["mixed gap exponent d ln R / d ln l in [-1.25, -0.75]"] = -1.25 <= exponent <= -0.75

    # global regime: each named l=154 run against an l=44 companion with the
    # same gamma, IC, seed and N, over their common window before saturation
    r_global = {}
    for name, run in (("g1", global_run_ic1), ("g2", global_run_ic2)):
        small = make_paired_run(40, 44, run.gamma, run.ic_deg, 12, run.n_traj, run.seed)
        n_hi = min(pre_saturation_end(run), pre_saturation_end(small))
        r_global[name] = (rel_gap_rms(small, n_hi), rel_gap_rms(run, n_hi), n_hi)
        checks[f"global {name} R(154) < R(44)"] = r_global[name][1] < r_global[name][0]

    detail = (
        f"lambda_w(q)={wq.lam:.4f} lambda_w(c)={wc.lam:.4f}; global mean over "
        f"{len(lams)} ICs = {lam_mean:.4f}; mixed R(l) "
        + " ".join(f"{l}:{r:.3g}" for l, r in r_mixed.items())
        + f" exponent={exponent:.3f}; "
        + "; ".join(
            f"{k} R(44)/R(154)={r44:.3g}/{r154:.3g} (kicks 0..{n})"
            for k, (r44, r154, n) in r_global.items()
        )
        + f"; 3SE violations mixed{violations(mixed_run_1e6)}, "
        f"g1{violations(global_run_ic1)}, g2{violations(global_run_ic2)}; "
        f"see README.md, Tests ({time.perf_counter()-t0:.0f} s)"
    )
    report(5, "variance growth", all(checks.values()), detail)


def test_criterion_6_correspondence_exponents(mixed_run_hi, global_run_hi_ic2, break_sweep):
    t0 = time.perf_counter()
    fit_mixed = corr.fit_growth_exponent(mixed_run_hi.d)
    # the gamma=2.835 direct fit uses IC (45,70,135,70), the initial condition
    # the break-time analysis at this coupling is built on
    fit_global = corr.fit_growth_exponent(global_run_hi_ic2.d)
    bt = corr.break_time(mixed_run_hi.d, 0.1)
    lam_scaling = corr.fit_break_scaling(break_sweep)
    checks = {
        "lambda_qc(1.215)=0.43+-0.10": abs(fit_mixed.lam - 0.43) <= 0.10,
        "lambda_qc(2.835)=1.1+-0.25": abs(fit_global.lam - 1.1) <= 0.25,
        "t_b(p=0.1,l=154)=11+-1": bt.reached and abs(bt.t_b - 11) <= 1,
        "break-scaling lambda_qc=0.43+-0.08": abs(lam_scaling - 0.43) <= 0.08,
    }
    tbs = {r.l: r.t_b for r in break_sweep}
    report(
        6,
        "correspondence exponents",
        all(checks.values()),
        f"direct mixed={fit_mixed.lam:.4f} (win {fit_mixed.window}), "
        f"global={fit_global.lam:.4f} (win {fit_global.window}), t_b={bt.t_b}, "
        f"scaling={lam_scaling:.4f} from t_b={tbs} ({time.perf_counter()-t0:.0f} s)",
    )


def test_criterion_7_saturation_phenomenology(global_run_ic1, global_run_ic2):
    t0 = time.perf_counter()
    # largest difference over kicks 1..200, the initial offset excluded
    assert len(global_run_ic1.d.delta) > 200 and len(global_run_ic2.d.delta) > 200
    dmax_typical = np.max(global_run_ic1.d.delta[1:201])
    dmax_peak = np.max(global_run_ic2.d.delta[1:201])
    relax = {
        "q1": global_run_ic1.q.l_tilde_mean[30, 2],
        "c1": global_run_ic1.c.l_tilde_mean[30, 2],
        "q2": global_run_ic2.q.l_tilde_mean[30, 2],
        "c2": global_run_ic2.c.l_tilde_mean[30, 2],
    }
    checks = {
        "delta_max(20,40,160,130) < 5": dmax_typical < 5.0,
        "transient peak(45,70,135,70) in [4,20]": 4.0 <= dmax_peak <= 20.0,
        "|<Lz~>| < 0.05 at n=30 (both runs, both sides)": all(
            abs(v) < 0.05 for v in relax.values()
        ),
    }
    report(
        7,
        "saturation phenomenology",
        all(checks.values()),
        f"delta_max={dmax_typical:.2f}, peak={dmax_peak:.2f}, "
        f"Lz~(30)={ {k: round(float(v), 4) for k, v in relax.items()} } "
        f"({time.perf_counter()-t0:.0f} s)",
    )


def test_criterion_8_property_suite(tmp_path):
    t0 = time.perf_counter()
    from oracles import fd_jacobian

    rng = np.random.default_rng(99)
    checks = {}

    # measure preservation: |det J| = 1 +- 1e-8 in the canonical chart
    worst_det = 0.0
    count = 0
    while count < 100:
        v = rng.normal(size=6)
        v[:3] /= np.linalg.norm(v[:3])
        v[3:] /= np.linalg.norm(v[3:])
        canon, _ = cl.state_to_canonical(v)
        if max(abs(canon[0]), abs(canon[2])) > 0.9:
            continue
        p = cl.ClassicalParams(rng.uniform(0.1, 6.1), rng.uniform(-3, 3), rng.uniform(1, 4))
        jac = fd_jacobian(
            lambda cc: cl.state_to_canonical(cl.map_step(cl.canonical_to_state(cc), p))[0],
            canon,
            wrap_cols=(1, 3),
            richardson=True,
        )
        worst_det = max(worst_det, abs(abs(np.linalg.det(jac)) - 1.0))
        count += 1
    checks["|det J| = 1 +- 1e-8"] = worst_det < 1e-8

    # tangent map vs central finite differences, 1e-5 entrywise
    worst_fd = 0.0
    for _ in range(100):
        v = rng.normal(size=6)
        v[:3] /= np.linalg.norm(v[:3])
        v[3:] /= np.linalg.norm(v[3:])
        p = cl.ClassicalParams(rng.uniform(0.1, 6.1), rng.uniform(-3, 3), rng.uniform(1, 4))
        m = np.swapaxes(cl.tangent_apply(v[..., None, :], np.eye(6), p), -1, -2)
        fd = fd_jacobian(lambda y: cl.map_step(y, p, renormalize=False), v)
        worst_fd = max(worst_fd, float(np.max(np.abs(m - fd))))
    checks["tangent map vs FD 1e-5"] = worst_fd < 1e-5

    # sampling moment matching within 4 SE
    j = 55
    mag = math.sqrt(j * (j + 1))
    vec = sample_polarized(lv.MatchedDensityParams(j), np.random.default_rng(5), 1_000_000)
    jz = mag * vec[:, 2]
    se = jz.std(ddof=1) / 1000.0
    checks["sampling moments 4 SE"] = abs(jz.mean() - mag * lv.big_g(lv.sigma2_for(j))) < 4 * se

    # deterministic replay: byte-identical CSV bodies
    args = ["a=5", "gamma=1.215", "s=10", "l=11", "theta_s=20", "phi_s=40",
            "theta_l=160", "phi_l=130", "n_kicks=5", "n_traj=20000", "seed=11",
            "lyap_steps=1000"]
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = cli.run("compare", cli.parse_config(None, args + [f"outdir={out}"]))
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("qmoments.csv", "cmoments.csv", "delta.csv")
    )
    checks["deterministic replay (byte-identical CSV)"] = identical

    report(
        8,
        "property suite",
        all(checks.values()),
        f"max|det-1|={worst_det:.1e}, max FD gap={worst_fd:.1e} "
        f"({time.perf_counter()-t0:.0f} s)",
    )
