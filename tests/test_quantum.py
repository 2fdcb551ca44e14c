import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinchaos import quantum as q

from oracles import (
    dense_floquet,
    dense_rotation,
    frame_basis_reference,
    frame_kick_reference,
    jx_matrix,
    jz_matrix,
    jy_matrix,
    ladder_plus,
    observables_reference,
    sandwich_reference,
    wigner_d_formula,
    wigner_d_mp,
)

ROOT = Path(__file__).resolve().parents[1]
RNG = np.random.default_rng(20260808)


def random_state(s, l, rng=RNG):
    n = q.dim_of(s) * q.dim_of(l)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    return q.QuantumState(s, l, amps)


def random_frame_state(s, l, rng):
    """Normalized random x-frame amplitudes, the input of ``q._frame_kick``."""
    return random_state(s, l, rng).matrix.copy()


def raw_kick(z, f):
    """One kick by ``q._frame_kick``, in place on z with fresh scratch arrays, not renormalized."""
    q._frame_kick(z, f, np.empty_like(z))
    return z


# ---------------------------------------------------------------------------
# Wigner d-matrices


def test_wigner_d_spin_half_closed_form():
    for theta in (0.0, 0.3, np.pi / 2, 2.0, np.pi):
        d = q.wigner_d(0.5, theta)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        assert np.allclose(d, [[c, -s], [s, c]], atol=1e-15)


def test_wigner_d_zero_angle_is_identity():
    for j in (0.5, 1, 7.5, 40):
        assert np.max(np.abs(q.wigner_d(j, 0.0) - np.eye(q.dim_of(j)))) < 1e-14


def test_wigner_d_matches_formula_small_j():
    # every half-integer j up to 25, three angles
    for twoj in range(1, 51):
        j = twoj / 2.0
        for theta in (0.1, np.pi / 2, 2.9):
            diff = np.max(np.abs(q.wigner_d(j, theta) - wigner_d_formula(j, theta)))
            assert diff < 1e-10, f"j={j} theta={theta}: {diff}"


def test_wigner_d_j40_matches_high_precision_formula():
    diff = np.max(np.abs(q.wigner_d(40, np.pi / 2) - wigner_d_mp(40, np.pi / 2)))
    assert diff < 1e-10


@pytest.mark.parametrize("j", [0.5, 2, 11, 55.5, 154, 220])
def test_wigner_d_orthogonality_large_j(j):
    for theta in (0.3, np.pi / 2, 2.8):
        d = q.wigner_d(j, theta)
        defect = np.max(np.abs(d @ d.T - np.eye(d.shape[0])))
        assert defect < 1e-10, f"j={j} theta={theta}: {defect}"


def test_wigner_d_orthogonality_at_rounding_level():
    # the two real products keep the defect at that of d(pi/2), about 2e-15; the
    # one-product shortcut sigma o (R^T diag(cos + sin) R) reads 3.8e-14 here
    for j in (37.5, 140, 154, 200, 220):
        for theta in (1.0, 2.835, 5.0):
            d = q.wigner_d(j, theta)
            defect = np.max(np.abs(d @ d.T - np.eye(d.shape[0])))
            assert defect <= 5e-15, f"j={j} theta={theta}: {defect}"


def _rotation_via_frame_basis(j, theta):
    """U^dagger exp(-i theta J_z) U with the complex frame basis U: d(theta) is its real part."""
    u = frame_basis_reference(j)
    return (u.conj().T * np.exp(-1j * theta * np.diag(jz_matrix(j)))) @ u


@pytest.mark.parametrize("j", [0.5, 1, 7.5, 40, 154, 220])
def test_wigner_d_and_coherent_state_match_complex_frame_basis(j):
    # the real two-product build against the complex one it replaced (the
    # one-product shortcut sigma o (R^T diag(cos + sin) R) is 2.1e-14 off)
    for theta in (0.3, 2.0, 5.0):
        ref = _rotation_via_frame_basis(j, theta).real
        assert np.max(np.abs(q.wigner_d(j, theta) - ref)) < 1e-14, theta
        phases = np.exp(-1j * 0.7 * np.diag(jz_matrix(j)))
        assert np.max(np.abs(q.coherent_state(j, theta, 0.7) - phases * ref[:, 0])) < 1e-14, theta


@pytest.mark.parametrize("s, l", [(1.5, 2), (10, 11), (40, 44)])
def test_frame_transforms_match_complex_frame_basis(s, l):
    u_s, u_l = frame_basis_reference(s), frame_basis_reference(l)
    psi = random_state(s, l).matrix
    z = psi.copy()
    q._to_frame(z, np.empty_like(z), s, l)
    assert np.max(np.abs(z - u_s.conj().T @ psi @ u_l.conj())) < 1e-13
    back = psi.copy()
    q._to_lab(back, np.empty_like(back), s, l)
    assert np.max(np.abs(back - u_s @ psi @ u_l.T)) < 1e-13


def _traced_peak(fn):
    """Peak bytes above the start of fn() that ``tracemalloc`` sees; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wigner_d_allocation_peak():
    # about three n x n arrays besides the cached d(pi/2); the complex build read 6.2
    n = q.dim_of(154)
    q.wigner_d(154, 5.0)  # d(pi/2) into the cache
    assert _traced_peak(lambda: q.wigner_d(154, 5.0)) < 4 * n * n * 8


@pytest.mark.parametrize("j", [0, 0.5, 1, 3, 37.5, 140, 154, 220])
def test_wigner_d_half_pi_ladder_sign_rule(j):
    # the columns are the J_x eigenvectors, with the signs the ladder rule fixes
    twoj = round(2 * j)
    d = q._wigner_d_half_pi(twoj)
    m = np.diag(jz_matrix(j))
    assert np.max(np.abs(d.T @ jx_matrix(j) @ d - np.diag(m))) < 1e-12
    # column m = j is 2^-j sqrt(binom(2j, j+m')) >= 0; its edge entries (1e-66
    # at j = 220) carry LAPACK's absolute rounding of ~1e-17, of either sign
    anchor = [math.sqrt(math.comb(twoj, k) / 2**twoj) for k in range(twoj + 1)]
    assert np.max(np.abs(d[:, 0] - anchor)) < 1e-14
    assert np.all(d[:, 0] > -1e-15)
    jp = ladder_plus(j)
    a = -jz_matrix(j) + (jp - jp.T) / 2.0
    overlaps = np.einsum("ki,ki->i", d[:, :-1], a @ d[:, 1:])
    assert np.max(np.abs(overlaps - np.diag(jp, 1)), initial=0.0) < 1e-10
    if j == 0:
        assert np.array_equal(d, [[1.0]])


_HALF_PI_BUILD = (
    "import sys\n"
    "import numpy as np\n"
    "from spinchaos import quantum as q\n"
    "np.savez(sys.argv[1], *(q._wigner_d_half_pi(n) for n in (75, 440)))\n"
)


def _half_pi_build(path, threads):
    """d(pi/2) at j = 37.5 and 220, built in a fresh process with the given BLAS threads."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    res = subprocess.run(
        [sys.executable, "-c", _HALF_PI_BUILD, str(path)], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    with np.load(path) as built:
        return [built[k] for k in sorted(built.files)]


def test_wigner_d_half_pi_replays_under_each_blas_setting(tmp_path):
    # LAPACK builds d(pi/2): with one BLAS thread and with the thread count
    # unset, a second build repeats the first byte for byte; across the two
    # settings the builds may differ in their last bits only
    builds = {}
    for threads in ("1", None):
        first, second = (_half_pi_build(tmp_path / f"{threads}{k}.npz", threads) for k in "ab")
        for x, y in zip(first, second):
            assert x.tobytes() == y.tobytes()
        builds[threads] = first
    for x, y in zip(builds["1"], builds[None]):
        assert np.max(np.abs(x - y)) < 1e-14


def test_wigner_d_rejects_invalid_j():
    with pytest.raises(ValueError):
        q.wigner_d(1.3, 0.5)
    with pytest.raises(ValueError):
        q.wigner_d(-1, 0.5)


def test_states_reject_invalid_j():
    with pytest.raises(ValueError):
        q.QuantumState(1.3, 2, np.zeros(3 * 5, dtype=complex))
    with pytest.raises(ValueError):
        q.product_state(-1, 2, np.ones(1), np.ones(5))


# ---------------------------------------------------------------------------
# rotation matrices and coherent states


def expect(op, vec):
    """<vec|op|vec> with a dense oracle operator."""
    return np.vdot(vec, op @ vec)


def test_coherent_state_spin_half_example():
    # column 0 of R(pi/2, pi/2) = exp(-i pi/2 J_z) exp(-i pi/2 J_y) for j = 1/2
    vec = q.coherent_state(0.5, np.pi / 2, np.pi / 2)
    h = np.sqrt(2) / 2
    expected = np.array([np.exp(-1j * np.pi / 4) * h, np.exp(1j * np.pi / 4) * h])
    assert np.max(np.abs(vec - expected)) < 1e-15


def test_coherent_state_matches_dense_rotation():
    cases = [
        (1, 0.7, 1.9),
        (4.5, 2.2, 0.4),
        (12, 1.0, 5.0),
        # the CLI's sizes and angles
        (140, np.deg2rad(45), np.deg2rad(70)),
        (154, np.deg2rad(135), np.deg2rad(70)),
        (220, 2.0, 1.2),
    ]
    for j, theta, phi in cases:
        vec = q.coherent_state(j, theta, phi)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
        assert np.max(np.abs(vec - dense_rotation(j, theta, phi)[:, 0])) < 1e-10


def test_rotation_composition_about_same_axis():
    for j, theta in [(2, 0.6), (15, 1.2)]:
        d1 = q.wigner_d(j, theta)
        assert np.max(np.abs(d1 @ d1 - q.wigner_d(j, 2 * theta))) < 1e-10


def test_coherent_state_pole_is_basis_vector():
    vec = q.coherent_state(7, 0.0, 0.0)
    expected = np.zeros(15)
    expected[0] = 1.0
    assert np.max(np.abs(vec - expected)) < 1e-14


def test_coherent_state_first_moments():
    # <J_z> = j cos(theta), <J_+> = j e^{i phi} sin(theta)
    j, theta, phi = 10, np.pi / 2, 0.0
    vec = q.coherent_state(j, theta, phi)
    assert abs(expect(jz_matrix(j), vec)) < 1e-10
    assert abs(expect(ladder_plus(j), vec).real - 10.0) < 1e-10

    j, theta, phi = 154, np.deg2rad(45.0), np.deg2rad(70.0)
    vec = q.coherent_state(j, theta, phi)
    assert abs(expect(jz_matrix(j), vec) - 154 * np.cos(theta)) < 1e-8
    jplus = expect(ladder_plus(j), vec)
    assert abs(jplus - 154 * np.sin(theta) * np.exp(1j * phi)) < 1e-8


def test_coherent_state_variance_identities():
    for j in (0.5, 3, 22, 154):
        for theta, phi in [(0.0, 0.0), (1.1, 2.0)]:
            vec = q.coherent_state(j, theta, phi)
            jz = expect(jz_matrix(j), vec).real
            jplus = expect(ladder_plus(j), vec)
            mean_sq = jz**2 + abs(jplus) ** 2
            var_norm = (j * (j + 1) - mean_sq) / (j * (j + 1))
            assert abs(var_norm - 1.0 / (j + 1)) < 1e-10
    # <J_x^2> = j/2 for the polar state
    for j in (0.5, 4, 37):
        vec = q.coherent_state(j, 0.0, 0.0)
        assert abs(np.linalg.norm(jx_matrix(j) @ vec) ** 2 - j / 2.0) < 1e-10


# ---------------------------------------------------------------------------
# Floquet operator


def test_floquet_phase_arrays_unimodular():
    f = q.build_floquet(5, 6, 1.7, 0.3)
    assert np.max(np.abs(np.abs(f.interaction_phases) - 1.0)) < 1e-14
    for rot, dim in ((f.d_s, 11), (f.d_l, 13)):
        assert np.max(np.abs(rot @ rot.T - np.eye(dim))) < 1e-10


@pytest.mark.parametrize("j", [0.5, 3, 37.5, 154, 220])
def test_floquet_free_rotations_match_wigner_d(j):
    # the Floquet operator carries exactly the d(a) that wigner_d builds
    for a in (0.9, 2.4, 5.0):
        f = q.build_floquet(j, 0.5, a, 0.3)
        assert np.array_equal(f.d_s, q.wigner_d(j, a))
        assert np.array_equal(f.d_l, q.wigner_d(0.5, a))


@pytest.mark.parametrize("j", [0.5, 3, 37.5, 154, 220])
def test_wigner_d_matches_dense_rotation(j):
    # d(a) from the cached d(pi/2) against a dense eigh-based exp(-i a J_y)
    for a in (0.9, 2.4, 5.0):
        assert np.max(np.abs(q.wigner_d(j, a) - dense_rotation(j, a, 0.0).real)) < 1e-12


def test_evolve_series_matches_dense_floquet_power():
    rng = np.random.default_rng(17)
    for s, l in [(1, 2), (1.5, 2.5), (2, 1.5), (0.5, 3)]:
        a, c = rng.uniform(0, 2 * np.pi), rng.uniform(-3, 3)
        state = random_state(s, l, rng)
        series = q.evolve_series(state, q.build_floquet(s, l, a, c), 5)
        expected = np.linalg.matrix_power(dense_floquet(s, l, a, c), 5) @ state.amplitudes
        assert np.max(np.abs(series.final.amplitudes - expected)) < 1e-12
        assert series.norm_drift < 1e-12


def test_evolve_series_moments_match_lab_observables_per_kick():
    # the frame's mean components are relabelled to the lab axes; a chain of
    # one-kick legs gives lab-basis states to check them against
    s, l = 3.5, 5
    f = q.build_floquet(s, l, 5.0, 1.1)
    state = q.product_state(s, l, q.coherent_state(s, 0.8, 0.3), q.coherent_state(l, 2.1, 4.0))
    series = q.evolve_series(state, f, 6)
    for k in range(7):
        obs = q.observables(state)
        lab_s = np.array([obs.sx, obs.sy, obs.sz])
        lab_l = np.array([obs.lx, obs.ly, obs.lz])
        assert np.max(np.abs(series.s_tilde_mean[k] * series.mag_s - lab_s)) < 1e-10
        assert np.max(np.abs(series.l_tilde_mean[k] * series.mag_l - lab_l)) < 1e-10
        assert abs(series.var_norm_s[k] - obs.var_norm_s) < 1e-10
        assert abs(series.var_norm_l[k] - obs.var_norm_l) < 1e-10
        state = q.evolve_series(state, f, 1).final


def test_floquet_no_interaction_is_pure_z_rotation():
    s, l, a = 1.5, 2, 0.9
    f = q.build_floquet(s, l, a, 0.0)
    ms, ml = q.m_values(s), q.m_values(l)
    for i_s in range(q.dim_of(s)):
        for i_l in range(q.dim_of(l)):
            amps = np.zeros(q.dim_of(s) * q.dim_of(l), dtype=complex)
            amps[i_s * q.dim_of(l) + i_l] = 1.0
            state = q.QuantumState(s, l, amps)
            out = q.evolve_series(state, f, 1).final.amplitudes
            expected = amps * np.exp(-1j * a * (ms[i_s] + ml[i_l]))
            assert np.max(np.abs(out - expected)) < 1e-12


def test_interaction_factorization_matches_expm():
    # a=0, c=2pi, s=l=1/2: factored kick versus dense expm of -i c Sx (x) Lx
    f = q.build_floquet(0.5, 0.5, 0.0, 2 * np.pi)
    dense = dense_floquet(0.5, 0.5, 0.0, 2 * np.pi)
    prods = np.outer(q.m_values(0.5), q.m_values(0.5))
    assert np.allclose(np.unique(np.abs(prods)), [0.25])
    for k in range(4):
        amps = np.zeros(4, dtype=complex)
        amps[k] = 1.0
        state = q.QuantumState(0.5, 0.5, amps)
        out = q.evolve_series(state, f, 1).final.amplitudes
        assert np.max(np.abs(out - dense @ amps)) < 1e-12


def test_factored_application_matches_dense_operator():
    rng = np.random.default_rng(7)
    cases = [(1.5, 1.5, 0.8, 1.3)]
    for _ in range(10):
        s = rng.choice([0.5, 1.0, 1.5, 2.0])
        l = rng.choice([0.5, 1.0, 1.5, 2.0])
        cases.append((s, l, rng.uniform(0, 2 * np.pi), rng.uniform(-3, 3)))
    for s, l, a, c in cases:
        f = q.build_floquet(s, l, a, c)
        dense = dense_floquet(s, l, a, c)
        state = random_state(s, l, rng)
        out = q.evolve_series(state, f, 1).final.amplitudes
        assert np.max(np.abs(out - dense @ state.amplitudes)) < 1e-12


def test_evolve_zero_kicks_is_identity():
    state = random_state(2, 3)
    series = q.evolve_series(state, q.build_floquet(2, 3, 1.0, 0.5), 0)
    assert series.kicks.shape == (1,)
    assert np.array_equal(series.final.amplitudes, state.amplitudes)


def test_evolve_dimension_mismatch():
    state = random_state(1, 1)
    with pytest.raises(ValueError, match="do not match"):
        q.evolve_series(state, q.build_floquet(1, 2, 1.0, 0.5), 1)


def test_evolve_negative_kick_count_rejected():
    state = random_state(1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        q.evolve_series(state, q.build_floquet(1, 2, 1.0, 0.5), -1)


def test_unitarity_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(6):
        s = rng.choice([0.5, 1.5, 4.0, 9.0])
        l = rng.choice([1.0, 2.5, 6.0])
        f = q.build_floquet(s, l, rng.uniform(0, 2 * np.pi), rng.uniform(-4, 4))
        z = random_frame_state(s, l, rng)
        # raw single kick, no renormalization
        assert abs(np.linalg.norm(raw_kick(z, f)) - 1.0) < 1e-12


def test_norm_preserved_200_kicks_production_scale():
    # s=140, l=154, gamma=2.835 scaled to c, a=5: the standard strong-coupling operating point
    s, l, a, gamma = 140, 154, 5.0, 2.835
    c = gamma / np.sqrt(s * (s + 1))
    f = q.build_floquet(s, l, a, c)
    psi_s = q.coherent_state(s, np.deg2rad(45), np.deg2rad(70))
    psi_l = q.coherent_state(l, np.deg2rad(135), np.deg2rad(70))
    state = q.product_state(s, l, psi_s, psi_l)
    out = q.evolve_series(state, f, 200).final
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    # raw single-kick application (no renormalization) is unitary to 1e-12
    raw = raw_kick(random_frame_state(s, l, np.random.default_rng(5)), f)
    assert abs(np.linalg.norm(raw) - 1.0) < 1e-12


def test_casimir_expectation_invariant_under_evolution():
    # <L^2> and <S^2> are kinematic constants of the motion
    state = random_state(2, 2.5)
    f = q.build_floquet(2, 2.5, 5.0, 1.3)
    before = q.observables(state)
    after = q.observables(q.evolve_series(state, f, 50).final)
    assert abs(after.l2 - before.l2) < 1e-12
    assert abs(after.s2 - before.s2) < 1e-12


# ---------------------------------------------------------------------------
# observables and marginals


def test_observables_coherent_product():
    s, l = 9, 14
    state = q.product_state(s, l, q.coherent_state(s, 0.0, 0.0), q.coherent_state(l, 0.0, 0.0))
    obs = q.observables(state)
    assert abs(obs.lz - l) < 1e-10
    assert abs(obs.sz - s) < 1e-10
    assert abs(obs.var_norm_l - 1.0 / (l + 1)) < 1e-10
    assert abs(obs.l2 - l * (l + 1)) < 1e-12
    assert abs(obs.lz / np.sqrt(obs.l2) - l / np.sqrt(l * (l + 1))) < 1e-12


def test_observables_casimir_exact_for_any_state():
    state = random_state(3.5, 5)
    obs = q.observables(state)
    assert abs(obs.l2 / (5 * 6) - 1.0) < 1e-12
    assert abs(obs.s2 / (3.5 * 4.5) - 1.0) < 1e-12


def test_observables_match_dense_small():
    # every field against dense J_x, J_y, J_z and the dense Casimirs: the
    # smallest shapes (one amplitude column pair), half-integers and s > l
    rng = np.random.default_rng(3)
    for s, l in [(0.5, 0.5), (0.5, 3.0), (1.5, 2.0), (4.0, 2.5)]:
        state = random_state(s, l, rng)
        obs = q.observables(state)
        psi = state.amplitudes
        eye_s, eye_l = np.eye(q.dim_of(s)), np.eye(q.dim_of(l))
        means = {}
        for name, op in [("sx", jx_matrix), ("sy", jy_matrix), ("sz", jz_matrix)]:
            means[name] = np.vdot(psi, np.kron(op(s), eye_l) @ psi).real
        for name, op in [("lx", jx_matrix), ("ly", jy_matrix), ("lz", jz_matrix)]:
            means[name] = np.vdot(psi, np.kron(eye_s, op(l)) @ psi).real
        casimir_s = sum(np.linalg.matrix_power(op(s), 2) for op in (jx_matrix, jy_matrix, jz_matrix))
        casimir_l = sum(np.linalg.matrix_power(op(l), 2) for op in (jx_matrix, jy_matrix, jz_matrix))
        s2 = np.vdot(psi, np.kron(casimir_s, eye_l) @ psi).real
        l2 = np.vdot(psi, np.kron(eye_s, casimir_l) @ psi).real
        dense = dict(
            means,
            s2=s2,
            l2=l2,
            var_norm_s=(s2 - (means["sx"] ** 2 + means["sy"] ** 2 + means["sz"] ** 2)) / (s * (s + 1)),
            var_norm_l=(l2 - (means["lx"] ** 2 + means["ly"] ** 2 + means["lz"] ** 2)) / (l * (l + 1)),
        )
        assert set(dense) == set(vars(obs))
        for name, value in dense.items():
            assert abs(getattr(obs, name) - value) < 1e-12, (s, l, name)


def test_observables_match_reference_formula_production_scale():
    # the float-view sums against the complex |psi|^2 formula, on a kicked
    # random frame state at the production size, to 1e-13 of each field's scale
    s, l = 140, 154
    f = q.build_floquet(s, l, 5.0, 1.215 / l)
    z = random_frame_state(s, l, np.random.default_rng(17))
    for _ in range(40):
        z = raw_kick(z, f)
        z /= np.linalg.norm(z)
    state = q.QuantumState(s, l, z.reshape(-1))
    obs, ref = q.observables(state), observables_reference(state)
    mag_s, mag_l = math.sqrt(s * (s + 1)), math.sqrt(l * (l + 1))
    scales = dict(sx=mag_s, sy=mag_s, sz=mag_s, s2=mag_s**2, lx=mag_l, ly=mag_l, lz=mag_l,
                  l2=mag_l**2, var_norm_s=1.0, var_norm_l=1.0)
    assert set(scales) == set(vars(obs))
    for name, scale in scales.items():
        assert abs(getattr(obs, name) - getattr(ref, name)) < 1e-13 * scale, name
    pz = (np.abs(state.matrix) ** 2).sum(axis=0)
    assert np.max(np.abs(q.marginal_pz(state) - pz)) < 1e-13 * np.max(pz)


_OBSERVE = """
import sys
import numpy as np
from spinchaos import quantum as q
rng = np.random.default_rng(5)
amps = rng.normal(size=(281, 309)) + 1j * rng.normal(size=(281, 309))
state = q.QuantumState(140, 154, amps.reshape(-1))
np.savez(sys.argv[1], np.array(list(vars(q.observables(state)).values())), q.marginal_pz(state))
"""


def test_observables_independent_of_blas_threads(tmp_path):
    # the moments and the L_z marginal at the production size, with one BLAS
    # thread and with the count unset: no BLAS call may enter their sums
    runs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        path = tmp_path / f"{threads}.npz"
        res = subprocess.run([sys.executable, "-c", _OBSERVE, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        with np.load(path) as saved:
            runs.append([saved[k] for k in sorted(saved.files)])
    for x, y in zip(*runs):
        assert x.tobytes() == y.tobytes()


def test_marginal_pz_product_state_delta():
    s, l = 2, 3
    state = q.product_state(s, l, q.coherent_state(s, 0.0, 0.0), q.coherent_state(l, 0.0, 0.0))
    p = q.marginal_pz(state)
    expected = np.zeros(q.dim_of(l))
    expected[0] = 1.0  # m_l = +l is the first descending entry
    assert np.max(np.abs(p - expected)) < 1e-14


def test_marginal_pz_south_pole_delta():
    l = 6
    state = q.product_state(2, l, q.coherent_state(2, 0.0, 0.0), q.coherent_state(l, np.pi, 0.0))
    p = q.marginal_pz(state)
    assert abs(p[-1] - 1.0) < 1e-12
    assert np.max(p[:-1]) < 1e-12


def test_marginal_pz_normalized_after_evolution():
    f = q.build_floquet(4, 5, 5.0, 0.4)
    state = q.evolve_series(
        q.product_state(4, 5, q.coherent_state(4, 0.4, 0.2), q.coherent_state(5, 2.0, 1.0)),
        f,
        20,
    ).final
    p = q.marginal_pz(state)
    assert np.all(p >= -1e-15)
    assert abs(p.sum() - 1.0) < 1e-12


def test_evolve_series_matches_single_shot():
    s, l = 3, 4
    f = q.build_floquet(s, l, 5.0, 0.3)
    state = q.product_state(s, l, q.coherent_state(s, 0.3, 0.1), q.coherent_state(l, 1.9, 2.2))
    series = q.evolve_series(state, f, 7)
    assert series.kicks.shape == (8,)
    obs = q.observables(series.final)
    assert abs(series.l_tilde_mean[-1, 2] * series.mag_l - obs.lz) < 1e-10
    assert abs(series.var_norm_l[-1] - obs.var_norm_l) < 1e-12
    # evolving in two legs through the final state agrees with one shot, and the
    # second leg leaves its input state as it was
    middle = q.evolve_series(state, f, 3).final
    before = middle.amplitudes.copy()
    split = q.evolve_series(middle, f, 4).final
    assert np.array_equal(middle.amplitudes, before)
    assert np.max(np.abs(split.amplitudes - series.final.amplitudes)) < 1e-12


def _evolve_reference(state, f, n_kicks):
    """``evolve_series``'s loop with allocating kicks and transforms: final and moments."""
    r_s, r_l = (q._wigner_d_half_pi(q.dim_of(j) - 1) for j in (state.s, state.l))
    p_s, p_l = (np.array([1, 1j, -1, -1j])[np.arange(q.dim_of(j)) % 4] for j in (state.s, state.l))
    mag_s, mag_l = np.sqrt(state.s * (state.s + 1.0)), np.sqrt(state.l * (state.l + 1.0))
    z = sandwich_reference(r_s.T, state.matrix, r_l.T) * np.outer(p_s.conj(), p_l.conj())
    moments = []
    for n in range(n_kicks + 1):
        obs = q.observables(q.QuantumState(state.s, state.l, z.reshape(-1)))
        moments.append([obs.sz / mag_s, obs.sx / mag_s, obs.sy / mag_s, obs.lz / mag_l,
                        obs.lx / mag_l, obs.ly / mag_l, obs.var_norm_s, obs.var_norm_l])
        if n < n_kicks:
            z = frame_kick_reference(z, f)
            z *= 1.0 / np.linalg.norm(z)
    return sandwich_reference(r_s, z * np.outer(p_s, p_l), r_l).reshape(-1), np.array(moments)


@pytest.mark.parametrize("s, l", [(1.5, 2), (10, 11), (40, 44)])
def test_evolve_series_in_place_kicks_match_allocating_kicks_bitwise(s, l):
    # the in-place kicks and frame transforms in reused arrays against allocating
    # ones, for half-integer, non-square and larger shapes: every bit of the final
    # amplitudes and of the per-kick moments
    f = q.build_floquet(s, l, 5.0, 2.835 / math.sqrt(s * (s + 1)))
    state = q.product_state(s, l, q.coherent_state(s, 0.8, 1.2), q.coherent_state(l, 2.4, 0.3))
    series = q.evolve_series(state, f, 25)
    final, moments = _evolve_reference(state, f, 25)
    assert np.array_equal(series.final.amplitudes, final)
    got = np.column_stack([series.s_tilde_mean, series.l_tilde_mean, series.var_norm_s,
                           series.var_norm_l])
    assert got.tobytes() == moments.tobytes()


def test_evolve_series_allocation_peak():
    # z and one scratch array, with the transforms in place: the complex frame
    # transforms read 5.1 state sizes, and broadcast in-place phase multiplies
    # would add numpy's ufunc buffers, about one state's size here
    s, l = 40, 44
    f = q.build_floquet(s, l, 5.0, 2.835 / math.sqrt(s * (s + 1)))  # d(pi/2) of both into the cache
    state = q.product_state(s, l, q.coherent_state(s, 0.8, 1.2), q.coherent_state(l, 2.4, 0.3))
    assert _traced_peak(lambda: q.evolve_series(state, f, 3)) < 2.5 * state.amplitudes.nbytes


_FAULTS = """
import resource
import numpy as np
from spinchaos import quantum as q
s, l = 140, 154
f = q.build_floquet(s, l, 5.0, 2.835 / np.sqrt(s * (s + 1)))
state = q.product_state(s, l, q.coherent_state(s, 0.8, 1.2), q.coherent_state(l, 2.4, 0.3))
faults = []
for n_kicks in (1, 1, 101):  # the first call warms up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    q.evolve_series(state, f, n_kicks)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[2] - faults[1])
"""


def test_kicks_reuse_their_memory():
    # 100 extra kicks at the production size add almost no minor page faults:
    # an allocating kick faults in about 490 fresh pages, 49,000 per 100 kicks
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 1000
