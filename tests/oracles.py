"""Independent reference implementations used only by the test suite.

Nothing here shares code with the production package: rotation matrices come
from the explicit one-sum formula or dense eigendecomposition-based matrix
exponentials, map Jacobians from complex-step differentiation of the
update equations, and the classical L_z marginal from a sorted search over the
bin edges, so agreement with the package is a genuine cross-check.  Two
exceptions use the package: ``sample_polarized`` (and ``ensemble_states``
through it) maps one generator's draws to unit vectors with the package's
``_polarized``, where the package's ensemble engine draws tile by tile; and
``observables_reference`` returns its ``Observables`` from the complex |psi|^2
and conjugate-product formula that the float-view sums of ``observables``
replaced; ``frame_kick_reference`` and ``sandwich_reference`` are the
allocating forms of the kick and the frame-transform products that the package
applies in place in reused memory; and ``frame_basis_reference`` is the complex
frame basis U = d(pi/2) diag(i^k) on the package's d(pi/2), which the package's
real arithmetic replaced.
"""

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np


def _factorial(x) -> int:
    n = round(x)
    if abs(x - n) > 1e-9 or n < 0:
        raise ValueError(f"factorial of non-integer or negative {x}")
    return math.factorial(n)


def _fill_by_symmetry(n, entry):
    """The n x n d-matrix from ``entry(a, b)`` on a quarter of its index pairs.

    Rows a and columns b index m' = j - a and m = j - b.  The exact identities
    d_{m'm} = (-1)^{m-m'} d_{mm'} = d_{-m,-m'} give every entry from one with
    a <= b <= n - 1 - a.
    """
    d = np.empty((n, n))
    for a in range(n):
        for b in range(a, n - a):
            v = entry(a, b)
            sign = -1.0 if (b - a) % 2 else 1.0
            d[a, b] = d[n - 1 - b, n - 1 - a] = v
            d[b, a] = d[n - 1 - a, n - 1 - b] = sign * v
    return d


@lru_cache(maxsize=4)
def _formula_terms(twoj, prec):
    """Per entry (a, b): the theta-independent coefficient and the powers of cos, sin of each k.

    The coefficient (-1)^(k + m' - m) sqrt((j+m)! (j-m)! (j+m')! (j-m')!) /
    ((j+m-k)! k! (j-k-m')! (k-m+m')!) is a ``prec``-digit Decimal.
    """
    j = twoj / 2.0
    n = twoj + 1
    terms = {}
    with localcontext() as ctx:
        ctx.prec = prec
        for a in range(n):
            for b in range(a, n - a):
                mprime, m = j - a, j - b
                num = Decimal(
                    _factorial(j + m)
                    * _factorial(j - m)
                    * _factorial(j + mprime)
                    * _factorial(j - mprime)
                ).sqrt()
                k_lo = max(0, round(m - mprime))
                k_hi = min(round(j + m), round(j - mprime))
                entry = []
                for k in range(k_lo, k_hi + 1):
                    den = Decimal(
                        _factorial(j + m - k)
                        * _factorial(k)
                        * _factorial(j - k - mprime)
                        * _factorial(k - m + mprime)
                    )
                    sign = -1 if (k + round(mprime - m)) % 2 else 1
                    pow_c = round(2 * j - 2 * k + m - mprime)
                    pow_s = round(2 * k - m + mprime)
                    entry.append((sign * num / den, pow_c, pow_s))
                terms[a, b] = entry
    return terms


def wigner_d_formula(j, theta, prec=40):
    """Direct evaluation of the one-sum rotation-matrix formula.

    The alternating sum over k loses ~1e-10 to cancellation near j = 25 in
    plain double precision, so every term is built in ``prec``-digit decimal
    arithmetic (exact integer factorials, decimal square roots and powers);
    only the final conversion of each finished entry rounds to float.  The
    theta-independent coefficients are built once per (j, prec) and kept for
    the next angle, and a quarter of the entries give the rest by symmetry.
    """
    import mpmath as mp

    twoj = int(round(2 * float(j)))
    terms = _formula_terms(twoj, prec)
    with localcontext() as ctx:
        ctx.prec = prec
        with mp.workdps(prec + 5):
            c = Decimal(mp.nstr(mp.cos(mp.mpf(theta) / 2), prec, strip_zeros=False))
            s = Decimal(mp.nstr(mp.sin(mp.mpf(theta) / 2), prec, strip_zeros=False))
        pow_c = [c**p for p in range(twoj + 1)]
        pow_s = [s**p for p in range(twoj + 1)]

        def entry(a, b):
            tot = Decimal(0)
            for coef, pc, ps in terms[a, b]:
                tot += coef * pow_c[pc] * pow_s[ps]
            return float(tot)

        return _fill_by_symmetry(twoj + 1, entry)


def wigner_d_mp(j, theta, dps=50):
    """High-precision variant of the same formula, via mpmath, filled by the same symmetry."""
    import mpmath as mp

    j = float(j)
    n = int(round(2 * j)) + 1
    with mp.workdps(dps):
        c = mp.cos(mp.mpf(theta) / 2)
        s = mp.sin(mp.mpf(theta) / 2)

        def entry(a, b):
            mprime, m = j - a, j - b
            num = mp.sqrt(
                mp.factorial(j + m)
                * mp.factorial(j - m)
                * mp.factorial(j + mprime)
                * mp.factorial(j - mprime)
            )
            k_lo = max(0, round(m - mprime))
            k_hi = min(round(j + m), round(j - mprime))
            tot = mp.mpf(0)
            for k in range(k_lo, k_hi + 1):
                den = (
                    mp.factorial(j + m - k)
                    * mp.factorial(k)
                    * mp.factorial(j - k - mprime)
                    * mp.factorial(k - m + mprime)
                )
                sign = -1 if (k + round(mprime - m)) % 2 else 1
                tot += (
                    sign
                    * num
                    / den
                    * c ** round(2 * j - 2 * k + m - mprime)
                    * s ** round(2 * k - m + mprime)
                )
            return float(tot)

        return _fill_by_symmetry(n, entry)


# ---------------------------------------------------------------------------
# dense angular-momentum operators, descending-m basis


def ladder_plus(j):
    j = float(j)
    n = int(round(2 * j)) + 1
    m = j - np.arange(n)
    cp = np.sqrt(np.maximum((j - m) * (j + m + 1.0), 0.0))
    return np.diag(cp[1:], 1)


def jz_matrix(j):
    j = float(j)
    return np.diag(j - np.arange(int(round(2 * j)) + 1))


def jx_matrix(j):
    jp = ladder_plus(j)
    return (jp + jp.T) / 2.0


def jy_matrix(j):
    jp = ladder_plus(j)
    return (jp - jp.T) / 2.0j


def expm_herm(h, t=1.0):
    """exp(-i t H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def dense_rotation(j, theta, phi):
    """exp(-i phi J_z) exp(-i theta J_y), built without any recursion."""
    rz = np.diag(np.exp(-1j * phi * np.diag(jz_matrix(j))))
    return rz @ expm_herm(jy_matrix(j), theta)


def dense_floquet(s, l, a, c):
    """Full (2s+1)(2l+1)-dimensional one-kick operator, via kron + expm."""
    ms = np.diag(jz_matrix(s))
    ml = np.diag(jz_matrix(l))
    free = np.exp(-1j * a * (ms[:, None] + ml[None, :])).reshape(-1)
    kick = expm_herm(np.kron(jx_matrix(s), jx_matrix(l)), c)
    return np.diag(free) @ kick


# ---------------------------------------------------------------------------
# classical-map references


def _update_equations(x, a, gamma, r):
    """The six update equations of one kick, in the arithmetic of x's dtype."""
    sx, sy, sz, lx, ly, lz = (x[..., i] for i in range(6))
    ca, sa = np.cos(a), np.sin(a)
    alpha = gamma * r * lx
    beta = gamma * sx
    syr = sy * np.cos(alpha) - sz * np.sin(alpha)
    szr = sz * np.cos(alpha) + sy * np.sin(alpha)
    lyr = ly * np.cos(beta) - lz * np.sin(beta)
    lzr = lz * np.cos(beta) + ly * np.sin(beta)
    return np.stack(
        [sx * ca - syr * sa, syr * ca + sx * sa, szr, lx * ca - lyr * sa, lyr * ca + lx * sa, lzr],
        axis=-1,
    )


def map_step_longdouble(x, a, gamma, r):
    """The six update equations evaluated in 80-bit extended precision."""
    ld = np.longdouble
    return _update_equations(np.asarray(x, dtype=ld), ld(a), ld(gamma), ld(r)).astype(float)


def complex_step_jacobian(x, a, gamma, r, h=1e-30):
    """Jacobian of the six update equations at x (batched), shape (..., 6, 6).

    Column k is Im F(x + i h e_k) / h (Squire & Trapp, SIAM Rev. 40, 110
    (1998)): no difference is taken, so there is no cancellation and the
    result is exact to rounding for any small h.
    """
    x = np.asarray(x, dtype=float)
    jac = np.empty(x.shape + (6,))
    for k in range(6):
        xc = x.astype(complex)
        xc[..., k] += 1j * h
        jac[..., k] = _update_equations(xc, a, gamma, r).imag / h
    return jac


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def map_step_rotation_compose(x, a, gamma, r):
    """One kick built from explicit 3x3 rotation matrices (independent path)."""
    x = np.asarray(x, dtype=float)
    s_vec, l_vec = x[:3], x[3:]
    s_new = rot_z(a) @ rot_x(gamma * r * l_vec[0]) @ s_vec
    l_new = rot_z(a) @ rot_x(gamma * s_vec[0]) @ l_vec
    return np.concatenate([s_new, l_new])


def fd_jacobian(f, x, h=1e-6, wrap_cols=(), richardson=False):
    """Central finite-difference Jacobian of f at x.

    Output components listed in ``wrap_cols`` are treated as angles: the
    difference f(x+h) - f(x-h) is reduced to the principal branch so that a
    2*pi wrap does not corrupt the derivative.  With ``richardson`` the h and
    2h stencils are combined to cancel the O(h^2) truncation term, which
    matters for determinant checks at strong coupling.
    """
    x = np.asarray(x, dtype=float)
    n_out = np.asarray(f(x)).size
    jac = np.empty((n_out, x.size))
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx[k] = h
        diff = np.asarray(f(x + dx), dtype=float) - np.asarray(f(x - dx), dtype=float)
        for c in wrap_cols:
            diff[c] = (diff[c] + np.pi) % (2 * np.pi) - np.pi
        jac[:, k] = diff / (2 * h)
    if richardson:
        coarse = fd_jacobian(f, x, h=2 * h, wrap_cols=wrap_cols)
        jac = (4.0 * jac - coarse) / 3.0
    return jac


# ---------------------------------------------------------------------------
# quantum moments


def observables_reference(state):
    """``quantum.Observables`` of a state from |psi|^2 and conjugate products of shifted slices."""
    from spinchaos.quantum import Observables

    psi, s, l = state.matrix, state.s, state.l
    prob = np.abs(psi) ** 2
    norm2 = float(prob.sum())
    sz = float(np.sum(np.diag(jz_matrix(s)) * prob.sum(axis=1)))
    lz = float(np.sum(np.diag(jz_matrix(l)) * prob.sum(axis=0)))
    splus = complex(np.sum(np.conj(psi[:-1, :]) * (np.diag(ladder_plus(s), 1)[:, None] * psi[1:, :])))
    lplus = complex(np.sum(np.conj(psi[:, :-1]) * (np.diag(ladder_plus(l), 1)[None, :] * psi[:, 1:])))
    s2, l2 = s * (s + 1.0) * norm2, l * (l + 1.0) * norm2
    sx, sy, lx, ly = splus.real, splus.imag, lplus.real, lplus.imag
    return Observables(
        sx=sx, sy=sy, sz=sz, s2=s2, lx=lx, ly=ly, lz=lz, l2=l2,
        var_norm_s=(s2 - (sx**2 + sy**2 + sz**2)) / (s * (s + 1.0)),
        var_norm_l=(l2 - (lx**2 + ly**2 + lz**2)) / (l * (l + 1.0)),
    )


def sandwich_reference(a, z, b):
    """a z b^T for real a and b, into fresh arrays.

    The same two real products on the (re, im)-interleaved view as the
    package's in-place ``_sandwich``, so the two agree bit for bit.
    """
    w = (a @ np.ascontiguousarray(z).view(float)).view(complex)
    w = (b @ np.ascontiguousarray(w.T).view(float)).view(complex)
    return np.ascontiguousarray(w.T)


def frame_kick_reference(z, f):
    """One x-frame kick d_s (D o z) d_l^T of ``quantum.FloquetOperator`` f, into fresh arrays."""
    return sandwich_reference(f.d_s, f.interaction_phases * z, f.d_l)


def frame_basis_reference(j):
    """The complex frame basis U = d^(j)(pi/2) diag(i^k), k = 0..2j: the J_x eigenvectors."""
    from spinchaos import quantum as q

    n = q.dim_of(j)
    return q._wigner_d_half_pi(n - 1) * np.array([1, 1j, -1, -1j])[np.arange(n) % 4]


# ---------------------------------------------------------------------------
# classical ensembles


def sample_polarized(params, rng, n):
    """n unit vectors (n, 3) of the matched density ``params``, from n uniforms, then n azimuths."""
    from spinchaos import liouville as lv

    return lv._polarized(params, rng.random(n), rng.uniform(0.0, 2.0 * np.pi, n))


def ensemble_states(ens):
    """All initial conditions of an ensemble as an (n_traj, 6) array (Sx, Sy, Sz, Lx, Ly, Lz).

    One generator seeded once draws each chunk of ``liouville._CHUNK``
    trajectories whole, S's sample before L's, which defines the stream.
    """
    from spinchaos import liouville as lv

    rng = np.random.default_rng(ens.seed)
    chunks = []
    for b in range(0, ens.n_traj, lv._CHUNK):
        m = min(lv._CHUNK, ens.n_traj - b)
        s_vec = sample_polarized(ens.s_density, rng, m)
        chunks.append(np.hstack([s_vec, sample_polarized(ens.l_density, rng, m)]))
    return np.concatenate(chunks, axis=0)


def marginal_pz_classical(states, l):
    """L_z marginal of (n, 6) unit spin pairs in 2l+1 unit bins, descending m_l.

    L_z = sqrt(l(l+1)) Lz~ is located among the bin edges m + 1/2 by a sorted
    search, so values in the sliver |L_z| in (l, sqrt(l(l+1))] fall into the
    end bins.
    """
    dim = int(round(2 * l)) + 1
    lz = math.sqrt(l * (l + 1.0)) * np.asarray(states)[..., 5].reshape(-1)
    edges = np.arange(dim - 1) + (0.5 - l)  # ascending m + 1/2
    counts = np.bincount(dim - 1 - np.searchsorted(edges, lz), minlength=dim)
    return counts / counts.sum()
