"""Exact quantum dynamics of two coupled kicked spins.

The system is a pair of spins S and L with one-kick unitary

    F = exp[-i a (S_z + L_z)] exp[-i c S_x L_x],

acting on the product basis |s,m_s> (x) |l,m_l>.  Kicks are applied in the
x-frame, where S_x and L_x are diagonal.  Per spin let R = d^(j)(pi/2) and
U = R diag(i^k) for k = j - m = 0..2j; the frame amplitudes of a state matrix
psi are z = U_s^dagger psi U_l^* = (-i)^(k_s+k_l) o (R_s^T psi R_l).  In the
frame the interaction is the phase array D[i_s, i_l] = exp(-i c m_s m_l) and the
free rotation exp(-i a J_z) is the real d^(j)(a), so one kick is

    z <- d_s(a) (D o z) d_l(a)^T,

two real matrix products (Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987)), as
are the frame transforms, all in place in z and one scratch array; U is never formed.
Only d^(j)(pi/2) is built directly: its columns are the J_x eigenvectors from
one ``eigh`` of the tridiagonal J_x (Feng, Wang, Yang & Jin, Phys. Rev. E 92,
043307 (2015)), their signs fixed by a ladder rule.  Every other
d^(j)(theta), coherent states included, is Re[U^dagger exp(-i theta J_z) U],
read off the real R^T diag(cos theta m) R and R^T diag(sin theta m) R.  Mean
spin components in the frame are the lab ones relabelled cyclically,
(x, y, z)_lab = (z, x, y)_frame, the same for both spins.

Conventions used throughout this package:

* basis states are ordered by descending magnetic number, m = j, j-1, ..., -j;
* rotation matrices are R^(j)(theta, phi) with matrix elements
  <j,m'|R|j,m> = exp(-i m' phi) d^(j)_{m',m}(theta);
* d^(j)(theta) is the real Wigner rotation matrix for exp(-i theta J_y).

All angles are radians; hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .correspondence import MomentSeries

__all__ = [
    "QuantumState",
    "FloquetOperator",
    "Observables",
    "wigner_d",
    "coherent_state",
    "product_state",
    "build_floquet",
    "evolve_series",
    "observables",
    "marginal_pz",
]


def _as_j(j) -> float:
    """Coerce a quantum number to a validated float j."""
    jf = float(j)
    twoj = 2.0 * jf
    if jf < 0 or abs(twoj - round(twoj)) > 1e-9:
        raise ValueError(f"invalid spin quantum number j={j!r}: 2j must be a non-negative integer")
    return round(twoj) / 2.0


def dim_of(j) -> int:
    """Hilbert-space dimension 2j+1 of a single spin."""
    return int(round(2.0 * _as_j(j))) + 1


def m_values(j) -> np.ndarray:
    """Magnetic numbers in descending order, m = j, j-1, ..., -j."""
    jf = _as_j(j)
    return jf - np.arange(dim_of(jf), dtype=float)


@lru_cache(maxsize=2)
def _wigner_d_half_pi(twoj: int) -> np.ndarray:
    """Build d^(j)(pi/2) from the J_x eigenvectors (read-only).

    Its columns, m descending, are the eigenvectors of J_x with eigenvalue m
    (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015)).  One ``eigh``
    of the tridiagonal J_x gives them up to sign; a ladder rule fixes the
    signs.  Column m = j is 2^-j sqrt(binom(2j, j+m')) >= 0, and
    A = d J_+ d^T = -J_z + (J_+ - J_-)/2 maps column m to c_+(m) times column
    m+1, so col_{m+1} . (A col_m) = c_+(m) >= sqrt(2j): each overlap's sign
    is the relative sign of two neighbouring eigenvectors, and never small.
    The cache holds the two spins of the pair in hand, so a sweep over l
    keeps no earlier size alive.
    """
    j = twoj / 2.0
    cp = _ladder_coeffs(j)
    jx = np.diag(0.5 * cp[1:], 1)
    v = np.linalg.eigh(jx, UPLO="U")[1][:, ::-1]  # eigenvalues descending
    del jx  # before the sign pass allocates A v
    av = -m_values(j)[:, None] * v  # A v, column by column
    av[:-1] += 0.5 * cp[1:, None] * v[1:]
    av[1:] -= 0.5 * cp[1:, None] * v[:-1]
    overlaps = np.einsum("ki,ki->i", v[:, :-1], av[:, 1:])
    signs = np.cumprod(np.concatenate(([np.sign(v[:, 0].sum())], np.sign(overlaps))))
    d = v * signs
    d.setflags(write=False)
    return d


def _d_columns(j: float, theta: float, n_cols: int) -> np.ndarray:
    """Columns 0..n_cols-1 of d^(j)(theta) = Re[U^dagger exp(-i theta J_z) U], in real arithmetic.

    Entry [k, l] is Re[i^(l-k) (C - iS)], C = R^T diag(cos theta m) R and S the same with sin:
    C where l - k is even, S where it is odd, negated where (l - k) mod 4 is 2 or 3, that is
    f_k f_l with f = (1, 1, -1, -1, ...), and -1 for odd k with even l.  The one product
    R^T diag(cos + sin) R, so signed, has an orthogonality defect of 3.8e-14 for j <= 220.
    """
    r, m = _wigner_d_half_pi(dim_of(j) - 1), m_values(j)
    d = r.T @ (np.cos(theta * m)[:, None] * r[:, :n_cols])
    sin_part = r.T @ (np.sin(theta * m)[:, None] * r[:, :n_cols])
    d[0::2, 1::2] = sin_part[0::2, 1::2]
    np.negative(sin_part[1::2, 0::2], out=d[1::2, 0::2])
    f = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(m.size) % 4]
    d *= f[:, None]
    d *= f[:n_cols]
    return d


def wigner_d(j, theta: float) -> np.ndarray:
    """Wigner d-matrix d^(j)_{m',m}(theta) = <j,m'|exp(-i theta J_y)|j,m>.

    Rows and columns are indexed by descending m', m.  The matrix is real
    orthogonal.  It is Re[U^dagger exp(-i theta J_z) U], U = d^(j)(pi/2) diag(i^k),
    built as two real products on the J_x eigenvectors of ``_wigner_d_half_pi``.
    """
    jf = _as_j(j)
    return _d_columns(jf, theta, dim_of(jf))


def coherent_state(j, theta: float, phi: float) -> np.ndarray:
    """SU(2) coherent state R^(j)(theta,phi)|j,j> as an amplitude vector.

    The state is maximally polarized along (theta, phi):
    <J_z> = j cos(theta) and <J_x + i J_y> = j e^{i phi} sin(theta).
    """
    jf = _as_j(j)  # column 0 of wigner_d: two matrix-vector products
    return np.exp(-1j * phi * m_values(jf)) * _d_columns(jf, theta, 1)[:, 0]


# ---------------------------------------------------------------------------
# states and the Floquet operator


@dataclass(frozen=True)
class QuantumState:
    """Pure state of the coupled pair, amplitudes over |s,m_s> (x) |l,m_l>.

    ``amplitudes`` is a flat complex array of length (2s+1)(2l+1), C-ordered
    with m_s as the major index, both m's descending.  ``matrix`` exposes the
    same data as a (2s+1, 2l+1) view.
    """

    s: float
    l: float
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _as_j(self.s))
        object.__setattr__(self, "l", _as_j(self.l))
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = (dim_of(self.s), dim_of(self.l))
        if amps.size != dims[0] * dims[1]:
            raise ValueError(f"amplitude length {amps.size} does not match dims {dims}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def matrix(self) -> np.ndarray:
        return self.amplitudes.reshape(dim_of(self.s), dim_of(self.l))


def product_state(s, l, vec_s: np.ndarray, vec_l: np.ndarray) -> QuantumState:
    """Separable state from subsystem amplitude vectors."""
    return QuantumState(s, l, np.outer(vec_s, vec_l).reshape(-1))


@dataclass(frozen=True)
class FloquetOperator:
    """One-kick unitary in the x-frame.

    ``d_s``/``d_l`` are the real free rotations d^(j)(a) of each subsystem and
    ``interaction_phases``[i_s, i_l] = exp(-i c m_s m_l).
    """

    s: float
    l: float
    a: float
    c: float
    d_s: np.ndarray = field(repr=False)
    d_l: np.ndarray = field(repr=False)
    interaction_phases: np.ndarray = field(repr=False)


def build_floquet(s, l, a: float, c: float) -> FloquetOperator:
    """Assemble the x-frame Floquet operator for parameters (a, c)."""
    s, l = _as_j(s), _as_j(l)
    return FloquetOperator(
        s=s,
        l=l,
        a=float(a),
        c=float(c),
        d_s=wigner_d(s, a),
        d_l=wigner_d(l, a),
        interaction_phases=np.exp(-1j * c * np.outer(m_values(s), m_values(l))),
    )


def _sandwich(z: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> None:
    # z <- a z b^T in place for real a and b, as two real products on the (re, im)-
    # interleaved view; the right product runs as a left one on the transpose t, which
    # z's memory holds in between, into w's memory.  z and w are C-contiguous, one shape.
    np.matmul(a, z.view(float), out=w.view(float))
    t = z.reshape(z.shape[::-1])
    t[...] = w.T
    w = w.reshape(t.shape)
    np.matmul(b, t.view(float), out=w.view(float))
    z[...] = w.T


def _frame_kick(z: np.ndarray, f: FloquetOperator, w: np.ndarray) -> None:
    # z <- d_s (D o z) d_l^T in place
    np.multiply(f.interaction_phases, z, out=z)
    _sandwich(z, f.d_s, f.d_l, w)


def _turn(z: np.ndarray, s: float, l: float, unit: complex) -> None:
    # z <- unit^(k_s+k_l) o z in place for unit = +-1j, row by row: a broadcast multiply in
    # place allocates buffers
    p_s, p_l = (np.array([1, unit, -1, -unit])[np.arange(dim_of(j)) % 4] for j in (s, l))
    for row, p in zip(z, p_s):
        row *= p * p_l


def _to_frame(z: np.ndarray, w: np.ndarray, s: float, l: float) -> None:
    # z <- U_s^dagger z U_l^* = (-i)^(k_s+k_l) o (R_s^T z R_l), in place
    _sandwich(z, _wigner_d_half_pi(dim_of(s) - 1).T, _wigner_d_half_pi(dim_of(l) - 1).T, w)
    _turn(z, s, l, -1j)


def _to_lab(z: np.ndarray, w: np.ndarray, s: float, l: float) -> None:
    # z <- U_s z U_l^T = R_s (i^(k_s+k_l) o z) R_l^T, in place
    _turn(z, s, l, 1j)
    _sandwich(z, _wigner_d_half_pi(dim_of(s) - 1), _wigner_d_half_pi(dim_of(l) - 1), w)


# ---------------------------------------------------------------------------
# observables


def _ladder_coeffs(j: float) -> np.ndarray:
    """c_+(m) = sqrt((j-m)(j+m+1)) for m = j..-j (descending)."""
    m = m_values(j)
    return np.sqrt(np.maximum((j - m) * (j + m + 1.0), 0.0))


@dataclass(frozen=True)
class Observables:
    """Single-kick expectation values for both subsystems.

    Cartesian means are in units of hbar; ``l2``/``s2`` are the kinematic
    Casimirs l(l+1), s(s+1) scaled by the squared state norm; ``var_norm_*``
    is the normalized variance (  <J^2> - <J>^2 ) / j(j+1).
    """

    sx: float
    sy: float
    sz: float
    s2: float
    lx: float
    ly: float
    lz: float
    l2: float
    var_norm_s: float
    var_norm_l: float


def _pz(x: np.ndarray) -> np.ndarray:
    """Column sums of |amplitude|^2 from the float view x, re and im columns added pairwise."""
    col = np.einsum("ij,ij->j", x, x)
    return col[0::2] + col[1::2]


def observables(state: QuantumState) -> Observables:
    """Cartesian first moments and normalized variances of S and L.

    Every sum is an ``einsum`` reduction over the float view x of the
    amplitude matrix (re and im columns interleaved), read in place: no BLAS,
    so no dependence on its thread count, and no full-size temporary.  <S_+>
    and <L_+> pair each amplitude a with its next neighbour b along m_s or
    m_l: Re a* b = a_re b_re + a_im b_im and Im a* b = a_re b_im - a_im b_re,
    summed per row or column and weighted by the ladder coefficients after.
    """
    x = np.ascontiguousarray(state.matrix).view(float)
    s, l = state.s, state.l

    p_ms = np.einsum("ij,ij->i", x, x)
    norm2 = float(p_ms.sum())
    sz = float(np.einsum("i,i->", m_values(s), p_ms))
    lz = float(np.einsum("i,i->", m_values(l), _pz(x)))

    # <S_+>: pairs of rows, summed per row, then weighted by c_+(m_s - 1)
    a, b = x[:-1], x[1:]
    cp_s = _ladder_coeffs(s)[1:]
    sx = float(np.einsum("i,i->", cp_s, np.einsum("ij,ij->i", a, b)))
    sy = float(np.einsum("i,i->", cp_s, np.einsum("ij,ij->i", a[:, 0::2], b[:, 1::2])
                         - np.einsum("ij,ij->i", a[:, 1::2], b[:, 0::2])))
    # <L_+>: columns one amplitude (two floats) apart, summed per column, then weighted
    a, b = x[:, :-2], x[:, 2:]
    cp_l = _ladder_coeffs(l)[1:]
    cols = np.einsum("ij,ij->j", a, b)
    lx = float(np.einsum("j,j->", cp_l, cols[0::2] + cols[1::2]))
    ly = float(np.einsum("j,j->", cp_l, np.einsum("ij,ij->j", a[:, 0::2], b[:, 1::2])
                         - np.einsum("ij,ij->j", a[:, 1::2], b[:, 0::2])))

    s2 = s * (s + 1.0) * norm2
    l2 = l * (l + 1.0) * norm2
    return Observables(
        sx=sx,
        sy=sy,
        sz=sz,
        s2=s2,
        lx=lx,
        ly=ly,
        lz=lz,
        l2=l2,
        var_norm_s=(s2 - (sx**2 + sy**2 + sz**2)) / (s * (s + 1.0)),
        var_norm_l=(l2 - (lx**2 + ly**2 + lz**2)) / (l * (l + 1.0)),
    )


def marginal_pz(state: QuantumState) -> np.ndarray:
    """P_z(m_l) = <l,m_l| rho^(l) |l,m_l>, over descending m_l.

    Column sums of |amplitude|^2 by one ``einsum`` over the float view, the re
    and im columns added pairwise after, as in ``observables``: no BLAS, and
    neither the reduced density operator nor |amplitude|^2 is formed.
    """
    return _pz(np.ascontiguousarray(state.matrix).view(float))


# ---------------------------------------------------------------------------
# kick-by-kick moment series


def evolve_series(state: QuantumState, f: FloquetOperator, n_kicks: int) -> MomentSeries:
    """Evolve kick by kick, recording observables at every stroboscopic time.

    The state enters the x-frame once, in a copy z; the transforms and every
    kick are two real matrix products in place in z and one scratch array, the
    call's only arrays of the state's size.  ``observables`` runs on the frame
    amplitudes with the axes relabelled to the lab.  The state leaves the frame
    once, at the end, so ``final`` is z in the |m_s, m_l> basis; with no kick it
    is ``state`` itself.  The series has no Monte Carlo errors; ``pz_final`` is
    ``marginal_pz`` of ``final``.  Rounding drifts the norm by about 1e-14 per
    kick; like the classical map, the state is renormalized after every kick so
    that long runs stay on the unit sphere.
    """
    if (state.s, state.l) != (f.s, f.l):
        raise ValueError(
            f"state spins (s, l) = {(state.s, state.l)} do not match operator {(f.s, f.l)}"
        )
    if n_kicks < 0:
        raise ValueError("kick count must be non-negative")
    K = n_kicks + 1
    s_mean = np.empty((K, 3))
    l_mean = np.empty((K, 3))
    vs = np.empty(K)
    vl = np.empty(K)
    mag_s = np.sqrt(state.s * (state.s + 1.0))
    mag_l = np.sqrt(state.l * (state.l + 1.0))
    z = state.matrix.copy()
    w = np.empty_like(z)
    _to_frame(z, w, state.s, state.l)
    drift = 0.0
    for n in range(K):
        obs = observables(QuantumState(state.s, state.l, z.reshape(-1)))
        # (x, y, z)_lab = (z, x, y)_frame
        s_mean[n] = (obs.sz / mag_s, obs.sx / mag_s, obs.sy / mag_s)
        l_mean[n] = (obs.lz / mag_l, obs.lx / mag_l, obs.ly / mag_l)
        vs[n] = obs.var_norm_s
        vl[n] = obs.var_norm_l
        if n < n_kicks:
            _frame_kick(z, f, w)
            norm = np.linalg.norm(z)
            drift = max(drift, abs(norm - 1.0))
            z *= 1.0 / norm
    final = state
    if n_kicks:
        _to_lab(z, w, state.s, state.l)
        final = QuantumState(state.s, state.l, z.reshape(-1))
    return MomentSeries(
        s=state.s,
        l=state.l,
        s_tilde_mean=s_mean,
        l_tilde_mean=l_mean,
        var_norm_s=vs,
        var_norm_l=vl,
        pz_final=marginal_pz(final),
        final=final,
        norm_drift=float(drift),
    )
