"""Classical Liouville dynamics by Monte Carlo trajectory ensembles.

The initial phase-space density for each spin is matched to the quantum
coherent state of quantum number j: on the unit sphere, polarized along +z,

    rho(Jz~, phi) ~ exp[-(1 - Jz~)/sigma^2],   sigma^2 = 1 / (2 sqrt(j(j+1))),

then rigidly rotated to the polarization direction (theta0, phi0).  This
density is periodic under 2 pi rotation and reproduces the quantum ratio
<J_z>/<J_x^2>; its low moments are

    <J_z>_c = |J| G(sigma^2),      <J_x^2>_c = |J|^2 sigma^2 G(sigma^2),

with |J| = sqrt(j(j+1)).  Sampling uses the exact inverse CDF of the
truncated exponential in Jz~, so no rejection step is needed.

Ensembles are propagated with the stroboscopic map.  The Monte Carlo stream
is one ``PCG64(seed)`` sequence laid out in fixed-size chunks, each holding its
four draws (S's z and azimuth, then L's) one after another, so it is a function
of (seed, n_traj) alone.  No chunk is ever allocated: each fixed tile of
trajectories advances its own generator to its rows' offsets, draws them and
runs every kick on the forked worker processes that ``classical`` owns; the
per-tile moment sums are added in tile order, so results depend on the tile
size, never the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classical import ClassicalParams, _in_order, _map_cols
from .correspondence import MomentSeries

__all__ = [
    "MatchedDensityParams",
    "Ensemble",
    "AppendixMoments",
    "VectorModelMC",
    "sigma2_for",
    "big_g",
    "initial_offset_jz",
    "build_ensemble",
    "ensemble_evolve",
    "appendix_moments",
    "vector_model_mc",
]

_CHUNK = 1_000_000  # trajectories whose four draws follow one another in the stream
_TILE = 16_384  # trajectories drawn and propagated together through every kick


def sigma2_for(j: float) -> float:
    """Width parameter sigma^2 = 1/(2 sqrt(j(j+1))) matched to quantum number j."""
    if j < 0.5:
        raise ValueError("quantum number must be >= 1/2")
    return 1.0 / (2.0 * math.sqrt(j * (j + 1.0)))


def big_g(sigma2: float) -> float:
    """G(sigma^2) = [(1 + e^{-2/sigma^2}) / (1 - e^{-2/sigma^2})] - sigma^2.

    For sigma^2 below ~2.7e-3 the exponential underflows to zero and the
    expression reduces to the asymptotic 1 - sigma^2 branch exactly.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    e = math.exp(-2.0 / sigma2)
    return (1.0 + e) / (1.0 - e) - sigma2


@dataclass(frozen=True)
class MatchedDensityParams:
    """Initial single-spin density: quantum number, polarization axis, matched width."""

    j: float
    theta0: float = 0.0
    phi0: float = 0.0
    sigma2: float = field(init=False)  # sigma2_for(j)

    def __post_init__(self):
        object.__setattr__(self, "sigma2", sigma2_for(self.j))


def _polarized(params: MatchedDensityParams, u: np.ndarray, phi: np.ndarray):
    """Unit vectors of the matched density, shape (n, 3), from draws u in [0, 1) and azimuths phi.

    Inverse-CDF in z: with t = 1 - Jz~ truncated-exponentially distributed on
    [0, 2] with scale sigma^2, t = -sigma^2 log(1 - u (1 - e^{-2/sigma^2})).
    The cloud is then rotated by theta0 about y and phi0 about z.  Each vector
    depends on its own u and phi only, so a slice of the draws gives that
    slice of the vectors; u is overwritten.
    """
    s2 = params.sigma2
    trunc = -math.expm1(-2.0 / s2)  # 1 - e^{-2/sigma^2}
    z = u  # z = 1 - t, in place
    z *= -trunc
    np.log1p(z, out=z)
    z *= s2
    z += 1.0
    np.clip(z, -1.0, 1.0, out=z)
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    vec = np.empty((len(z), 3))
    vec[:, 0] = rho * np.cos(phi)
    vec[:, 1] = rho * np.sin(phi)
    vec[:, 2] = z
    ct, st = math.cos(params.theta0), math.sin(params.theta0)
    cp, sp = math.cos(params.phi0), math.sin(params.phi0)
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return vec @ (rz @ ry).T


def initial_offset_jz(j: float) -> float:
    """Closed-form |<J_z> - <J_z>_c| at theta = 0: |j - sqrt(j(j+1)) G(sigma^2)|.

    Expands to 1/(8j) + O(j^-2) for the matched width.
    """
    s2 = sigma2_for(j)
    return abs(j - math.sqrt(j * (j + 1.0)) * big_g(s2))


@dataclass(frozen=True)
class Ensemble:
    """A reproducible trajectory ensemble on S^2 x S^2.

    Initial conditions are the product of two matched densities (one per
    spin).  Nothing is drawn here: :func:`ensemble_evolve`'s tiles each draw
    their own rows of the seeded stream, so arbitrarily large ensembles run in
    bounded memory.
    """

    s_density: MatchedDensityParams
    l_density: MatchedDensityParams
    n_traj: int
    seed: int

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")


def build_ensemble(
    s: float,
    l: float,
    theta_s: float,
    phi_s: float,
    theta_l: float,
    phi_l: float,
    n_traj: int,
    seed: int,
) -> Ensemble:
    """Ensemble matched to coherent states of (s, l) polarized along the given angles."""
    return Ensemble(
        s_density=MatchedDensityParams(s, theta_s, phi_s),
        l_density=MatchedDensityParams(l, theta_l, phi_l),
        n_traj=n_traj,
        seed=seed,
    )


def _moments_from_sums(sums, n):
    """Mean vector, per-component SE, normalized variance and its SE.

    ``sums`` is (K, 9): the raw sums of x, y, z, xx, yy, zz, xy, xz, yz.  The
    normalized variance is 1 - |<~J>_c|^2, since the Casimir is exact
    trajectory by trajectory; its SE is the delta method applied to the
    mean-vector covariance.
    """
    mu = sums[:, :3] / n                                     # (K, 3)
    m2 = sums[:, [3, 6, 7, 6, 4, 8, 7, 8, 5]].reshape(-1, 3, 3) / n
    cov_mean = (m2 - np.einsum("ka,kb->kab", mu, mu)) / n
    se = np.sqrt(np.maximum(np.einsum("kaa->ka", cov_mean), 0.0))
    var_norm = 1.0 - np.einsum("ka,ka->k", mu, mu)
    var_se = 2.0 * np.sqrt(np.maximum(np.einsum("ka,kab,kb->k", mu, cov_mean, mu), 0.0))
    return mu, se, var_norm, var_se


def _tile_sums(task, ens: Ensemble, p: ClassicalParams, n_kicks: int):
    """Draw one tile and run every kick on it; its (K, 2, 9) raw sums and final L_z counts.

    ``task`` is ``(b, m, i, t)``: rows i .. i + t of the chunk of m trajectories
    that starts at trajectory b.  The stream gives each double one PCG64 output,
    and that chunk's draws sit at offsets 4b (S's z), 4b + m (S's azimuth),
    4b + 2m and 4b + 3m (L's), so the tile reads each from a generator advanced
    past the rows before it.  The products are summed by ``einsum``'s own loops,
    not BLAS: a threaded BLAS dot in each forked worker would oversubscribe the
    cores, and its sums would depend on the BLAS thread count.
    """
    b, m, i, t = task
    draws = [np.random.Generator(np.random.PCG64(ens.seed).advance(4 * b + k * m + i))
             for k in range(4)]
    cols = np.empty((6, t))
    for k, density in enumerate((ens.s_density, ens.l_density)):
        u, phi = draws[2 * k].random(t), draws[2 * k + 1].uniform(0.0, 2.0 * np.pi, t)
        cols[3 * k:3 * k + 3] = _polarized(density, u, phi).T
    sums = np.empty((n_kicks + 1, 2, 9))
    dot = partial(np.einsum, "i,i")
    for n in range(n_kicks + 1):
        for spin, (x, y, z) in enumerate((cols[:3], cols[3:])):
            sums[n, spin] = (x.sum(), y.sum(), z.sum(), dot(x, x), dot(y, y), dot(z, z),
                             dot(x, y), dot(x, z), dot(y, z))
        if n < n_kicks:
            cols = _map_cols(*cols, p)
    return sums, _pz_counts(cols[5], ens.l_density.j)


def ensemble_evolve(ens: Ensemble, p: ClassicalParams, n_kicks: int) -> MomentSeries:
    """Propagate every trajectory and record moments at kicks 0..n_kicks.

    Each chunk of the stream is cut into tiles of ``_TILE`` trajectories, and
    each tile draws its own rows and runs all kicks in one process of the
    ``classical`` pool, recording raw moment sums per kick and binning its L_z
    after the last kick with ``_pz_counts``.  The tile sums are added in tile
    order, so results depend on the tile size but not on the worker count, and
    are byte-identical across runs with the same (seed, n_traj).
    """
    if n_kicks < 0:
        raise ValueError("n_kicks must be >= 0")
    tasks = []
    for b in range(0, ens.n_traj, _CHUNK):
        m = min(_CHUNK, ens.n_traj - b)
        tasks += [(b, m, i, min(_TILE, m - i)) for i in range(0, m, _TILE)]
    sums = np.zeros((n_kicks + 1, 2, 9))
    pz_counts = 0
    for tile_sums, counts in _in_order(lambda task: _tile_sums(task, ens, p, n_kicks), tasks):
        sums += tile_sums
        pz_counts += counts
    n_traj = ens.n_traj
    s_mu, s_se, s_var, s_var_se = _moments_from_sums(sums[:, 0], n_traj)
    l_mu, l_se, l_var, l_var_se = _moments_from_sums(sums[:, 1], n_traj)
    return MomentSeries(
        s=ens.s_density.j,
        l=ens.l_density.j,
        s_tilde_mean=s_mu,
        l_tilde_mean=l_mu,
        var_norm_s=s_var,
        var_norm_l=l_var,
        pz_final=pz_counts / n_traj,
        s_tilde_se=s_se,
        l_tilde_se=l_se,
        var_norm_s_se=s_var_se,
        var_norm_l_se=l_var_se,
    )


def _pz_counts(lz_tilde: np.ndarray, l: float) -> np.ndarray:
    """Integer counts of L_z = sqrt(l(l+1)) Lz~ in 2l+1 unit bins, descending m_l.

    The bins are centered on m_l; values in the sliver |L_z| in (l, |L|] are
    clamped into the end bins.
    """
    dim = int(round(2 * l)) + 1
    lz = math.sqrt(l * (l + 1.0)) * lz_tilde.reshape(-1)
    idx = np.rint(l - lz).astype(np.int64)  # descending index i = l - m
    np.clip(idx, 0, dim - 1, out=idx)
    return np.bincount(idx, minlength=dim)


# ---------------------------------------------------------------------------
# the sphere-moment obstruction (vector-model closed forms)


@dataclass(frozen=True)
class AppendixMoments:
    """Quantum vs classical x-axis moments of a z-polarized state of spin j.

    No classical density on the sphere reproduces the quantum fourth moment;
    the closed forms quantify the obstruction: <J_x^4> = 3j^2/4 - j/4 against
    <J_x^4>_c = 3j^2/8, while the second moments agree at j/2.
    """

    j: float
    qm_jx2: float
    qm_jx4: float
    cl_jx2: float
    cl_jx4: float
    delta_jx4: float


def appendix_moments(j: float) -> AppendixMoments:
    if j < 0.5:
        raise ValueError("quantum number must be >= 1/2")
    return AppendixMoments(
        j=j,
        qm_jx2=j / 2.0,
        qm_jx4=3.0 * j * j / 4.0 - j / 4.0,
        cl_jx2=j / 2.0,
        cl_jx4=3.0 * j * j / 8.0,
        delta_jx4=abs(3.0 * j * j / 8.0 - j / 4.0),
    )


@dataclass(frozen=True)
class VectorModelMC:
    """Monte Carlo x-moments over the vector-model cone distribution."""

    j: float
    n_samples: int
    jx2: float
    jx2_se: float
    jx4: float
    jx4_se: float


def vector_model_mc(j: float, n_samples: int, seed: int) -> VectorModelMC:
    """Sample the vector-model density: fixed cone cos(theta0) = j/|J|, uniform phi.

    Checks the classical closed forms <J_x^2>_c = j/2, <J_x^4>_c = 3j^2/8 by
    direct simulation.
    """
    rng = np.random.default_rng(seed)
    mag = math.sqrt(j * (j + 1.0))
    sin_theta0 = math.sqrt(max(1.0 - (j / mag) ** 2, 0.0))
    jx = mag * sin_theta0 * np.cos(rng.uniform(0.0, 2.0 * np.pi, n_samples))
    jx2 = jx * jx
    jx4 = jx2 * jx2
    return VectorModelMC(
        j=j,
        n_samples=n_samples,
        jx2=float(jx2.mean()),
        jx2_se=float(jx2.std(ddof=1) / math.sqrt(n_samples)),
        jx4=float(jx4.mean()),
        jx4_se=float(jx4.std(ddof=1) / math.sqrt(n_samples)),
    )
