"""Classical stroboscopic dynamics of the coupled kicked spins on S^2 x S^2.

State layout: a spin pair is an array whose last axis holds the six
components ``(Sx, Sy, Sz, Lx, Ly, Lz)`` of the two *unit* vectors; any number
of leading batch axes is allowed.  One kick period maps

    S -> Rz(a) Rx(gamma r Lx) S,      L -> Rz(a) Rx(gamma Sx) L,

with both x-rotation angles taken from the pre-kick components.  The three
dimensionless parameters are the free-rotation angle ``a``, the scaled
coupling ``gamma = c |S|`` and the magnitude ratio ``r = |L|/|S| >= 1``.

Canonical coordinates are the normalized chart ``(Sz, phi_s, Lz, phi_l)``
with ``Sz, Lz`` in [-1, 1]; the invariant measure is uniform in these four
variables.

This module owns the package's one pool of forked workers, ``_in_order``: batched
Lyapunov exponents and ``liouville``'s ensemble tiles run on it in blocks, and
their results do not depend on the worker count.  One Lyapunov trajectory steps
as Python floats through the same kernels with ``math``'s cos, sin and sqrt, bit
for bit a batch of one where numpy's ones call libm (checked: numpy 2.4.6, glibc
2.36, x86-64 AVX-512); its log stays ``np.log``, which ``math.log`` does not match.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClassicalParams",
    "RegimeScanResult",
    "map_step",
    "angles_to_state",
    "state_to_canonical",
    "canonical_to_state",
    "tangent_apply",
    "fixed_point_state",
    "fixed_point_eigenvalues",
    "characteristic_poly",
    "parallel_instability_onset",
    "lyapunov_exponent",
    "regime_scan",
]

_WORKERS = min(2, len(os.sched_getaffinity(0)))  # processes that run batch blocks

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"


@dataclass(frozen=True)
class ClassicalParams:
    """Map parameters (a, gamma, r); a in [0, 2pi), r >= 1."""

    a: float
    gamma: float
    r: float = 1.0
    cos_a: float = field(init=False, repr=False, compare=False)  # cos(a), sin(a): set once below
    sin_a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.a < 2.0 * np.pi:
            raise ValueError(f"rotation angle a={self.a} outside [0, 2*pi)")
        if self.r < 1.0:
            raise ValueError(f"magnitude ratio r={self.r} must be >= 1")
        if not np.isfinite(self.gamma):
            raise ValueError("coupling gamma must be finite")
        object.__setattr__(self, "cos_a", math.cos(self.a))
        object.__setattr__(self, "sin_a", math.sin(self.a))


def _in_order(fn, blocks):
    """``[fn(b) for b in blocks]`` on up to ``_WORKERS`` processes; inline for one.

    Block i runs in process i % workers, the caller taking share 0.  A forked
    child reads its blocks copy-on-write, pipes back its pickled results or
    exception and ends in ``os._exit``, so no caller code (a tracer, pytest) runs
    in it; it dies with the caller.  Workers call only private names.  A child that
    ends without a result (killed, or its exception unpicklable) is named in a ``RuntimeError``.
    """
    workers = min(_WORKERS, len(blocks))
    if workers < 2:
        return list(map(fn, blocks))
    import ctypes, pickle, signal

    parent, kids, results = os.getpid(), [], [None] * len(blocks)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                code = 1  # until the result is written
                try:
                    ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))  # PR_SET_PDEATHSIG
                    if os.getppid() == parent:  # else the caller died before the prctl
                        with open(w, "wb") as f:
                            try:
                                out = [fn(b) for b in blocks[k::workers]]
                            except BaseException as e:  # re-raised in the caller
                                out = e
                            pickle.dump(out, f)
                        code = 0
                finally:
                    os._exit(code)
            os.close(w)
            kids.append((pid, open(r, "rb")))
        results[::workers] = map(fn, blocks[::workers])
        for k, (pid, f) in enumerate(kids, 1):
            try:
                out = pickle.load(f)
            except (EOFError, pickle.UnpicklingError) as e:
                kids.remove((pid, f))  # reaped here, not again below
                f.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"exit status {code}" if code >= 0 else f"signal {signal.Signals(-code).name}"
                raise RuntimeError(f"pool worker {k} (pid {pid}) gave no result: {how}") from e
            if isinstance(out, BaseException):
                raise out
            results[k::workers] = out
        return results
    finally:
        for pid, f in kids:
            os.kill(pid, signal.SIGKILL)  # no-op for a child that is done; ends one still running
            f.close()
            os.waitpid(pid, 0)


def _split(x):
    x = np.asarray(x, dtype=float)
    return (x[..., 0], x[..., 1], x[..., 2], x[..., 3], x[..., 4], x[..., 5])


def _x_rotations(sx, sy, sz, lx, ly, lz, p: ClassicalParams, xp=np):
    """The kick's x-rotations, with both angles from the pre-kick components.

    Returns ``(cal, sal, cbe, sbe, syr, szr, lyr, lzr)``: cos/sin of the
    S angle gamma r Lx and of the L angle gamma Sx, and the rotated (y, z)
    components of S and L; ``xp`` (``np``, or ``math`` for one state) supplies cos, sin.
    """
    alpha = (p.gamma * p.r) * lx
    beta = p.gamma * sx
    cal, sal = xp.cos(alpha), xp.sin(alpha)
    cbe, sbe = xp.cos(beta), xp.sin(beta)
    return (
        cal, sal, cbe, sbe,
        sy * cal - sz * sal, sz * cal + sy * sal,
        ly * cbe - lz * sbe, lz * cbe + ly * sbe,
    )


def _map_cols(sx, sy, sz, lx, ly, lz, p: ClassicalParams, renormalize=True, rot=None, xp=np):
    """Kernel for one kick on component arrays (any matching shapes) or floats.

    ``rot`` is this state's :func:`_x_rotations`, if the caller already has it.
    """
    if rot is None:
        rot = _x_rotations(sx, sy, sz, lx, ly, lz, p, xp)
    syr, szr, lyr, lzr = rot[4:]
    ca, sa = p.cos_a, p.sin_a
    nsx = sx * ca - syr * sa
    nsy = syr * ca + sx * sa
    nlx = lx * ca - lyr * sa
    nly = lyr * ca + lx * sa

    if renormalize:
        ns = xp.sqrt(nsx * nsx + nsy * nsy + szr * szr)
        nl = xp.sqrt(nlx * nlx + nly * nly + lzr * lzr)
        return nsx / ns, nsy / ns, szr / ns, nlx / nl, nly / nl, lzr / nl
    return nsx, nsy, szr, nlx, nly, lzr


def map_step(x, p: ClassicalParams, renormalize: bool = True):
    """One kick period of the six-component stroboscopic map.

    With ``renormalize`` (the default) both unit vectors are rescaled to
    norm 1 after the step, which pins down rounding drift over 1e5-step runs.
    The update itself is an exact pair of rotations, so the rescaling only
    removes float noise.
    """
    return np.stack(_map_cols(*_split(x), p, renormalize=renormalize), axis=-1)


# ---------------------------------------------------------------------------
# coordinate charts


def angles_to_state(theta_s, phi_s, theta_l, phi_l):
    """Unit spin pair from spherical angles (radians)."""
    ts, ps, tl, pl = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (theta_s, phi_s, theta_l, phi_l))
    )
    return np.stack(
        [np.sin(ts) * np.cos(ps), np.sin(ts) * np.sin(ps), np.cos(ts),
         np.sin(tl) * np.cos(pl), np.sin(tl) * np.sin(pl), np.cos(tl)],
        axis=-1,
    )


def state_to_canonical(x):
    """Normalized canonical chart (Sz, phi_s, Lz, phi_l), phi in [0, 2pi).

    Returns ``(canonical, at_pole)``: at a pole the azimuth is undefined and
    is reported as 0.0 with the corresponding flag set.
    """
    sx, sy, sz, lx, ly, lz = _split(x)
    phi_s = np.mod(np.arctan2(sy, sx), 2.0 * np.pi)
    phi_l = np.mod(np.arctan2(ly, lx), 2.0 * np.pi)
    pole_s = (sx == 0.0) & (sy == 0.0)
    pole_l = (lx == 0.0) & (ly == 0.0)
    canon = np.stack([sz, phi_s, lz, phi_l], axis=-1)
    return canon, np.stack([pole_s, pole_l], axis=-1)


def canonical_to_state(c):
    """Inverse of :func:`state_to_canonical`."""
    c = np.asarray(c, dtype=float)
    sz, phi_s, lz, phi_l = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    rho_s = np.sqrt(np.maximum(1.0 - sz * sz, 0.0))
    rho_l = np.sqrt(np.maximum(1.0 - lz * lz, 0.0))
    return np.stack(
        [rho_s * np.cos(phi_s), rho_s * np.sin(phi_s), sz,
         rho_l * np.cos(phi_l), rho_l * np.sin(phi_l), lz],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# tangent dynamics


def _tangent_apply_cols(rot, v_cols, p: ClassicalParams):
    """Apply the tangent map to displacement columns, no 6x6 build.

    ``rot`` is the :func:`_x_rotations` of the state the map is linearized at.
    """
    cal, sal, cbe, sbe, syr, szr, lyr, lzr = rot
    dsx, dsy, dsz, dlx, dly, dlz = v_cols
    ca, sa = p.cos_a, p.sin_a
    gr = p.gamma * p.r

    dsyr = dsy * cal - dsz * sal - gr * szr * dlx
    dszr = dsz * cal + dsy * sal + gr * syr * dlx
    dlyr = dly * cbe - dlz * sbe - p.gamma * lzr * dsx
    dlzr = dlz * cbe + dly * sbe + p.gamma * lyr * dsx
    return (
        dsx * ca - dsyr * sa,
        dsyr * ca + dsx * sa,
        dszr,
        dlx * ca - dlyr * sa,
        dlyr * ca + dlx * sa,
        dlzr,
    )


def tangent_apply(x, v, p: ClassicalParams):
    """M(x) @ v for the Jacobian M = dF/dx of the six update equations.

    M is the derivative of the raw equations (no renormalization); on the spin
    spheres it coincides with the physical tangent dynamics.  It is never
    built as a matrix; batched like map_step.
    """
    return np.stack(_tangent_apply_cols(_x_rotations(*_split(x), p), _split(v), p), axis=-1)


# ---------------------------------------------------------------------------
# trivial fixed points


def fixed_point_state(kind: str):
    """The pole fixed point of ``kind`` PARALLEL (both spins up) or ANTIPARALLEL (S up, L down)."""
    if kind == PARALLEL:
        return np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    if kind == ANTIPARALLEL:
        return np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])
    raise ValueError(f"unknown fixed point class {kind!r}")


def characteristic_poly(xi, p: ClassicalParams, kind: str):
    """[xi^2 - 2 xi cos a + 1]^2 -/+ xi^2 gamma^2 r sin^2 a (parallel/antiparallel)."""
    sign = -1.0 if kind == PARALLEL else 1.0
    quad = xi * xi - 2.0 * np.cos(p.a) * xi + 1.0
    return quad * quad + sign * xi * xi * p.gamma**2 * p.r * np.sin(p.a) ** 2


def fixed_point_eigenvalues(p: ClassicalParams, kind: str):
    """The four non-trivial tangent-map eigenvalues at a pole fixed point.

    Roots of the quartic characteristic polynomial; the two trivial unit
    eigenvalues along the sphere normals are suppressed.
    """
    if kind not in (PARALLEL, ANTIPARALLEL):
        raise ValueError(f"unknown fixed point class {kind!r}")
    sign = -1.0 if kind == PARALLEL else 1.0
    c = np.cos(p.a)
    coeffs = [
        1.0,
        -4.0 * c,
        4.0 * c * c + 2.0 + sign * p.gamma**2 * p.r * np.sin(p.a) ** 2,
        -4.0 * c,
        1.0,
    ]
    return np.roots(coeffs)


def parallel_instability_onset(a: float, r: float, gamma_max: float = 10.0, tol: float = 1e-9):
    """Smallest gamma > 0 at which the parallel fixed point loses stability.

    Bisects on max|xi| > 1 + tol.  Returns ``nan`` if the point is still
    stable at ``gamma_max``.
    """
    def unstable(g):
        xi = fixed_point_eigenvalues(ClassicalParams(a, g, r), PARALLEL)
        return np.max(np.abs(xi)) > 1.0 + tol

    lo, hi = 0.0, gamma_max
    if not unstable(hi):
        return float("nan")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Lyapunov exponents


def lyapunov_exponent(
    x0, p: ClassicalParams, n_steps: int, renorm_every: int = 1, checkpoints=None
):
    """Largest Lyapunov exponent via tangent-vector stretching.

    The displacement starts as the unit vector along dSx, evolves with the
    tangent map along the fiducial trajectory, and its 1-norm stretching
    factor is accumulated in log space with periodic renormalization
    (Benettin et al., Meccanica 15, 9 (1980)):
    lambda = (1/N) * sum of log per-step 1-norm growth.

    ``x0`` may be a single state of shape (6,) or a batch (B, 6); the return
    is a float or a (B,) array accordingly.  A single state steps as six Python
    floats through the same kernels, with ``math``'s cos, sin and sqrt, and
    equals ``x0[None]`` bit for bit where numpy's float64 ones call libm (checked
    on 2e6 arguments each with numpy 2.4.6 and glibc 2.36 on x86-64 with AVX-512).
    The log stays ``np.log``, as ``math.log`` differs from numpy's SIMD log by one
    ulp on about 0.1 % of arguments.  A batch runs in one block per worker of this
    module's pool; each exponent is elementwise, so the result does not depend on
    the worker count.

    ``checkpoints``, an increasing sequence of step counts in [1, n_steps],
    makes one pass return the running exponent at each of them, shape (K,)
    or (K, B); each value equals that of a fresh call with ``n_steps`` set to
    the checkpoint, bit for bit, including the log of the partial stretch
    since the last renormalization.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if renorm_every < 1:
        raise ValueError("renorm_every must be >= 1")
    marks = [n_steps] if checkpoints is None else [int(k) for k in checkpoints]
    if not marks or marks[0] < 1 or marks[-1] > n_steps or np.any(np.diff(marks) < 1):
        raise ValueError("checkpoints must increase strictly within [1, n_steps]")
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    blocks = [x0] if single else np.array_split(x0, max(1, min(_WORKERS, len(x0))))
    try:
        lam = np.hstack(_in_order(lambda b: _lyapunov_marks(b, p, marks, renorm_every), blocks))
    except (ValueError, ZeroDivisionError) as e:  # math's 0/0 or cos(inf) on one state
        if not single:
            raise
        raise FloatingPointError("non-finite tangent growth in Lyapunov accumulation") from e
    if not np.all(np.isfinite(lam)):
        raise FloatingPointError("non-finite tangent growth in Lyapunov accumulation")
    if checkpoints is not None:
        return lam
    return float(lam[0]) if single else lam[0]


def _lyapunov_marks(x0, p: ClassicalParams, marks, renorm_every: int):
    """Running exponents of a state (6,) or block (b, 6) at ``marks``, shape (K,) or (K, b)."""
    single = x0.ndim == 1
    xp = math if single else np
    state = tuple(x0.tolist()) if single else _split(x0.copy())
    zero = 0.0 if single else np.zeros(x0.shape[0])
    v = [zero + 1.0] + [zero] * 5
    log_sum = zero + 0.0  # its own buffer: the batched += is in place
    running = []
    since_renorm = 0
    for step in range(1, marks[-1] + 1):
        rot = _x_rotations(*state, p, xp)
        v = _tangent_apply_cols(rot, v, p)
        state = _map_cols(*state, p, rot=rot, xp=xp)
        since_renorm += 1
        # the 1-norm left to right: on floats, sum() compensates from Python 3.12
        if since_renorm == renorm_every or step == marks[len(running)]:
            d = abs(v[0]) + abs(v[1]) + abs(v[2]) + abs(v[3]) + abs(v[4]) + abs(v[5])
        if since_renorm == renorm_every:
            log_sum += np.log(d)
            v = [c / d for c in v]
            since_renorm = 0
        if step == marks[len(running)]:
            total = log_sum + np.log(d) if since_renorm else log_sum
            running.append(total / step)
    return np.array(running)


@dataclass(frozen=True)
class RegimeScanResult:
    """Per-sample Lyapunov exponents over canonically sampled initial conditions."""

    points: np.ndarray        # (n, 4) canonical coordinates (Sz, phi_s, Lz, phi_l)
    lambdas: np.ndarray       # (n,)
    lambda_threshold: float
    n_steps: int
    seed: int

    @property
    def chaotic_mask(self) -> np.ndarray:
        return self.lambdas > self.lambda_threshold

    @property
    def chaotic_fraction(self) -> float:
        return float(np.mean(self.chaotic_mask))


def regime_scan(
    p: ClassicalParams,
    n_samples: int,
    n_steps: int = 10_000,
    lambda_threshold: float = 0.005,
    seed: int = 0,
) -> RegimeScanResult:
    """Classify randomly sampled initial conditions as chaotic or regular.

    Sampling is uniform in the canonical measure d(Sz) d(phi_s) d(Lz) d(phi_l);
    a trajectory counts as chaotic when its n_steps-step Lyapunov estimate
    exceeds ``lambda_threshold``.  Deterministic for a given seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    canon = np.empty((n_samples, 4))
    canon[:, 0] = rng.uniform(-1.0, 1.0, n_samples)
    canon[:, 1] = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    canon[:, 2] = rng.uniform(-1.0, 1.0, n_samples)
    canon[:, 3] = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    lams = lyapunov_exponent(canonical_to_state(canon), p, n_steps)
    return RegimeScanResult(
        points=canon,
        lambdas=np.asarray(lams),
        lambda_threshold=lambda_threshold,
        n_steps=n_steps,
        seed=seed,
    )
