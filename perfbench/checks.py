"""Correctness checks for the benchmark workloads.

Each check reads the files one CLI invocation wrote and compares them with a
computation made here, without spinchaos code, or with a property the method
must have. None of them compares with a stored copy of an earlier output.
A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by spinchaos (header row, numeric body)."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(body.shape[1] == len(names), f"{path.name}: {body.shape[1]} columns, header has {len(names)}")
    return {name: body[:, i] for i, name in enumerate(names)}


_SUMMARY_LINE = re.compile(r"^(.*?) = ([-+0-9.eEinfa]+)")


def read_summary(path: Path) -> dict[str, float]:
    """The ``label = number`` lines of a summary.txt."""
    values = {}
    for line in Path(path).read_text().splitlines():
        match = _SUMMARY_LINE.match(line)
        if match:
            values[match.group(1)] = float(match.group(2))
    return values


# ---------------------------------------------------------------------------
# quantum: a dense reference evolution


def spin_matrices(j: float):
    """Dense (J_x, J_y, J_z) over descending m = j..-j, from the ladder operator."""
    m = j - np.arange(int(round(2 * j)) + 1)
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)  # <m+1|J_+|m>
    return (jp + jp.T) / 2.0, (jp - jp.T) / 2.0j, np.diag(m)


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for a Hermitian H, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def reference_coherent(j: float, theta: float, phi: float) -> np.ndarray:
    """exp(-i phi J_z) exp(-i theta J_y) |j, j> over descending m."""
    _, jy, jz = spin_matrices(j)
    return np.exp(-1j * phi * np.diag(jz)) * _expm_hermitian(jy, theta)[:, 0]


def reference_evolution(s, l, a, gamma, angles_deg, n_kicks) -> np.ndarray:
    """psi after n_kicks of F = exp[-i a (S_z + L_z)] exp[-i c S_x L_x], c = gamma/|S|.

    The interaction is applied in the eigenbases of S_x and L_x, found by
    ``numpy.linalg.eigh``; the state is the (2s+1, 2l+1) amplitude matrix.
    """
    th_s, ph_s, th_l, ph_l = np.deg2rad(angles_deg)
    c = gamma / math.sqrt(s * (s + 1.0))
    sx, _, sz = spin_matrices(s)
    lx, _, lz = spin_matrices(l)
    es, us = np.linalg.eigh(sx)
    el, ul = np.linalg.eigh(lx)
    interaction = np.exp(-1j * c * np.outer(es, el))
    free = np.exp(-1j * a * (np.diag(sz)[:, None] + np.diag(lz)[None, :]))
    psi = np.outer(reference_coherent(s, th_s, ph_s), reference_coherent(l, th_l, ph_l))
    for _ in range(n_kicks):
        psi = us @ (interaction * (us.T @ psi @ ul)) @ ul.T
        psi = free * psi
    return psi


def reference_moments(psi: np.ndarray, s: float, l: float) -> dict[str, float]:
    """<S>, <L> and normalized variances of a state matrix, with dense matrices."""
    out = {}
    for label, j, side in (("S", s, 0), ("L", l, 1)):
        mean = []
        for comp, mat in zip("xyz", spin_matrices(j)):
            applied = mat @ psi if side == 0 else psi @ mat.T
            value = float(np.vdot(psi, applied).real)
            out[f"{label}{comp}_mean"] = value
            mean.append(value)
        out[f"{label}var_norm"] = 1.0 - float(np.dot(mean, mean)) / (j * (j + 1.0))
    return out


def check_quantum(outdir: Path, s, l, a, gamma, angles_deg, n_kicks, reference: np.ndarray) -> None:
    """state_final.csv, qmoments.csv and pz_final.csv of a quantum run with both dumps."""
    ns, nl = int(round(2 * s)) + 1, int(round(2 * l)) + 1
    state = read_csv(outdir / "state_final.csv")
    require(state["re"].size == ns * nl, f"state_final.csv has {state['re'].size} rows, expected {ns * nl}")
    require(
        np.array_equal(state["m_s"], np.repeat(s - np.arange(ns), nl))
        and np.array_equal(state["m_l"], np.tile(l - np.arange(nl), ns)),
        "state_final.csv rows are not ordered m_s-major with descending m",
    )
    psi = (state["re"] + 1j * state["im"]).reshape(ns, nl)
    err = float(np.max(np.abs(psi - reference)))
    require(err < 1e-9, f"final amplitudes differ from the dense reference by {err:.3g}")

    moments = read_csv(outdir / "qmoments.csv")
    require(
        np.array_equal(moments["n"], np.arange(n_kicks + 1)),
        f"qmoments.csv rows are not kicks 0..{n_kicks}",
    )
    for key, value in reference_moments(reference, s, l).items():
        tol = 1e-10 if key.endswith("var_norm") else 1e-8
        got = moments[key][-1]
        require(abs(got - value) < tol, f"final {key} = {got!r}, dense reference {value!r}")

    th_s, ph_s, th_l, ph_l = np.deg2rad(angles_deg)
    for label, j, th, ph in (("S", s, th_s, ph_s), ("L", l, th_l, ph_l)):
        closed = j * np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
        for comp, value in zip("xyz", closed):
            got = moments[f"{label}{comp}_mean"][0]
            require(abs(got - value) < 1e-9 * j, f"kick-0 {label}{comp}_mean = {got!r}, coherent state {value!r}")
        got = moments[f"{label}var_norm"][0]
        require(abs(got - 1.0 / (j + 1.0)) < 1e-12, f"kick-0 {label}var_norm = {got!r}, expected 1/(j+1)")

    pz = read_csv(outdir / "pz_final.csv")
    require(np.array_equal(pz["m_l"], l - np.arange(nl)), "pz_final.csv m_l is not l..-l")
    colsum = np.sum(np.abs(psi) ** 2, axis=0)
    err = float(np.max(np.abs(pz["P"] - colsum)))
    require(err < 1e-12, f"pz_final.csv differs from the column sums of |psi|^2 by {err:.3g}")
    require(abs(pz["P"].sum() - 1.0) < 1e-12, f"pz_final.csv sums to {pz['P'].sum()!r}")


# ---------------------------------------------------------------------------
# break-scaling


LAMBDA_QC = 0.43         # criterion 6
LAMBDA_QC_BAND = 0.08    # break-time scaling fit
DIRECT_BAND = 0.10       # direct fit at the largest fitted l
RMS_MAX_KICKS = 1.5      # t_b(l) about ln(8 p l) / lambda_qc; 0.70 at seed 12345


def check_break_scaling(outdir: Path, p: float, r_target: float) -> None:
    rows = read_csv(outdir / "breaktimes.csv")
    ls, ss, ts = rows["l"], rows["s"], rows["t_b"]
    require(bool(np.all(ts >= 1)), f"no break time at l = {ls[ts < 1].tolist()}")
    r = np.sqrt(ls * (ls + 1.0) / (ss * (ss + 1.0)))
    require(bool(np.all(np.abs(r - r_target) <= 0.05)), f"r = {r.tolist()} not within 0.05 of {r_target}")
    require(bool(np.allclose(rows["r"], r, rtol=1e-12, atol=0)), "breaktimes.csv r disagrees with its (l, s)")
    require(bool(np.all(rows["p"] == p)), f"breaktimes.csv p is not {p}")

    x = np.log(8.0 * p * ls)
    lam = float(np.dot(x, x) / np.dot(x, ts))  # least squares of t_b = x / lambda through 0
    require(abs(lam - LAMBDA_QC) <= LAMBDA_QC_BAND, f"break-scaling lambda_qc = {lam:.4f} outside {LAMBDA_QC} +- {LAMBDA_QC_BAND}")
    rms = float(np.sqrt(np.mean((ts - x / lam) ** 2)))
    require(rms <= RMS_MAX_KICKS, f"t_b(l) misses ln(8pl)/lambda_qc by {rms:.3f} kicks RMS (> {RMS_MAX_KICKS})")

    summary = read_summary(outdir / "summary.txt")
    reported = summary.get("lambda_qc (break-time scaling fit)")
    require(reported is not None and abs(reported - lam) <= 1e-5 * lam, f"summary lambda_qc {reported} != fit {lam:.6g}")
    fits = read_csv(outdir / "fits.csv")
    direct = float(fits["lambda_qc_direct"][-1])
    require(abs(direct - LAMBDA_QC) <= DIRECT_BAND, f"direct lambda_qc at l = {fits['l'][-1]:g} is {direct:.4f}, outside {LAMBDA_QC} +- {DIRECT_BAND}")
    reported = summary.get("lambda_qc (direct fit at largest fitted l)")
    require(reported is not None and abs(reported - direct) <= 1e-5 * direct, f"summary direct lambda_qc {reported} != fits.csv {direct:.6g}")


# ---------------------------------------------------------------------------
# lyapunov: explicit rotation matrices


def _rx(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _drx(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])


def reference_lyapunov(a, gamma, r, angles_deg, n_steps) -> float:
    """Largest Lyapunov exponent from 3x3 rotation matrices and their derivatives.

    One kick is S' = Rz(a) Rx(gamma r L_x) S and L' = Rz(a) Rx(gamma S_x) L;
    the 6x6 Jacobian is built from the rotations and d Rx / d angle. The
    tangent vector starts along dS_x and is rescaled to unit 1-norm after
    every kick; lambda is the mean log of those rescalings.
    """
    th_s, ph_s, th_l, ph_l = np.deg2rad(angles_deg)
    spin_s = np.array([math.sin(th_s) * math.cos(ph_s), math.sin(th_s) * math.sin(ph_s), math.cos(th_s)])
    spin_l = np.array([math.sin(th_l) * math.cos(ph_l), math.sin(th_l) * math.sin(ph_l), math.cos(th_l)])
    rz = np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])
    v = np.zeros(6)
    v[0] = 1.0
    log_sum = 0.0
    for _ in range(n_steps):
        alpha, beta = gamma * r * spin_l[0], gamma * spin_s[0]
        jac = np.zeros((6, 6))
        jac[:3, :3] = rz @ _rx(alpha)
        jac[:3, 3] = gamma * r * (rz @ _drx(alpha) @ spin_s)
        jac[3:, 3:] = rz @ _rx(beta)
        jac[3:, 0] = gamma * (rz @ _drx(beta) @ spin_l)
        v = jac @ v
        spin_s, spin_l = rz @ _rx(alpha) @ spin_s, rz @ _rx(beta) @ spin_l
        spin_s /= np.linalg.norm(spin_s)
        spin_l /= np.linalg.norm(spin_l)
        stretch = float(np.sum(np.abs(v)))
        log_sum += math.log(stretch)
        v /= stretch
    return log_sum / n_steps


def read_lyapunov(outdir: Path) -> tuple[np.ndarray, np.ndarray, float]:
    rows = read_csv(outdir / "lyapunov.csv")
    summary = read_summary(outdir / "summary.txt")
    require("lambda_L" in summary, "summary.txt has no lambda_L")
    return rows["n"], rows["lambda_running"], summary["lambda_L"]


def check_lyapunov(outdir: Path, n_steps: int, sample_every: int) -> float:
    """lyapunov.csv checkpoints and summary.txt agree; returns the final lambda."""
    ns, lams, lam = read_lyapunov(outdir)
    expected = np.arange(sample_every, n_steps + 1, sample_every)
    require(np.array_equal(ns, expected), f"lyapunov.csv rows n = {ns[:3].tolist()}..., expected every {sample_every} to {n_steps}")
    require(lams[-1] == lam, f"last lambda_running {lams[-1]!r} != summary lambda_L {lam!r}")
    require(lam > 0.0, f"lambda_L = {lam!r} is not positive for a chaotic initial condition")
    return lam


def check_lyapunov_same(lam: float, other: float) -> None:
    require(abs(lam - other) <= 1e-12 * abs(lam), f"final lambda {lam!r} with checkpoints, {other!r} without")


def check_lyapunov_reference(lam: float, reference: float) -> None:
    require(abs(lam - reference) <= 1e-9, f"lambda {lam!r} != explicit-matrix reference {reference!r}")


# ---------------------------------------------------------------------------
# regime scan


CHAOTIC_FRACTION = 0.999   # criterion 3, global regime
LAMBDA_GLOBAL = 0.45
LAMBDA_GLOBAL_BAND = 0.05
UNIFORM_SE = 5.0


def check_regime_scan(outdir: Path, n_samples: int) -> None:
    rows = read_csv(outdir / "scan.csv")
    lams, chaotic = rows["lambda"], rows["is_chaotic"]
    require(lams.size == n_samples, f"scan.csv has {lams.size} rows, expected {n_samples}")
    summary = read_summary(outdir / "summary.txt")
    threshold = summary["lambda_threshold"]
    require(np.array_equal(chaotic, (lams > threshold).astype(float)), "is_chaotic disagrees with lambda > lambda_threshold")
    frac = summary["chaotic_fraction"]
    require(abs(frac - chaotic.mean()) <= 1e-15, f"chaotic_fraction {frac!r} != mean(is_chaotic) {chaotic.mean()!r}")
    se = math.sqrt(CHAOTIC_FRACTION * (1.0 - CHAOTIC_FRACTION) / n_samples)
    require(frac >= CHAOTIC_FRACTION - 3.0 * se, f"chaotic fraction {frac:.5f} below {CHAOTIC_FRACTION} - 3 SE ({se:.2g})")
    median = float(np.median(lams))
    require(abs(median - LAMBDA_GLOBAL) <= LAMBDA_GLOBAL_BAND, f"median lambda {median:.4f} outside {LAMBDA_GLOBAL} +- {LAMBDA_GLOBAL_BAND}")
    # Uniform on an interval of width w: variance w^2/12, fourth central moment
    # w^4/80. At 4 SE a correct sampler fails on 9 of the seeds 0..19999 at
    # 8000 samples (the first is 151); at 5 SE on none, while a sampling
    # fault such as S_z = cos(uniform angle) misses its variance by 56 SE.
    for name, width in (("S_z", 2.0), ("L_z", 2.0), ("phi_s", 2.0 * math.pi), ("phi_l", 2.0 * math.pi)):
        x = rows[name]
        lo = -1.0 if name.endswith("_z") else 0.0
        var = width**2 / 12.0
        mean_se = math.sqrt(var / n_samples)
        var_se = math.sqrt((width**4 / 80.0 - var**2) / n_samples)
        require(abs(x.mean() - (lo + width / 2.0)) <= UNIFORM_SE * mean_se, f"{name} mean {x.mean():.4f} is not uniform")
        require(abs(x.var() - var) <= UNIFORM_SE * var_se, f"{name} variance {x.var():.4f} is not uniform ({var:.4f})")
