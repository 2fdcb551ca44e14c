"""Quantum-classical correspondence measures.

Everything here post-processes kick-indexed moment series: ``MomentSeries``
is the one record that quantum and ensemble runs both return.  The central
object is the difference measure

    delta_Lz(n) = | <L_z(n)>  -  <L_z(n)>_c |        (units of hbar = 1),

whose early-time growth in chaotic regimes follows the ansatz
delta_Lz(n) ~ (1/8l) exp(lambda_qc n) up to the saturation kick t*.  The
break-time t_b(l, p) is the first kick at which delta_Lz exceeds a tolerance
p, and scales as t_b ~ ln(8 p l)/lambda_qc while p stays below O(1).

Fit conventions (all exposed as parameters):

* kicks whose difference lies below ``noise_floor_mult`` times the classical
  Monte Carlo standard error are excluded from growth fits;
* the fit window ends at min(t*, first kick with delta > ``delta_cap``),
  where t* is detected as the first kick after which a trailing
  ``ma_window``-kick moving average of delta stops increasing;
* the growth-ansatz intercept defaults to the fixed value 1/(8l); a
  free-intercept mode exists for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MomentSeries",
    "DifferenceSeries",
    "GrowthFit",
    "BreakTimeRecord",
    "difference_series",
    "detect_saturation_kick",
    "fit_growth_exponent",
    "variance_growth_fit",
    "break_time",
    "fit_break_scaling",
    "saturation_time",
]


@dataclass(frozen=True)
class MomentSeries:
    """Normalized moments of spins S and L at kicks 0..K-1, from a quantum or an ensemble run.

    ``*_tilde_mean`` are the (K, 3) means <J_i>/sqrt(j(j+1)), ``var_norm_*``
    the (K,) normalized variances (<J^2> - |<J>|^2)/j(j+1), and ``pz_final``
    the L_z marginal after the last kick over descending m_l.  Ensemble runs
    add the Monte Carlo standard errors ``*_se``; quantum runs add the state
    after the last kick, ``final``, and the largest |norm - 1| of a kick
    before renormalization, ``norm_drift``.
    """

    s: float
    l: float
    s_tilde_mean: np.ndarray = field(repr=False)
    l_tilde_mean: np.ndarray = field(repr=False)
    var_norm_s: np.ndarray = field(repr=False)
    var_norm_l: np.ndarray = field(repr=False)
    pz_final: np.ndarray = field(repr=False)
    s_tilde_se: np.ndarray | None = field(default=None, repr=False)
    l_tilde_se: np.ndarray | None = field(default=None, repr=False)
    var_norm_s_se: np.ndarray | None = field(default=None, repr=False)
    var_norm_l_se: np.ndarray | None = field(default=None, repr=False)
    final: object = field(default=None, repr=False)  # quantum.QuantumState
    norm_drift: float | None = None

    @property
    def kicks(self) -> np.ndarray:
        return np.arange(len(self.var_norm_l))

    @property
    def mag_s(self) -> float:
        return math.sqrt(self.s * (self.s + 1.0))

    @property
    def mag_l(self) -> float:
        return math.sqrt(self.l * (self.l + 1.0))


@dataclass(frozen=True)
class DifferenceSeries:
    """|<L_z>| difference between a quantum and a classical run, per kick."""

    l: float
    mag_l: float
    kicks: np.ndarray
    delta: np.ndarray      # |q_lz - c_lz|, units of hbar
    q_lz: np.ndarray       # quantum <L_z>
    c_lz: np.ndarray       # classical <L_z>_c
    c_se: np.ndarray       # Monte Carlo SE of c_lz, same units


def difference_series(q_series: MomentSeries, c_series: MomentSeries) -> DifferenceSeries:
    """Unnormalized z-axis difference between matched quantum/classical runs.

    Both inputs carry normalized tilde moments; they must describe the same
    quantum number l and kick range.
    """
    if q_series.l_tilde_mean.shape[0] != c_series.l_tilde_mean.shape[0]:
        raise ValueError(
            f"series length mismatch: quantum {q_series.l_tilde_mean.shape[0]} vs "
            f"classical {c_series.l_tilde_mean.shape[0]}"
        )
    if q_series.l != c_series.l:
        raise ValueError(f"quantum and classical runs differ in l: {q_series.l} vs {c_series.l}")
    mag = q_series.mag_l
    q_lz = mag * q_series.l_tilde_mean[:, 2]
    c_lz = mag * c_series.l_tilde_mean[:, 2]
    c_se = mag * c_series.l_tilde_se[:, 2]
    return DifferenceSeries(
        l=q_series.l,
        mag_l=mag,
        kicks=q_series.kicks,
        delta=np.abs(q_lz - c_lz),
        q_lz=q_lz,
        c_lz=c_lz,
        c_se=c_se,
    )


def detect_saturation_kick(values: np.ndarray, ma_window: int = 5, start: int = 1) -> int:
    """First kick after which the trailing moving average stops increasing.

    Falls back to the last index when the average grows through the whole
    series.  ``start`` bounds the search from below (use the first kick that
    clears the noise floor).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return v.size - 1
    csum = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(v.size)
    lo = np.maximum(idx - ma_window + 1, 0)
    ma = (csum[idx + 1] - csum[lo]) / (idx - lo + 1)
    for n in range(max(start, 1), v.size - 1):
        if ma[n + 1] <= ma[n]:
            return n
    return v.size - 1


@dataclass(frozen=True)
class GrowthFit:
    """Exponential-growth fit ln y = ln(prefactor) + lam * n on a kick window."""

    lam: float
    prefactor: float
    window: tuple[int, int]
    residual: float
    n_points: int
    intercept_mode: str


def _fit_log_linear(ns, ys, fixed_intercept=None):
    logy = np.log(ys)
    if fixed_intercept is None:
        a = np.vstack([ns, np.ones_like(ns)]).T
        slope, icept = np.linalg.lstsq(a, logy, rcond=None)[0]
    else:
        icept = fixed_intercept
        slope = float(np.dot(ns, logy - icept) / np.dot(ns, ns))
    resid = logy - (icept + slope * ns)
    return float(slope), float(icept), float(np.sqrt(np.mean(resid**2)))


def fit_growth_exponent(
    d: DifferenceSeries,
    window: tuple[int, int] | None = None,
    intercept: str = "fixed",
    noise_floor_mult: float = 3.0,
    delta_cap: float = 0.3,
    ma_window: int = 5,
) -> GrowthFit:
    """Fit lambda_qc in delta(n) ~ (1/8l) exp(lambda_qc n).

    With ``window=None`` the window is [first kick above the noise floor,
    min(t*, first kick with delta > delta_cap)].  ``intercept`` is "fixed"
    (pinned at ln(1/8l)) or "free".
    """
    if intercept not in ("fixed", "free"):
        raise ValueError(f"unknown intercept mode {intercept!r}")
    delta = d.delta
    above = delta > noise_floor_mult * d.c_se
    if window is None:
        eligible = np.flatnonzero(above[1:]) + 1
        if eligible.size == 0:
            raise ValueError("no kicks above the Monte Carlo noise floor to fit")
        n_lo = int(eligible[0])
        t_star = detect_saturation_kick(delta, ma_window=ma_window, start=n_lo)
        over = np.flatnonzero(delta > delta_cap)
        n_hi = int(min(t_star, over[0] if over.size else len(delta) - 1))
    else:
        n_lo, n_hi = int(window[0]), int(window[1])
        if n_lo < 0 or n_hi >= len(delta):
            raise ValueError(f"window {window} outside series of length {len(delta)}")
    if n_hi < n_lo:
        raise ValueError(f"empty fit window [{n_lo}, {n_hi}]")
    ns = np.arange(n_lo, n_hi + 1)
    mask = above[ns] if window is None else np.ones(ns.size, dtype=bool)
    ns = ns[mask]
    ys = delta[ns]
    if np.any(ys <= 0.0):
        raise ValueError("fit window contains zero quantum-classical differences")
    if ns.size < 2:
        raise ValueError(f"need at least 2 usable kicks in the fit window, got {ns.size}")
    fixed = math.log(1.0 / (8.0 * d.l)) if intercept == "fixed" else None
    slope, icept, resid = _fit_log_linear(ns.astype(float), ys, fixed)
    return GrowthFit(
        lam=slope,
        prefactor=math.exp(icept),
        window=(int(ns[0]), int(ns[-1])),
        residual=resid,
        n_points=int(ns.size),
        intercept_mode=intercept,
    )


def variance_growth_fit(
    var_norm: np.ndarray,
    l: float,
    window: tuple[int, int] | None = None,
    saturation_threshold: float = 0.5,
) -> GrowthFit:
    """Fit lambda_w in the width-growth law var~(n) ~ (1/l) exp(2 lambda_w n).

    Ordinary least squares of ln(var~) against n on kicks before the variance
    reaches ``saturation_threshold``; the returned exponent is slope / 2.
    The automatic window starts at kick 1 (the 0 -> 1 step reflects the
    initial state's geometry more than the flow's stretching rate, mirroring
    the difference-fit convention) and ends on the last kick below threshold.
    """
    v = np.asarray(var_norm, dtype=float)
    if window is None:
        over = np.flatnonzero(v >= saturation_threshold)
        n_hi = int(over[0]) - 1 if over.size else v.size - 1
        n_lo = 1
    else:
        n_lo, n_hi = int(window[0]), int(window[1])
    if n_hi >= v.size or n_lo < 0:
        raise ValueError(f"window [{n_lo}, {n_hi}] outside series of length {v.size}")
    if n_hi - n_lo + 1 < 2:
        raise ValueError("variance fit needs at least 2 kicks before saturation")
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    ys = v[n_lo : n_hi + 1]
    if np.any(ys <= 0.0):
        raise ValueError("variance series contains non-positive entries in the window")
    slope, icept, resid = _fit_log_linear(ns, ys)
    return GrowthFit(
        lam=slope / 2.0,
        prefactor=math.exp(icept),
        window=(n_lo, n_hi),
        residual=resid,
        n_points=int(ns.size),
        intercept_mode="free",
    )


@dataclass(frozen=True)
class BreakTimeRecord:
    """First kick at which delta_Lz exceeds tolerance p, or None if never."""

    l: float
    p: float
    t_b: int | None

    @property
    def reached(self) -> bool:
        return self.t_b is not None


def break_time(d: DifferenceSeries, p: float) -> BreakTimeRecord:
    """Break-time t_b(l, p): first kick n >= 1 with delta(n) > p."""
    if p <= 0.0:
        raise ValueError("tolerance p must be positive")
    over = np.flatnonzero(d.delta[1:] > p)
    return BreakTimeRecord(l=d.l, p=p, t_b=int(over[0]) + 1 if over.size else None)


def fit_break_scaling(records: list[BreakTimeRecord]) -> float:
    """Fit lambda_qc in t_b = ln(8 p l) / lambda_qc across quantum numbers.

    The model is linear in 1/lambda_qc, so the least-squares solution through
    the origin is closed-form.  Requires >= 4 distinct reached l values at a
    common tolerance.
    """
    if any(not r.reached for r in records):
        raise ValueError("all break-time records must be reached to fit the scaling")
    ls = np.array([r.l for r in records], dtype=float)
    ps = np.array([r.p for r in records], dtype=float)
    ts = np.array([r.t_b for r in records], dtype=float)
    if np.unique(ls).size < 4:
        raise ValueError("need break times at >= 4 distinct quantum numbers")
    if np.unique(ps).size != 1:
        raise ValueError("break-time records mix different tolerances")
    if np.unique(ts).size == 1:
        raise ValueError(
            "degenerate fit: all break times equal; widen the range of l values"
        )
    x = np.log(8.0 * ps * ls)
    inv_lam = float(np.dot(x, ts) / np.dot(x, x))
    return 1.0 / inv_lam


def saturation_time(lambda_w: float, l: float) -> float:
    """Width-saturation estimate t_sat = ln(l) / (2 lambda_w)."""
    if lambda_w <= 0.0:
        raise ValueError("lambda_w must be positive")
    return math.log(l) / (2.0 * lambda_w)

