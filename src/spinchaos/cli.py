"""Batch driver: ``spinchaos <mode> --config <file> [--set key=value ...]``.

Modes
-----
quantum        exact Floquet evolution, per-kick moments -> qmoments.csv
classical-traj single stroboscopic trajectory            -> traj.csv
lyapunov       largest Lyapunov exponent of one IC       -> lyapunov.csv
regime-scan    chaotic fraction over sampled ICs         -> scan.csv
ensemble       Monte Carlo Liouville moments             -> cmoments.csv
compare        quantum vs ensemble + difference + fits   -> qmoments/cmoments/delta.csv, summary.txt
break-scaling  break-times across an l sweep + fits      -> breaktimes/fits.csv, summary.txt
appendix-check sphere-moment obstruction closed forms    -> appendix.csv, summary.txt

Configuration is a flat ``key = value`` text file ('#' comments); any key can
be overridden on the command line with ``--set key=value``.  Initial-condition
angles are given in degrees; the rotation parameter ``a`` is in radians.
Exactly one coupling parameterization may be given: quantum ``c`` or scaled
``gamma`` (they convert via gamma = c sqrt(s(s+1))).

Every run writes ``manifest.txt`` (config echo, derived parameters, code version,
timestamps, seed).  Modes that evolve a quantum state add a ``[health]`` section
with the largest norm drift of a kick.  Every run adds ``[resources]``:
``getrusage`` of the process, and of the children it reaped since the run
started (the pool workers); then ``[timings]``: wall seconds of the quantum build
(Floquet operator and coherent states), quantum evolution, ensemble propagation,
Lyapunov exponents, data-file writes and the whole run, and the shared pool's
process count.  All come from one record per ``run`` call, so runs in one
process share nothing.  Data CSVs hold no timestamps: reruns with an identical
config and seed reproduce them bytewise, for any BLAS thread count (``main``
runs it on one).

Exit codes: 0 success, 1 configuration error, 2 numerical error, 3 internal
failure, such as a worker process that died (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import ctypes
import math
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, classical, correspondence, liouville, quantum
from .csvio import write_csv

__all__ = ["main", "run", "parse_config", "params_convert", "choose_s_for_r", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (exit code 1)."""


# key -> (parser, default); None default means "no default, maybe required per mode"
_SCHEMA = {
    "outdir": (str, "."),
    "seed": (int, 12345),
    "a": (float, None),
    "gamma": (float, None),
    "c": (float, None),
    "r": (float, None),
    "s": (float, None),
    "l": (float, None),
    "j": (float, None),
    "theta_s": (float, None),
    "phi_s": (float, None),
    "theta_l": (float, None),
    "phi_l": (float, None),
    "n_kicks": (int, 200),
    "n_traj": (int, 1_000_000),
    "n_steps": (int, 100_000),
    "sample_every": (int, 1000),
    "n_samples": (int, 30_000),
    "scan_steps": (int, 10_000),
    "lambda_threshold": (float, 0.005),
    "intercept": (str, "fixed"),
    "noise_floor_mult": (float, 3.0),
    "delta_cap": (float, 0.3),
    "ma_window": (int, 5),
    "var_threshold": (float, 0.5),
    "p": (float, 0.1),
    "p_list": (str, "0.1"),
    "l_list": (str, "11,22,44,88,154,220"),
    "r_target": (float, 1.1),
    "lyap_steps": (int, 100_000),
    "dump_state": (int, 0),
    "dump_pz": (int, 0),
}

# count key -> smallest accepted value, checked for every mode
_MINIMUMS = {
    "n_kicks": 0,
    "n_traj": 1,
    "n_steps": 1,
    "sample_every": 1,
    "n_samples": 1,
    "scan_steps": 1,
    "lyap_steps": 1,
    "ma_window": 1,
}


def parse_config(path: str | None, overrides: list[str]) -> dict:
    """Flat key=value file plus --set overrides, validated against the schema."""
    raw: dict[str, str] = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value

    cfg = {key: default for key, (_, default) in _SCHEMA.items()}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser = _SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as {parser.__name__}") from exc
        if parser is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    for key, lowest in _MINIMUMS.items():
        if cfg[key] < lowest:
            raise ConfigError(f"key {key!r} must be >= {lowest}, got {cfg[key]}")
    return cfg


def _require(cfg: dict, keys: list[str], mode: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"missing key {key!r} required for mode {mode!r}")


# ---------------------------------------------------------------------------
# parameter conversion


def params_convert(
    s: float | None = None,
    l: float | None = None,
    c: float | None = None,
    gamma: float | None = None,
) -> dict:
    """Convert between quantum {a,c,s,l} and classical {a,gamma,r} parameters.

    gamma = c sqrt(s(s+1)) and r = sqrt(l(l+1)/s(s+1)); give exactly one of
    (c, gamma).  Returns a dict with both parameterizations.
    """
    if (c is None) == (gamma is None):
        raise ConfigError("give exactly one of 'c' and 'gamma'")
    if s is None or s <= 0 or l is None or l <= 0:
        raise ConfigError("positive quantum numbers 's' and 'l' are required")
    mag_s = math.sqrt(s * (s + 1.0))
    mag_l = math.sqrt(l * (l + 1.0))
    if c is None:
        c = gamma / mag_s
    else:
        gamma = c * mag_s
    return {"s": s, "l": l, "c": c, "gamma": gamma, "r": mag_l / mag_s}


def choose_s_for_r(l: float, r_target: float, tolerance: float = 0.05) -> int:
    """Integer s minimizing |r(s, l) - r_target|; error when nothing is close.

    The quantum-number lattice only approximates a requested ratio; the error
    message lists the nearest candidates so the caller can adjust r_target.
    """
    if r_target < 1.0:
        raise ConfigError(f"r_target={r_target} must be >= 1")
    mag_l2 = l * (l + 1.0)
    best = max(1, int(round(math.sqrt(mag_l2 / r_target**2 + 0.25) - 0.5)))
    candidates = [s for s in range(max(1, best - 2), best + 3) if s <= l]
    ranked = sorted(candidates, key=lambda s: abs(math.sqrt(mag_l2 / (s * (s + 1.0))) - r_target))
    s = ranked[0]
    r_actual = math.sqrt(mag_l2 / (s * (s + 1.0)))
    if abs(r_actual - r_target) > tolerance:
        listing = ", ".join(
            f"s={cand} -> r={math.sqrt(mag_l2 / (cand * (cand + 1.0))):.5f}" for cand in ranked[:3]
        )
        raise ConfigError(
            f"no integer s gives r within {tolerance} of {r_target} for l={l}; nearest: {listing}"
        )
    return s


def _coupling(cfg: dict, mode: str) -> dict:
    """Resolve (a, c, gamma, r, s, l) for quantum-bearing modes."""
    _require(cfg, ["a", "s", "l"], mode)
    if cfg["r"] is not None:
        raise ConfigError("key 'r' conflicts with quantum numbers; r is derived from (s, l)")
    return {"a": cfg["a"], **params_convert(s=cfg["s"], l=cfg["l"], c=cfg["c"], gamma=cfg["gamma"])}


def _classical_params(cfg: dict, mode: str) -> classical.ClassicalParams:
    _require(cfg, ["a", "gamma", "r"], mode)
    if cfg["c"] is not None or cfg["s"] is not None or cfg["l"] is not None:
        raise ConfigError(f"mode {mode!r} is purely classical: give (a, gamma, r) only")
    try:
        return classical.ClassicalParams(cfg["a"], cfg["gamma"], cfg["r"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _angles(cfg: dict, mode: str) -> np.ndarray:
    _require(cfg, ["theta_s", "phi_s", "theta_l", "phi_l"], mode)
    return np.deg2rad([cfg["theta_s"], cfg["phi_s"], cfg["theta_l"], cfg["phi_l"]])


# ---------------------------------------------------------------------------
# artifacts


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


@dataclass
class _Run:
    """Per-run record from ``run()``: output directory, stage seconds, health figures.

    Stage seconds sum over an l sweep, health figures keep their largest; scalars only.
    ``children_cpu0`` is the CPU time of the children reaped before the run started.
    """

    outdir: Path
    stage_s: dict[str, float] = field(default_factory=dict)
    health: dict[str, float] = field(default_factory=dict)
    children_cpu0: float = field(default_factory=_children_cpu_s)

    @contextmanager
    def timed(self, stage: str):
        """Add the wall time of the ``with`` block to ``stage``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + time.perf_counter() - t0

    def write(self, name: str, columns: dict) -> None:
        """Write one data file into the output directory, timed as ``csv_write_s``."""
        with self.timed("csv_write_s"):
            write_csv(self.outdir / name, columns)

    def summary(self, *lines: str) -> None:
        (self.outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _write_manifest(rec: _Run, mode: str, cfg: dict, derived: dict, run_s: float) -> None:
    lines = [
        f"spinchaos {__version__}",
        f"mode: {mode}",
        f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"numpy: {np.__version__}",
        "",
        "[config]",
    ]
    lines += [f"{key} = {cfg[key]}" for key in sorted(cfg) if cfg[key] is not None]
    if derived:
        lines += ["", "[derived]"]
        lines += [f"{key} = {value}" for key, value in derived.items()]
    if rec.health:
        lines += ["", "[health]"]
        lines += [f"{key} = {value:.3e}" for key, value in rec.health.items()]
    own = resource.getrusage(resource.RUSAGE_SELF)
    lines += ["", "[resources]", f"cpu_s = {own.ru_utime + own.ru_stime:.6f}",
              f"children_cpu_s = {_children_cpu_s() - rec.children_cpu0:.6f}",  # the pool workers
              f"peak_rss_mb = {own.ru_maxrss / 1024:.1f}", f"minor_faults = {own.ru_minflt}"]
    stages = ("quantum_build_s", "quantum_evolution_s", "ensemble_propagation_s", "lyapunov_s",
              "csv_write_s")
    lines += ["", "[timings]", *(f"{key} = {rec.stage_s.get(key, 0.0):.6f}" for key in stages)]
    lines += [f"run_s = {run_s:.6f}", f"workers = {classical._WORKERS}"]
    (rec.outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _moment_columns(series: correspondence.MomentSeries) -> dict:
    """Per-kick moment columns; the SE columns only for an ensemble series, which has them."""
    cols: dict = {"n": series.kicks}
    for label, attr, mag in (("S", "s", series.mag_s), ("L", "l", series.mag_l)):
        for stat in ("mean", "se"):
            if (vec := getattr(series, f"{attr}_tilde_{stat}")) is not None:
                cols.update({f"{label}{c}_{stat}": mag * vec[:, i] for i, c in enumerate("xyz")})
        for suffix in ("", "_se"):
            if (var := getattr(series, f"var_norm_{attr}{suffix}")) is not None:
                cols[f"{label}var_norm{suffix}"] = var
    return cols


def _quantum_series(rec: _Run, conv: dict, ang: np.ndarray, n_kicks: int):
    s, l = conv["s"], conv["l"]
    with rec.timed("quantum_build_s"):
        flo = quantum.build_floquet(s, l, conv["a"], conv["c"])
        vec_s = quantum.coherent_state(s, ang[0], ang[1])
        vec_l = quantum.coherent_state(l, ang[2], ang[3])
        state = quantum.product_state(s, l, vec_s, vec_l)
    with rec.timed("quantum_evolution_s"):
        series = quantum.evolve_series(state, flo, n_kicks)
    drift = rec.health.get("quantum_norm_drift", 0.0)
    rec.health["quantum_norm_drift"] = max(drift, series.norm_drift)
    return series


def _ensemble_series(rec: _Run, conv: dict, ang: np.ndarray, cfg: dict):
    with rec.timed("ensemble_propagation_s"):
        ens = liouville.build_ensemble(
            conv["s"], conv["l"], *ang, n_traj=cfg["n_traj"], seed=cfg["seed"]
        )
        p = classical.ClassicalParams(conv["a"], conv["gamma"], conv["r"])
        return liouville.ensemble_evolve(ens, p, cfg["n_kicks"])


# ---------------------------------------------------------------------------
# mode runners


def _run_quantum(cfg: dict, rec: _Run) -> dict:
    conv = _coupling(cfg, "quantum")
    ang = _angles(cfg, "quantum")
    series = _quantum_series(rec, conv, ang, cfg["n_kicks"])
    rec.write("qmoments.csv", _moment_columns(series))
    if cfg["dump_state"]:
        ms = np.repeat(quantum.m_values(conv["s"]), quantum.dim_of(conv["l"]))
        ml = np.tile(quantum.m_values(conv["l"]), quantum.dim_of(conv["s"]))
        amps = series.final.amplitudes
        rec.write("state_final.csv", {"m_s": ms, "m_l": ml, "re": amps.real, "im": amps.imag})
    if cfg["dump_pz"]:
        rec.write("pz_final.csv", {"m_l": quantum.m_values(series.l), "P": series.pz_final})
    return conv


def _run_classical_traj(cfg: dict, rec: _Run) -> dict:
    p = _classical_params(cfg, "classical-traj")
    x = classical.angles_to_state(*_angles(cfg, "classical-traj"))
    n = cfg["n_kicks"]
    traj = np.empty((n + 1, 6))
    traj[0] = x
    for k in range(1, n + 1):
        traj[k] = x = classical.map_step(x, p)
    rec.write(
        "traj.csv",
        {
            "n": np.arange(n + 1),
            **{f"S{c}": traj[:, i] for i, c in enumerate("xyz")},
            **{f"L{c}": traj[:, i + 3] for i, c in enumerate("xyz")},
        },
    )
    return {"a": p.a, "gamma": p.gamma, "r": p.r}


def _run_lyapunov(cfg: dict, rec: _Run) -> dict:
    p = _classical_params(cfg, "lyapunov")
    x0 = classical.angles_to_state(*_angles(cfg, "lyapunov"))
    n_steps, every = cfg["n_steps"], cfg["sample_every"]
    checkpoints = list(range(every, n_steps + 1, every))
    if not checkpoints or checkpoints[-1] != n_steps:
        checkpoints.append(n_steps)
    with rec.timed("lyapunov_s"):
        running = classical.lyapunov_exponent(x0, p, n_steps, checkpoints=checkpoints)
    lam = float(running[-1])
    rec.write("lyapunov.csv", {"n": np.array(checkpoints), "lambda_running": running})
    rec.summary(f"lambda_L = {lam:.17g} (n_steps = {n_steps})")
    return {"a": p.a, "gamma": p.gamma, "r": p.r, "lambda_L": lam}


def _run_regime_scan(cfg: dict, rec: _Run) -> dict:
    p = _classical_params(cfg, "regime-scan")
    with rec.timed("lyapunov_s"):
        res = classical.regime_scan(
            p, cfg["n_samples"], cfg["scan_steps"], cfg["lambda_threshold"], cfg["seed"]
        )
    rec.write(
        "scan.csv",
        {
            "S_z": res.points[:, 0],
            "phi_s": res.points[:, 1],
            "L_z": res.points[:, 2],
            "phi_l": res.points[:, 3],
            "lambda": res.lambdas,
            "is_chaotic": res.chaotic_mask.astype(np.int64),
        },
    )
    rec.summary(
        f"chaotic_fraction = {res.chaotic_fraction:.17g}",
        f"n_samples = {cfg['n_samples']}", f"n_steps = {cfg['scan_steps']}",
        f"lambda_threshold = {cfg['lambda_threshold']}",
    )
    return {"a": p.a, "gamma": p.gamma, "r": p.r, "chaotic_fraction": res.chaotic_fraction}


def _run_ensemble(cfg: dict, rec: _Run) -> dict:
    conv = _coupling(cfg, "ensemble")
    ang = _angles(cfg, "ensemble")
    series = _ensemble_series(rec, conv, ang, cfg)
    rec.write("cmoments.csv", _moment_columns(series))
    if cfg["dump_pz"]:
        rec.write("pz_final.csv", {"m_l": quantum.m_values(series.l), "P": series.pz_final})
    return conv


def _growth_fit(d, cfg: dict):
    """The direct quantum-classical growth fit with the config's fit settings."""
    return correspondence.fit_growth_exponent(
        d, intercept=cfg["intercept"], noise_floor_mult=cfg["noise_floor_mult"],
        delta_cap=cfg["delta_cap"], ma_window=cfg["ma_window"],
    )


def _fit_report(rec: _Run, qs, cs, d, cfg: dict, conv: dict, ang) -> tuple[list[str], dict]:
    """Summary block: lambda_L, lambda_w (both sides), lambda_qc, t*, t_sat, t_b table."""
    lines: list[str] = []
    values: dict = {}
    p = classical.ClassicalParams(conv["a"], conv["gamma"], conv["r"])
    with rec.timed("lyapunov_s"):
        lam_l = classical.lyapunov_exponent(classical.angles_to_state(*ang), p, cfg["lyap_steps"])
    lines.append(f"lambda_L (trajectory at IC, {cfg['lyap_steps']} steps) = {lam_l:.6g}")
    values["lambda_L"] = lam_l

    for label, series in (("quantum", qs), ("classical", cs)):
        try:
            fit = correspondence.variance_growth_fit(
                series.var_norm_l, conv["l"], saturation_threshold=cfg["var_threshold"]
            )
            lines.append(
                f"lambda_w ({label} fit) = {fit.lam:.6g}  window={fit.window} rms={fit.residual:.3g}"
            )
            values[f"lambda_w_{label}"] = fit.lam
            if label == "quantum":
                t_sat = correspondence.saturation_time(fit.lam, conv["l"])
                lines.append(f"t_sat (from quantum lambda_w) = {t_sat:.3g}")
                values["t_sat"] = t_sat
        except ValueError as exc:
            lines.append(f"lambda_w ({label} fit) unavailable: {exc}")

    t_star = correspondence.detect_saturation_kick(d.delta, ma_window=cfg["ma_window"])
    lines.append(f"t_star (difference saturation kick) = {t_star}")
    values["t_star"] = t_star
    try:
        fit = _growth_fit(d, cfg)
        lines.append(
            f"lambda_qc (direct fit, {fit.intercept_mode} intercept) = {fit.lam:.6g}  "
            f"window={fit.window} points={fit.n_points} rms={fit.residual:.3g}"
        )
        values["lambda_qc"] = fit.lam
    except ValueError as exc:
        lines.append(f"lambda_qc (direct fit) unavailable: {exc}")
    lines.append("lambda_qc (break-scaling) n/a: requires an l sweep (break-scaling mode)")

    lines.append("break-times:")
    for p_tol in (float(tok) for tok in cfg["p_list"].split(",") if tok.strip()):
        bt = correspondence.break_time(d, p_tol)
        shown = bt.t_b if bt.reached else "not reached"
        lines.append(f"  p={p_tol:g} -> t_b = {shown}")
    return lines, values


def _run_compare(cfg: dict, rec: _Run) -> dict:
    conv = _coupling(cfg, "compare")
    ang = _angles(cfg, "compare")
    qs = _quantum_series(rec, conv, ang, cfg["n_kicks"])
    cs = _ensemble_series(rec, conv, ang, cfg)
    d = correspondence.difference_series(qs, cs)
    rec.write("qmoments.csv", _moment_columns(qs))
    rec.write("cmoments.csv", _moment_columns(cs))
    rec.write(
        "delta.csv",
        {"n": d.kicks.astype(np.int64), "delta_Lz": d.delta, "q_Lz": d.q_lz, "c_Lz": d.c_lz,
         "c_se": d.c_se},
    )
    header = [
        f"parameters: a={conv['a']} gamma={conv['gamma']} r={conv['r']:.6f} "
        f"(s={conv['s']} l={conv['l']} c={conv['c']:.8g})",
        "r is derived from the quantum numbers; both parameterizations above",
        f"initial condition (deg): theta_s={cfg['theta_s']} phi_s={cfg['phi_s']} "
        f"theta_l={cfg['theta_l']} phi_l={cfg['phi_l']}",
        f"n_kicks={cfg['n_kicks']} n_traj={cfg['n_traj']} seed={cfg['seed']}",
    ]
    fit_lines, values = _fit_report(rec, qs, cs, d, cfg, conv, ang)
    rec.summary(*header, *fit_lines)
    return {**conv, **values}


def _run_break_scaling(cfg: dict, rec: _Run) -> dict:
    _require(cfg, ["a", "gamma"], "break-scaling")
    if cfg["c"] is not None:
        raise ConfigError("break-scaling sweeps l at fixed gamma: give 'gamma', not 'c'")
    ang = _angles(cfg, "break-scaling")
    try:
        l_values = [float(tok) for tok in cfg["l_list"].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"key 'l_list': {exc}") from exc
    if not l_values:
        raise ConfigError("key 'l_list' is empty")
    p_tol = cfg["p"]
    records, dropped = [], []
    table = {col: [] for col in ("l", "s", "r", "p", "t_b")}
    fits = {
        col: [] for col in ("l", "lambda_qc_direct", "window_lo", "window_hi", "rms_log_residual")
    }
    for idx, l in enumerate(l_values):
        s = choose_s_for_r(l, cfg["r_target"])
        conv = {**params_convert(s=s, l=l, gamma=cfg["gamma"]), "a": cfg["a"]}
        qs = _quantum_series(rec, conv, ang, cfg["n_kicks"])
        cs = _ensemble_series(rec, conv, ang, dict(cfg, seed=cfg["seed"] + idx))
        d = correspondence.difference_series(qs, cs)
        bt = correspondence.break_time(d, p_tol)
        records.append(bt)
        for col, value in zip(table, (l, s, conv["r"], p_tol, -1 if bt.t_b is None else bt.t_b)):
            table[col].append(value)
        try:
            direct = _growth_fit(d, cfg)
            for col, value in zip(fits, (l, direct.lam, *direct.window, direct.residual)):
                fits[col].append(value)
        except ValueError as exc:
            dropped.append(f"direct fit at l={l:g} left out of fits.csv: {exc}")
        del qs, cs, d  # before the next l's draw and state
    rec.write("breaktimes.csv", table)
    if fits["l"]:
        rec.write("fits.csv", fits)
    lines = [
        f"tolerance p = {p_tol}",
        f"l sweep: {', '.join(f'{l:g}' for l in l_values)} (s chosen for r ~ {cfg['r_target']})",
        *dropped,
    ]
    values: dict = {}
    try:
        lam_scaling = correspondence.fit_break_scaling(records)
        lines.append(f"lambda_qc (break-time scaling fit) = {lam_scaling:.6g}")
        values["lambda_qc_scaling"] = lam_scaling
    except ValueError as exc:
        lines.append(f"lambda_qc (break-time scaling fit) unavailable: {exc}")
    if fits["l"]:
        lam_direct = fits["lambda_qc_direct"][-1]
        lines.append(f"lambda_qc (direct fit at largest fitted l) = {lam_direct:.6g}")
        values["lambda_qc_direct"] = lam_direct
    rec.summary(*lines)
    return {"gamma": cfg["gamma"], "p": p_tol, **values}


def _run_appendix_check(cfg: dict, rec: _Run) -> dict:
    if cfg["j"] is None:
        raise ConfigError("missing key 'j' required for mode 'appendix-check'")
    mom = liouville.appendix_moments(cfg["j"])
    mc = liouville.vector_model_mc(cfg["j"], cfg["n_samples"], cfg["seed"])
    rec.write(
        "appendix.csv",
        {
            "j": [mom.j],
            "qm_Jx2": [mom.qm_jx2],
            "qm_Jx4": [mom.qm_jx4],
            "cl_Jx2": [mom.cl_jx2],
            "cl_Jx4": [mom.cl_jx4],
            "delta_Jx4": [mom.delta_jx4],
            "mc_Jx2": [mc.jx2],
            "mc_Jx2_se": [mc.jx2_se],
            "mc_Jx4": [mc.jx4],
            "mc_Jx4_se": [mc.jx4_se],
            "n_samples": [mc.n_samples],
        },
    )
    rec.summary(
        f"j = {mom.j:g}",
        f"quantum <Jx^2> = {mom.qm_jx2:.10g}",
        f"quantum <Jx^4> = {mom.qm_jx4:.10g}",
        f"classical <Jx^2> = {mom.cl_jx2:.10g}",
        f"classical <Jx^4> = {mom.cl_jx4:.10g}",
        f"delta Jx^4 = {mom.delta_jx4:.10g}",
        f"vector-model MC <Jx^2> = {mc.jx2:.10g} +- {mc.jx2_se:.3g}",
        f"vector-model MC <Jx^4> = {mc.jx4:.10g} +- {mc.jx4_se:.3g}",
    )
    return {"j": mom.j, "delta_Jx4": mom.delta_jx4}


_RUNNERS = {
    "quantum": _run_quantum,
    "classical-traj": _run_classical_traj,
    "lyapunov": _run_lyapunov,
    "regime-scan": _run_regime_scan,
    "ensemble": _run_ensemble,
    "compare": _run_compare,
    "break-scaling": _run_break_scaling,
    "appendix-check": _run_appendix_check,
}
MODES = tuple(_RUNNERS)


def run(mode: str, cfg: dict) -> int:
    """Execute one mode; returns the process exit code."""
    if mode not in _RUNNERS:
        print(f"error: unknown mode {mode!r}; choose from {', '.join(MODES)}", file=sys.stderr)
        return 1
    try:
        rec = _Run(Path(cfg["outdir"]))
        rec.outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        derived = _RUNNERS[mode](cfg, rec)
        _write_manifest(rec, mode, cfg, derived, time.perf_counter() - t0)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        # domain errors raised by the libraries while running are numerical failures
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS, if present, on one thread: more threads round differently."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def main(argv: list[str] | None = None) -> int:
    _pin_blas_threads()
    parser = argparse.ArgumentParser(
        prog="spinchaos",
        description="coupled kicked spins: quantum vs classical Liouville dynamics",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(args.mode, cfg)


if __name__ == "__main__":
    sys.exit(main())
