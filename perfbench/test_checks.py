"""Fast tests of the benchmark's own checks and tracer, at a tiny scale.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check must accept what the current program writes and reject a copy
with one deliberate fault in it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinchaos import cli  # noqa: E402

QUANTUM = {"s": 3, "l": 4, "a": 5.0, "gamma": 2.835, "angles": (45, 70, 135, 70), "n_kicks": 40}
LYAPUNOV = ("configs/lyapunov_mixed.cfg", 5.0, 1.215, 1.1, (20, 40, 160, 130))


def _cli(tmp_path: Path, name: str, mode: str, config: str | None, **sets) -> Path:
    outdir = tmp_path / name
    argv = [mode] + (["--config", str(ROOT / config)] if config else [])
    for key, value in {**sets, "outdir": outdir}.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    return outdir


def _copy(outdir: Path) -> Path:
    bad = Path(tempfile.mkdtemp(prefix=f"{outdir.name}-bad", dir=outdir.parent))
    shutil.copytree(outdir, bad, dirs_exist_ok=True)
    return bad


def _rewrite(path: Path, column: str, change) -> None:
    cols = checks.read_csv(path)
    cols[column] = change(cols[column].copy())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _quantum_args():
    q = QUANTUM
    return q["s"], q["l"], q["a"], q["gamma"], q["angles"], q["n_kicks"]


@pytest.fixture(scope="module")
def quantum_run(tmp_path_factory):
    q = QUANTUM
    th_s, ph_s, th_l, ph_l = q["angles"]
    outdir = _cli(
        tmp_path_factory.mktemp("quantum"), "q", "quantum", None, a=q["a"], gamma=q["gamma"],
        s=q["s"], l=q["l"], theta_s=th_s, phi_s=ph_s, theta_l=th_l, phi_l=ph_l,
        n_kicks=q["n_kicks"], dump_state=1, dump_pz=1,
    )
    return outdir, checks.reference_evolution(*_quantum_args())


def test_quantum_check_accepts_the_program(quantum_run):
    outdir, reference = quantum_run
    checks.check_quantum(outdir, *_quantum_args(), reference)


def test_quantum_check_rejects_one_flipped_amplitude(quantum_run):
    outdir, reference = quantum_run
    bad = _copy(outdir)

    def flip(re):
        re[np.argmax(np.abs(re))] *= -1.0
        return re

    _rewrite(bad / "state_final.csv", "re", flip)
    with pytest.raises(checks.CheckFailed, match="dense reference"):
        checks.check_quantum(bad, *_quantum_args(), reference)


def test_quantum_check_rejects_a_wrong_marginal(quantum_run):
    outdir, reference = quantum_run
    bad = _copy(outdir)
    _rewrite(bad / "pz_final.csv", "P", lambda p: np.roll(p, 1))
    with pytest.raises(checks.CheckFailed, match="column sums"):
        checks.check_quantum(bad, *_quantum_args(), reference)


@pytest.fixture(scope="module")
def break_run(tmp_path_factory):
    return _cli(tmp_path_factory.mktemp("break"), "b", "break-scaling", "configs/break_scaling.cfg",
                n_traj=200_000)


def test_break_check_accepts_the_program(break_run):
    checks.check_break_scaling(break_run, p=0.1, r_target=1.1)


def test_break_check_rejects_lambda_qc_outside_its_band(break_run):
    bad = _copy(break_run)
    _rewrite(bad / "breaktimes.csv", "t_b", lambda t: t + 3)
    with pytest.raises(checks.CheckFailed, match="break-scaling lambda_qc"):
        checks.check_break_scaling(bad, p=0.1, r_target=1.1)


@pytest.fixture(scope="module")
def lyapunov_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lyapunov")
    config = LYAPUNOV[0]
    return (
        _cli(tmp, "every", "lyapunov", config, n_steps=3000, sample_every=1000),
        _cli(tmp, "once", "lyapunov", config, n_steps=3000, sample_every=3000),
        _cli(tmp, "short", "lyapunov", config, n_steps=100, sample_every=100),
    )


def test_lyapunov_checks_accept_the_program(lyapunov_runs):
    every, once, short = lyapunov_runs
    lam = checks.check_lyapunov(every, 3000, 1000)
    checks.check_lyapunov_same(lam, checks.check_lyapunov(once, 3000, 3000))
    checks.check_lyapunov_reference(checks.check_lyapunov(short, 100, 100),
                                    checks.reference_lyapunov(*LYAPUNOV[1:], 100))


def test_lyapunov_checks_reject_a_shifted_final_lambda(lyapunov_runs):
    every, once, short = lyapunov_runs
    bad = _copy(every)

    def shift_last(lam):
        lam[-1] += 1e-6
        return lam

    _rewrite(bad / "lyapunov.csv", "lambda_running", shift_last)
    with pytest.raises(checks.CheckFailed, match="summary lambda_L"):
        checks.check_lyapunov(bad, 3000, 1000)
    lam = checks.check_lyapunov(every, 3000, 1000)
    with pytest.raises(checks.CheckFailed, match="without"):
        checks.check_lyapunov_same(lam + 1e-9, checks.check_lyapunov(once, 3000, 3000))
    reference = checks.reference_lyapunov(*LYAPUNOV[1:], 100)
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_lyapunov_reference(checks.check_lyapunov(short, 100, 100) + 1e-6, reference)


@pytest.fixture(scope="module")
def regime_run(tmp_path_factory):
    return _cli(tmp_path_factory.mktemp("regime"), "r", "regime-scan", "configs/regime_scan.cfg",
                n_samples=400, scan_steps=3000)


def test_regime_check_accepts_the_program(regime_run):
    checks.check_regime_scan(regime_run, 400)


def test_regime_check_rejects_is_chaotic_out_of_step(regime_run):
    bad = _copy(regime_run)

    def flip_first(flags):
        flags[0] = 1.0 - flags[0]
        return flags

    _rewrite(bad / "scan.csv", "is_chaotic", flip_first)
    with pytest.raises(checks.CheckFailed, match="is_chaotic"):
        checks.check_regime_scan(bad, 400)


def test_tracer_counts_the_repeated_quantum_evolutions(tmp_path):
    q = QUANTUM
    th_s, ph_s, th_l, ph_l = q["angles"]
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, "perfbench/trace_cli.py", str(spans_path), "quantum"]
    sets = dict(a=q["a"], gamma=q["gamma"], s=q["s"], l=q["l"], theta_s=th_s, phi_s=ph_s,
                theta_l=th_l, phi_l=ph_l, n_kicks=q["n_kicks"], dump_state=1, dump_pz=1,
                outdir=tmp_path / "q")
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    subprocess.run(argv, cwd=ROOT, env=run._child_env(), check=True, timeout=120)
    metrics = run.layer_metrics(json.loads(spans_path.read_text()), cpu_s=1.0, overhead_s=0.0)
    assert metrics["quantum.kicks_applied"] == 3 * q["n_kicks"]
    assert metrics["quantum.kicks_useful_ratio"] == pytest.approx(1.0 / 3.0)
    assert metrics["quantum.observables_calls"] == q["n_kicks"] + 1
    assert metrics["quantum.wigner_d_calls"] == 4
    assert metrics["csvio.fields"] == (q["n_kicks"] + 1) * 9 + (2 * q["s"] + 1) * (2 * q["l"] + 1) * 4 + (2 * q["l"] + 1) * 2
    assert metrics["cli.self_s"] > 0.0
