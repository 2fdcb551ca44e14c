"""Smoke test of the benchmark's traced CLI run (``perfbench/trace_cli.py``).

The tracer reads named parameters of the public functions it wraps; a
renamed or removed one makes the traced run die, so each mode the benchmark
traces runs here at a tiny size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# mode -> (config, overrides, spans the run must record)
RUNS = {
    "quantum": ("compare_global.cfg", ["s=10", "l=11", "n_kicks=3", "dump_state=1"],
                {"evolve_series", "write_csv"}),
    "lyapunov": ("lyapunov_mixed.cfg", ["n_steps=200", "sample_every=100"],
                 {"lyapunov_exponent", "write_csv"}),
    "regime-scan": ("regime_scan.cfg", ["n_samples=20", "scan_steps=50"],
                    {"lyapunov_exponent", "write_csv"}),
    "break-scaling": ("break_scaling.cfg", ["l_list=11,22", "n_kicks=5", "n_traj=2000"],
                      {"evolve_series", "ensemble_evolve", "write_csv"}),
}


@pytest.mark.parametrize("mode", list(RUNS))
def test_traced_run_records_its_spans(mode, tmp_path):
    config, overrides, expected = RUNS[mode]
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, "perfbench/trace_cli.py", str(spans_path), mode,
            "--config", f"configs/{config}", "--set", f"outdir={tmp_path / 'out'}"]
    for item in overrides:
        argv += ["--set", item]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    assert expected <= names, expected - names
