"""Replay contract: every CLI mode reproduces its committed reference outputs.

Each run in ``RUNS`` invokes one mode at a small scale from a shipped config
into ``tmp_path``, and every data file is compared with
``tests/golden/<run>/``. Headers, integer columns and every non-float token
of ``summary.txt`` must match exactly; each float must agree to 1e-9 of the
largest magnitude in its column (each float of ``summary.txt`` is its own
column). The files in ``EXACT`` must
equal their reference byte for byte. A second run must reproduce every data
file byte for byte. ``manifest.txt`` carries timestamps and timings and is not
compared.

Regenerate the references (see ``tests/golden/README.md`` for when) with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spinchaos import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9

# run -> (config file, overrides); a run is named after its mode unless MODE_OF maps it
RUNS = {
    "quantum": ("compare_global.cfg", ["n_kicks=20", "dump_state=1", "dump_pz=1", "s=20", "l=22"]),
    "compare": ("compare_mixed.cfg", ["n_kicks=20", "n_traj=50000", "lyap_steps=5000"]),
    "ensemble": ("compare_mixed.cfg", ["n_kicks=5", "n_traj=50000", "dump_pz=1"]),
    "break-scaling": ("break_scaling.cfg", ["n_traj=100000"]),
    "lyapunov": ("lyapunov_mixed.cfg", ["n_steps=5000"]),
    "regime-scan": ("regime_scan.cfg", ["n_samples=400", "scan_steps=2000"]),
    "classical-traj": ("lyapunov_mixed.cfg", ["n_kicks=50"]),
    "appendix-check": ("appendix_check.cfg", ["n_samples=10000"]),
    # global chaos stretches any one-ulp change in the draws or the map far past RTOL
    "ensemble-global": (
        "compare_global.cfg", ["s=20", "l=22", "n_kicks=60", "n_traj=20000", "dump_pz=1"]
    ),
}
MODE_OF = {"ensemble-global": "ensemble"}

# run -> data files that must be byte-identical to their reference: the scan's
# exponents are elementwise, so neither the worker count nor its blocks move a bit,
# and one trajectory steps through the same kernels as a batch, bit for bit
EXACT = {
    "regime-scan": {"scan.csv"},
    "lyapunov": {"lyapunov.csv", "summary.txt"},
    "classical-traj": {"traj.csv"},
}

_INT = re.compile(r"[-+]?\d+")
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|(?<!\w)[-+]?(?:nan|inf)\b")


def cli_argv(run: str, outdir: Path) -> list[str]:
    config, overrides = RUNS[run]
    argv = [MODE_OF.get(run, run), "--config", str(ROOT / "configs" / config),
            "--set", f"outdir={outdir}"]
    for item in overrides:
        argv += ["--set", item]
    return argv


def run_mode(run: str, outdir: Path) -> None:
    assert cli.main(cli_argv(run, outdir)) == 0, run


def data_files(outdir: Path) -> list[str]:
    return sorted(p.name for p in outdir.iterdir() if p.name != "manifest.txt")


def _floats_agree(got: list[str], ref: list[str], where: str) -> None:
    """Equal-length float tokens agree to RTOL of the reference's largest magnitude."""
    ref_vals = [float(t) for t in ref]
    got_vals = [float(t) for t in got]
    scale = max((abs(v) for v in ref_vals if math.isfinite(v)), default=0.0)
    for i, (g, r) in enumerate(zip(got_vals, ref_vals)):
        if not math.isfinite(r):
            assert str(g) == str(r), f"{where}[{i}]: {g!r} != {r!r}"
        else:
            assert abs(g - r) <= RTOL * scale, f"{where}[{i}]: {g!r} vs {r!r} (scale {scale:g})"


def compare_csv(got_path: Path, ref_path: Path) -> None:
    got = got_path.read_text().splitlines()
    ref = ref_path.read_text().splitlines()
    assert got[0] == ref[0], f"{ref_path.name}: header"
    assert len(got) == len(ref), f"{ref_path.name}: row count"
    got_cols = list(zip(*(line.split(",") for line in got[1:])))
    ref_cols = list(zip(*(line.split(",") for line in ref[1:])))
    for name, g, r in zip(ref[0].split(","), got_cols, ref_cols):
        where = f"{ref_path.name}:{name}"
        if all(_INT.fullmatch(t) for t in r):
            assert g == r, f"{where}: integer column differs"
        else:
            _floats_agree(list(g), list(r), where)


def compare_text(got_path: Path, ref_path: Path) -> None:
    got, ref = got_path.read_text(), ref_path.read_text()
    assert _NUMBER.split(got) == _NUMBER.split(ref), f"{ref_path.name}: text differs"
    got_nums, ref_nums = _NUMBER.findall(got), _NUMBER.findall(ref)
    for i, (g, r) in enumerate(zip(got_nums, ref_nums)):
        where = f"{ref_path.name}: number {i}"
        if _INT.fullmatch(r):
            assert g == r, where
        else:
            _floats_agree([g], [r], where)


@pytest.mark.parametrize("run", list(RUNS))
def test_mode_replays_golden_outputs(run, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    run_mode(run, first)
    run_mode(run, second)
    ref_dir = GOLDEN / run
    names = data_files(first)
    assert names == data_files(ref_dir)
    assert names == data_files(second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), f"{name}: replay"
        if name in EXACT.get(run, ()):
            assert (first / name).read_bytes() == (ref_dir / name).read_bytes(), f"{name}: bytes"
        elif name.endswith(".csv"):
            compare_csv(first / name, ref_dir / name)
        else:
            compare_text(first / name, ref_dir / name)


@pytest.mark.parametrize("run", ["quantum", "compare"])
def test_data_files_independent_of_blas_threads(run, tmp_path):
    # the CLI runs BLAS on one thread, so every data file is the same, byte for
    # byte, in fresh processes with OPENBLAS_NUM_THREADS=1 and with it unset
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / str(threads)
        res = subprocess.run([sys.executable, "-m", "spinchaos.cli", *cli_argv(run, out)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        outputs.append({name: (out / name).read_bytes() for name in data_files(out)})
    assert outputs[0] == outputs[1]


def regenerate() -> None:
    for run in RUNS:
        target = GOLDEN / run
        shutil.rmtree(target, ignore_errors=True)
        run_mode(run, target)
        (target / "manifest.txt").unlink()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
