"""Benchmark of the spinchaos command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, both metric sets

Run from the repository root. Each workload is one CLI invocation,
``python -m spinchaos.cli MODE --config configs/... --set ...`` with ``src/``
on PYTHONPATH, run as its users run it: a closed loop with one client, one
process at a time, timed from outside. Every invocation is checked for
correctness (``checks.py``) outside the timed region.

With ``--trace 0`` a run first times the invocation with every count at its
minimum (``setup_s``), then repeats the full invocation, with its checks,
for as many whole rounds as fit in ``--seconds`` seconds (at least one) and
reports medians of ``wall_s`` and ``peak_rss_mb``. With ``--trace 1`` it
repeats the untraced invocation in the same way, then makes one traced
invocation (``trace_cli.py``) and reports the per-layer metrics. The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"   # CLI outputs and span files, relative to ROOT
RUN_LIMIT_S = 170.0               # a run ends within 180 s; a hung invocation is killed
SETUP_MIN_REPEATS = 5             # setup_s is the median of 5 to 40 invocations,
SETUP_MAX_REPEATS = 40            # as many as fit in SETUP_SECONDS after the fifth
SETUP_SECONDS = 3.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.cpu_s", "s"),
    ("quantum.wigner_d_s", "s"),
    ("quantum.wigner_d_calls", "count"),
    ("quantum.build_floquet_s", "s"),
    ("quantum.coherent_state_s", "s"),
    ("quantum.kick_ms", "ms"),
    ("quantum.kicks_applied", "count"),
    ("quantum.kicks_useful_ratio", "ratio"),
    ("quantum.observables_ms", "ms"),
    ("quantum.observables_calls", "count"),
    ("liouville.ensemble_evolve_s", "s"),
    ("liouville.traj_kicks", "count"),
    ("liouville.ns_per_traj_kick", "ns"),
    ("liouville.sample_s", "s"),
    ("liouville.ns_per_sample", "ns"),
    ("classical.lyapunov_s", "s"),
    ("classical.lyapunov_steps", "count"),
    ("classical.lyapunov_useful_ratio", "ratio"),
    ("classical.ns_per_lyapunov_step", "ns"),
    ("classical.regime_scan_s", "s"),
    ("correspondence.s", "s"),
    ("correspondence.calls", "count"),
    ("csvio.write_s", "s"),
    ("csvio.fields", "count"),
    ("csvio.bytes", "B"),
    ("csvio.us_per_field", "us"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Run:
    """Counters and cached references of one benchmark run of one workload."""

    workload: "Workload"
    seed: int
    deadline: float
    attempted: int = 0
    failed: int = 0       # exited non-zero or failed a check
    wrong: int = 0        # failed a check
    errors: list[str] = field(default_factory=list)
    cache: dict = field(default_factory=dict)

    def invoke(self, overrides: dict, outdir: Path, spans: Path | None = None) -> Invocation | None:
        """One CLI invocation into a fresh ``outdir``; None if it exits non-zero."""
        wl = self.workload
        sets = {**wl.sets, **overrides, "outdir": outdir.as_posix()}
        if wl.seeded:
            sets["seed"] = self.seed
        prog = ["-m", "spinchaos.cli"] if spans is None else ["perfbench/trace_cli.py", str(spans)]
        argv = [sys.executable, *prog, wl.mode, "--config", wl.config]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        shutil.rmtree(ROOT / outdir, ignore_errors=True)
        (ROOT / outdir).mkdir(parents=True)
        self.attempted += 1
        with open(ROOT / outdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                if status is None:  # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if code != 0:
            self.failed += 1
            tail = (ROOT / outdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            self.errors.append(f"{wl.mode} exited {code}: {' | '.join(tail)}")
            return None
        return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def check(self, outdir: Path) -> None:
        """Run the workload's checks on ``outdir``; a failure counts the invocation as failed."""
        try:
            self.workload.check(self, ROOT / outdir)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"check failed: {exc}")


def _child_env() -> dict:
    """The caller's environment, with src/ on PYTHONPATH and BLAS on one thread.

    With the default two BLAS threads on a 2-core machine, quantum-dump is
    bimodal (about 4.0 s or 4.8 s, 6.9 or 8.5 CPU s, in no steady mix); on
    one thread it reads 5.90 to 6.01 s. Parallelism the program adds itself,
    with its own threads or processes, is not limited by this.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


# ---------------------------------------------------------------------------
# workloads

QUANTUM = {"s": 140, "l": 154, "a": 5.0, "gamma": 2.835, "angles": (45, 70, 135, 70), "n_kicks": 200}
LYAPUNOV = {"a": 5.0, "gamma": 1.215, "r": 1.1, "angles": (20, 40, 160, 130), "n_steps": 20000,
            "sample_every": 1000, "short_steps": 100}
REGIME_SAMPLES = 8000


def _check_quantum(run: Run, outdir: Path) -> None:
    q = QUANTUM
    if "reference" not in run.cache:
        run.cache["reference"] = checks.reference_evolution(
            q["s"], q["l"], q["a"], q["gamma"], q["angles"], q["n_kicks"])
    checks.check_quantum(outdir, q["s"], q["l"], q["a"], q["gamma"], q["angles"], q["n_kicks"],
                         run.cache["reference"])


def _check_break(run: Run, outdir: Path) -> None:
    checks.check_break_scaling(outdir, p=0.1, r_target=1.1)


def _check_lyapunov(run: Run, outdir: Path) -> None:
    ly = LYAPUNOV
    n, short = ly["n_steps"], ly["short_steps"]
    lam = checks.check_lyapunov(outdir, n, ly["sample_every"])
    once = outdir.with_name(f"{outdir.name}-once")
    if run.invoke({"sample_every": n}, once.relative_to(ROOT)) is None:
        return
    checks.check_lyapunov_same(lam, checks.check_lyapunov(once, n, n))
    brief = outdir.with_name(f"{outdir.name}-short")
    if run.invoke({"n_steps": short, "sample_every": short}, brief.relative_to(ROOT)) is None:
        return
    if "reference" not in run.cache:
        run.cache["reference"] = checks.reference_lyapunov(ly["a"], ly["gamma"], ly["r"], ly["angles"], short)
    checks.check_lyapunov_reference(checks.check_lyapunov(brief, short, short), run.cache["reference"])


def _check_regime(run: Run, outdir: Path) -> None:
    checks.check_regime_scan(outdir, REGIME_SAMPLES)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    config: str
    sets: dict            # overrides of the full-size invocation
    minimum: dict         # overrides that bring every count to its minimum, for setup_s
    seeded: bool          # the workload seed is passed as the ``seed`` key
    check: Callable[[Run, Path], None]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "quantum-dump", "quantum", "configs/compare_global.cfg",
            {"n_kicks": QUANTUM["n_kicks"], "dump_state": 1, "dump_pz": 1},
            {"n_kicks": 0}, False, _check_quantum,
        ),
        Workload(
            "break-sweep", "break-scaling", "configs/break_scaling.cfg",
            {}, {"n_kicks": 0, "n_traj": 1}, True, _check_break,
        ),
        Workload(
            "lyapunov-single", "lyapunov", "configs/lyapunov_mixed.cfg",
            {"n_steps": LYAPUNOV["n_steps"]}, {"n_steps": 1}, False, _check_lyapunov,
        ),
        Workload(
            "regime-scan", "regime-scan", "configs/regime_scan.cfg",
            {"n_samples": REGIME_SAMPLES}, {"n_samples": 1, "scan_steps": 1}, True, _check_regime,
        ),
    )
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced invocation


def layer_metrics(spans: list[dict], cpu_s: float, overhead_s: float) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    requested: dict[str, dict[str, float]] = defaultdict(dict)
    for span in spans:
        name = f"{span['layer']}.{span['name']}"
        self_s[name] += span["self_s"]
        calls[name] += 1
        for key, value in span["work"].items():
            if key != "key":
                work[f"{name}.{key}"] += value
        if "key" in span["work"]:
            size = span["work"].get("kicks", span["work"].get("steps"))
            seen = requested[span["layer"]]
            seen[span["work"]["key"]] = max(seen.get(span["work"]["key"], 0), size)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kicks = work["quantum.evolve.kicks"] + work["quantum.evolve_series.kicks"]
    kick_s = self_s["quantum.evolve"] + self_s["quantum.evolve_series"]
    traj_kicks = work["liouville.ensemble_evolve.traj_kicks"]
    samples = work["liouville.sample_polarized.samples"]
    steps = work["classical.lyapunov_exponent.steps"]
    fields = work["csvio.write_csv.fields"]
    corr = [n for n in self_s if n.startswith("correspondence.")]
    return {
        "cli.self_s": self_s["cli.run"],
        "cli.cpu_s": cpu_s,
        "quantum.wigner_d_s": self_s["quantum.wigner_d"],
        "quantum.wigner_d_calls": calls["quantum.wigner_d"],
        "quantum.build_floquet_s": self_s["quantum.build_floquet"],
        "quantum.coherent_state_s": self_s["quantum.coherent_state"],
        "quantum.kick_ms": 1e3 * ratio(kick_s, kicks),
        "quantum.kicks_applied": kicks,
        "quantum.kicks_useful_ratio": ratio(sum(requested["quantum"].values()), kicks),
        "quantum.observables_ms": 1e3 * ratio(self_s["quantum.observables"], calls["quantum.observables"]),
        "quantum.observables_calls": calls["quantum.observables"],
        "liouville.ensemble_evolve_s": self_s["liouville.ensemble_evolve"],
        "liouville.traj_kicks": traj_kicks,
        "liouville.ns_per_traj_kick": 1e9 * ratio(self_s["liouville.ensemble_evolve"], traj_kicks),
        "liouville.sample_s": self_s["liouville.sample_polarized"],
        "liouville.ns_per_sample": 1e9 * ratio(self_s["liouville.sample_polarized"], samples),
        "classical.lyapunov_s": self_s["classical.lyapunov_exponent"],
        "classical.lyapunov_steps": steps,
        "classical.lyapunov_useful_ratio": ratio(sum(requested["classical"].values()), steps),
        "classical.ns_per_lyapunov_step": 1e9 * ratio(self_s["classical.lyapunov_exponent"], steps),
        "classical.regime_scan_s": self_s["classical.regime_scan"],
        "correspondence.s": sum(self_s[n] for n in corr),
        "correspondence.calls": sum(calls[n] for n in corr),
        "csvio.write_s": self_s["csvio.write_csv"],
        "csvio.fields": fields,
        "csvio.bytes": work["csvio.write_csv.bytes"],
        "csvio.us_per_field": 1e6 * ratio(self_s["csvio.write_csv"], fields),
        "trace.overhead_s": overhead_s,
    }


# ---------------------------------------------------------------------------
# one run


def measure(wl: Workload, seed: int, seconds: float, e2e: bool, traced: bool):
    """One run of one workload: ``(run, metrics)``, metrics None if none could be taken.

    ``e2e`` times the set-up invocations and reports the end-to-end metrics;
    ``traced`` adds one traced invocation and reports the per-layer metrics.
    """
    run = Run(wl, seed, deadline=time.monotonic() + RUN_LIMIT_S)
    outdir = OUT / wl.name
    setup_walls = []
    start = time.monotonic()
    for i in range(SETUP_MAX_REPEATS if e2e else 0):
        if i >= SETUP_MIN_REPEATS and time.monotonic() - start > SETUP_SECONDS:
            break
        inv = run.invoke(wl.minimum, outdir)
        if inv is not None:
            setup_walls.append(inv.wall_s)
    # Whole invocations only: the next one starts if it is expected to end
    # within ``seconds``; the first always runs.
    timed: list[Invocation] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        inv = run.invoke({}, outdir)
        if inv is not None:
            run.check(outdir)
            timed.append(inv)
        now = time.monotonic()
        if now + (now - t0) > start + seconds:
            break
    if not timed or (e2e and not setup_walls):
        return run, None
    metrics = {}
    if e2e:
        metrics["wall_s"] = statistics.median(t.wall_s for t in timed)
        metrics["setup_s"] = statistics.median(setup_walls)
        metrics["peak_rss_mb"] = statistics.median(t.rss_mb for t in timed)
    if traced:
        spans_path = ROOT / OUT / f"{wl.name}.spans.json"
        inv = run.invoke({}, outdir, spans=spans_path)
        if inv is None:
            return run, None
        run.check(outdir)
        untraced = statistics.median(t.wall_s for t in timed)
        cpu = statistics.median(t.cpu_s for t in timed)
        metrics.update(layer_metrics(json.loads(spans_path.read_text()), cpu, inv.wall_s - untraced))
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/spinchaos/cli.py", *(w.config for w in WORKLOADS.values()))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a spinchaos checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    e2e = args.workload == "all" or not args.trace
    traced = args.workload == "all" or bool(args.trace)
    units = (END_TO_END if e2e else []) + (PER_LAYER if traced else [])
    results = {}
    for name in names:
        run, metrics = measure(WORKLOADS[name], args.seed, args.seconds, e2e, traced)
        for err in run.errors:
            print(f"{name}: {err}", file=sys.stderr)
        if metrics is None:
            print(f"{name}: every timed invocation, or the traced one, exited non-zero", file=sys.stderr)
            return 1
        print(f"{name}: {run.attempted} invocations attempted, {run.failed} failed")
        for metric, unit in units:
            print(f"  {metric:34s} {metrics[metric]:>14.6g} {unit}")
        results[name] = {
            "correct": run.wrong == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units},
        }

    out = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
