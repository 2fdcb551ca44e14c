import math
import subprocess
import sys

import numpy as np
import pytest

from spinchaos import classical, cli, correspondence, liouville, quantum

from oracles import ensemble_states, marginal_pz_classical


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "spinchaos.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# parameter conversion


def test_params_convert_round_trip():
    conv = cli.params_convert(s=140, l=154, gamma=2.835)
    assert abs(conv["c"] - 2.835 / math.sqrt(140 * 141)) < 1e-15
    back = cli.params_convert(s=140, l=154, c=conv["c"])
    assert abs(back["gamma"] - 2.835) < 1e-14
    assert abs(conv["r"] - math.sqrt(154 * 155 / (140 * 141))) < 1e-14


def test_params_convert_equal_spins_gives_unit_ratio():
    assert cli.params_convert(s=20, l=20, gamma=1.0)["r"] == 1.0


def test_params_convert_requires_exactly_one_coupling():
    with pytest.raises(cli.ConfigError):
        cli.params_convert(s=10, l=11, c=0.1, gamma=1.0)
    with pytest.raises(cli.ConfigError):
        cli.params_convert(s=10, l=11)
    with pytest.raises(cli.ConfigError):
        cli.params_convert(s=-1, l=11, gamma=1.0)


def test_choose_s_for_r_standard_lattice():
    for l, expected in [(11, 10), (22, 20), (44, 40), (88, 80), (154, 140), (220, 200)]:
        assert cli.choose_s_for_r(l, 1.1) == expected


def test_choose_s_for_r_rejects_unreachable_ratio():
    with pytest.raises(cli.ConfigError, match="nearest"):
        cli.choose_s_for_r(11, 3.7, tolerance=0.001)
    with pytest.raises(cli.ConfigError):
        cli.choose_s_for_r(11, 0.5)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("a = 5.0  # rotation\ngamma=1.215\nseed = 3\n\n# comment line\n")
    cfg = cli.parse_config(str(cfg_file), ["seed=9", "l=154"])
    assert cfg["a"] == 5.0
    assert cfg["gamma"] == 1.215
    assert cfg["seed"] == 9
    assert cfg["l"] == 154.0


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("banana = 7\n")
    with pytest.raises(cli.ConfigError, match="banana"):
        cli.parse_config(str(cfg_file), [])
    # a key no mode reads is unknown too, not silently ignored
    with pytest.raises(cli.ConfigError, match="renorm_every"):
        cli.parse_config(None, ["renorm_every=7"])
    assert cli.main(["lyapunov", "--set", "renorm_every=7"]) == 1
    with pytest.raises(cli.ConfigError, match="chunk_size"):
        cli.parse_config(None, ["chunk_size=1000"])
    assert cli.main(["ensemble", "--set", "chunk_size=1000"]) == 1


def test_parse_config_rejects_bad_value():
    with pytest.raises(cli.ConfigError, match="n_kicks"):
        cli.parse_config(None, ["n_kicks=lots"])


# ---------------------------------------------------------------------------
# run modes (small smoke-scale runs through the real entry point)


def test_cli_exit_codes_for_config_errors(tmp_path):
    # missing required key, named in the diagnostic
    res = run_cli(["quantum", "--set", f"outdir={tmp_path}", "--set", "a=5"])
    assert res.returncode == 1
    assert "'s'" in res.stderr
    res = run_cli(["compare", "--set", "nonsense=1"])
    assert res.returncode == 1 and "nonsense" in res.stderr


def test_cli_rejects_double_parameterization(tmp_path):
    res = run_cli(
        ["quantum", "--set", f"outdir={tmp_path}", "--set", "a=5", "--set", "s=2",
         "--set", "l=2", "--set", "c=0.1", "--set", "gamma=1.0", "--set", "theta_s=0",
         "--set", "phi_s=0", "--set", "theta_l=0", "--set", "phi_l=0"]
    )
    assert res.returncode == 1
    assert "gamma" in res.stderr or "'c'" in res.stderr


def test_numerical_error_exit_code(monkeypatch, tmp_path):
    def boom(cfg, rec):
        raise FloatingPointError("non-finite tangent growth")

    monkeypatch.setitem(cli._RUNNERS, "lyapunov", boom)
    code = cli.run("lyapunov", cli.parse_config(None, [f"outdir={tmp_path}"]))
    assert code == 2


def test_internal_failure_exit_code(monkeypatch, tmp_path, capsys):
    # exit status 1 is kept for configuration errors
    def dead_worker(cfg, rec):
        raise RuntimeError("pool worker 1 (pid 4242) gave no result: signal SIGKILL")

    monkeypatch.setitem(cli._RUNNERS, "ensemble", dead_worker)
    code = cli.run("ensemble", cli.parse_config(None, [f"outdir={tmp_path}"]))
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: pool worker 1" in err


def test_quantum_mode_artifacts(tmp_path):
    out = tmp_path / "q"
    res = run_cli(
        ["quantum", "--set", f"outdir={out}", "--set", "a=5", "--set", "gamma=1.215",
         "--set", "s=4", "--set", "l=5", "--set", "theta_s=20", "--set", "phi_s=40",
         "--set", "theta_l=160", "--set", "phi_l=130", "--set", "n_kicks=6",
         "--set", "dump_state=1", "--set", "dump_pz=1"]
    )
    assert res.returncode == 0, res.stderr
    qm = (out / "qmoments.csv").read_text().splitlines()
    assert qm[0].startswith("n,Sx_mean,Sy_mean,Sz_mean,Svar_norm,Lx_mean")
    assert len(qm) == 8
    state_lines = (out / "state_final.csv").read_text().splitlines()
    assert state_lines[0] == "m_s,m_l,re,im"
    assert len(state_lines) == 1 + 9 * 11
    pz = np.genfromtxt(out / "pz_final.csv", delimiter=",", names=True)
    assert abs(pz["P"].sum() - 1.0) < 1e-12
    assert "manifest.txt" in {p.name for p in out.iterdir()}

    # both dumps come from the state at the end of the one evolution
    conv = cli.params_convert(s=4, l=5, gamma=1.215)
    th_s, ph_s, th_l, ph_l = np.deg2rad([20, 40, 160, 130])
    state = quantum.product_state(
        4, 5, quantum.coherent_state(4, th_s, ph_s), quantum.coherent_state(5, th_l, ph_l)
    )
    final = quantum.evolve_series(state, quantum.build_floquet(4, 5, 5.0, conv["c"]), 6).final
    amps = np.genfromtxt(out / "state_final.csv", delimiter=",", names=True)
    assert np.array_equal(amps["re"] + 1j * amps["im"], final.amplitudes)
    assert np.array_equal(pz["P"], quantum.marginal_pz(final))


def test_classical_traj_mode(tmp_path):
    out = tmp_path / "t"
    res = run_cli(
        ["classical-traj", "--set", f"outdir={out}", "--set", "a=5", "--set", "gamma=1.215",
         "--set", "r=1.1", "--set", "theta_s=20", "--set", "phi_s=40", "--set",
         "theta_l=160", "--set", "phi_l=130", "--set", "n_kicks=50"]
    )
    assert res.returncode == 0, res.stderr
    data = np.genfromtxt(out / "traj.csv", delimiter=",", names=True)
    assert data.shape[0] == 51
    norms = np.sqrt(data["Sx"] ** 2 + data["Sy"] ** 2 + data["Sz"] ** 2)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_lyapunov_mode(tmp_path):
    out = tmp_path / "ly"
    res = run_cli(
        ["lyapunov", "--set", f"outdir={out}", "--set", "a=5", "--set", "gamma=2.835",
         "--set", "r=1.1", "--set", "theta_s=20", "--set", "phi_s=40",
         "--set", "theta_l=160", "--set", "phi_l=130", "--set", "n_steps=4000",
         "--set", "sample_every=1000"]
    )
    assert res.returncode == 0, res.stderr
    assert "lambda_L = 0.4" in (out / "summary.txt").read_text()
    data = np.genfromtxt(out / "lyapunov.csv", delimiter=",", names=True)
    assert data.shape[0] == 4


LYAPUNOV_ARGS = ["a=5", "gamma=1.215", "r=1.1", "theta_s=20", "phi_s=40", "theta_l=160",
                 "phi_l=130"]
COMPARE_ARGS = ["a=5", "gamma=1.215", "s=10", "l=11", "theta_s=45", "phi_s=70", "theta_l=135",
                "phi_l=70"]


def test_lyapunov_mode_takes_each_step_once(monkeypatch, tmp_path):
    calls = []
    real_rotations = classical._x_rotations

    def counting_rotations(*args, **kwargs):
        calls.append(1)
        return real_rotations(*args, **kwargs)

    monkeypatch.setattr(classical, "_x_rotations", counting_rotations)
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", *LYAPUNOV_ARGS, "n_steps=2500", "sample_every=1000"]
    )
    assert cli.run("lyapunov", cfg) == 0
    assert len(calls) == 2500

    data = np.genfromtxt(tmp_path / "lyapunov.csv", delimiter=",", names=True)
    assert data["n"].tolist() == [1000, 2000, 2500]
    x0 = classical.angles_to_state(*np.deg2rad([20, 40, 160, 130]))
    p = classical.ClassicalParams(5.0, 1.215, 1.1)
    for n, lam in zip(data["n"], data["lambda_running"]):
        assert lam == classical.lyapunov_exponent(x0, p, int(n))


@pytest.mark.parametrize(
    "mode, overrides",
    [
        ("lyapunov", [*LYAPUNOV_ARGS, "n_steps=0"]),
        ("lyapunov", [*LYAPUNOV_ARGS, "sample_every=0"]),
        ("lyapunov", [*LYAPUNOV_ARGS, "n_steps=100", "sample_every=-5"]),
        ("regime-scan", ["a=5", "gamma=1.215", "r=1.1", "n_samples=10", "scan_steps=0"]),
        ("compare", [*COMPARE_ARGS, "n_kicks=2", "n_traj=1000", "lyap_steps=0"]),
        ("regime-scan", ["a=5", "gamma=1.215", "r=1.1", "scan_steps=10", "n_samples=0"]),
        ("compare", [*COMPARE_ARGS, "n_traj=1000", "lyap_steps=10", "n_kicks=-1"]),
        ("compare", [*COMPARE_ARGS, "n_kicks=2", "lyap_steps=10", "n_traj=0"]),
        ("classical-traj", [*LYAPUNOV_ARGS, "n_kicks=-3"]),
        ("ensemble", [*COMPARE_ARGS, "n_traj=1000", "n_kicks=-2"]),
        ("quantum", [*COMPARE_ARGS, "n_kicks=-2"]),
        ("appendix-check", ["j=3", "n_samples=0"]),
        ("compare", [*COMPARE_ARGS, "n_kicks=2", "n_traj=1000", "lyap_steps=10", "ma_window=0"]),
        # non-finite floats, which used to run and write NaN rows to qmoments.csv
        ("quantum", [*COMPARE_ARGS, "n_kicks=3", "theta_s=nan"]),
        ("quantum", [*COMPARE_ARGS, "n_kicks=3", "a=nan"]),
        ("quantum", [*COMPARE_ARGS, "n_kicks=3", "gamma=inf"]),
    ],
)
def test_non_positive_step_counts_are_config_errors(mode, overrides, tmp_path, capsys):
    key = overrides[-1].split("=")[0]
    argv = [mode, "--set", f"outdir={tmp_path}"]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_regime_scan_mode(tmp_path):
    out = tmp_path / "scan"
    res = run_cli(
        ["regime-scan", "--set", f"outdir={out}", "--set", "a=5", "--set", "gamma=0",
         "--set", "r=1.1", "--set", "n_samples=50", "--set", "scan_steps=500"]
    )
    assert res.returncode == 0, res.stderr
    assert "chaotic_fraction = 0" in (out / "summary.txt").read_text()
    header = (out / "scan.csv").read_text().splitlines()[0]
    assert header == "S_z,phi_s,L_z,phi_l,lambda,is_chaotic"


def test_compare_mode_and_deterministic_replay(tmp_path):
    args = ["compare", "--set", "a=5", "--set", "gamma=2.835", "--set", "s=10",
            "--set", "l=11", "--set", "theta_s=45", "--set", "phi_s=70",
            "--set", "theta_l=135", "--set", "phi_l=70", "--set", "n_kicks=8",
            "--set", "n_traj=5000", "--set", "seed=7", "--set", "lyap_steps=2000"]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    res1 = run_cli(args + ["--set", f"outdir={out1}"])
    res2 = run_cli(args + ["--set", f"outdir={out2}"])
    assert res1.returncode == 0, res1.stderr
    assert res2.returncode == 0, res2.stderr
    for name in ("qmoments.csv", "cmoments.csv", "delta.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    summary = (out1 / "summary.txt").read_text()
    assert "lambda_L" in summary and "break-times:" in summary
    delta = np.genfromtxt(out1 / "delta.csv", delimiter=",", names=True)
    assert np.all(delta["delta_Lz"] >= 0.0)


def test_compare_manifest_records_timings(tmp_path):
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", *COMPARE_ARGS, "n_kicks=3", "n_traj=2000", "lyap_steps=100"]
    )
    assert cli.run("compare", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "\n[timings]\n" in manifest
    timings = dict(
        line.split(" = ") for line in manifest.split("[timings]\n", 1)[1].splitlines()
    )
    assert list(timings) == [
        "quantum_build_s", "quantum_evolution_s", "ensemble_propagation_s", "lyapunov_s",
        "csv_write_s", "run_s", "workers",
    ]
    stages_s = [float(timings[key]) for key in list(timings)[:5]]
    assert all(t > 0.0 for t in stages_s), timings
    assert sum(stages_s) <= float(timings["run_s"]) + 1e-5  # each rounded to 1e-6
    assert int(timings["workers"]) == classical._WORKERS
    for name in ("qmoments.csv", "cmoments.csv", "delta.csv", "summary.txt"):
        assert "timings" not in (tmp_path / name).read_text()


def test_manifest_records_resources(tmp_path):
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", *COMPARE_ARGS, "n_kicks=3", "n_traj=2000", "lyap_steps=100"]
    )
    assert cli.run("compare", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    section = manifest.split("\n[resources]\n", 1)[1].split("\n\n", 1)[0]
    resources = dict(line.split(" = ") for line in section.splitlines())
    assert list(resources) == ["cpu_s", "children_cpu_s", "peak_rss_mb", "minor_faults"]
    assert all(float(value) >= 0.0 for value in resources.values()), resources
    assert manifest.index("[resources]") < manifest.index("[timings]")
    for name in ("qmoments.csv", "cmoments.csv", "delta.csv", "summary.txt"):
        assert "minor_faults" not in (tmp_path / name).read_text()


_BURN_CPU = "import time\nt0 = time.process_time()\nwhile time.process_time() - t0 < 0.25:\n    pass\n"


def test_children_cpu_counts_only_the_children_a_run_reaped(tmp_path):
    # a child reaped before the run, such as one a launcher ran, is not the run's
    res = subprocess.run([sys.executable, "-c", _BURN_CPU], timeout=60)
    assert res.returncode == 0
    cfg = cli.parse_config(None, [f"outdir={tmp_path}", *COMPARE_ARGS, "n_kicks=3"])
    assert cli.run("quantum", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    section = manifest.split("\n[resources]\n", 1)[1].split("\n\n", 1)[0]
    resources = dict(line.split(" = ") for line in section.splitlines())
    assert float(resources["children_cpu_s"]) < 0.05


def test_regime_scan_manifest_records_lyapunov_time(tmp_path):
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", "a=5.0", "gamma=1.215", "r=1.1", "n_samples=5",
               "scan_steps=50"],
    )
    assert cli.run("regime-scan", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    timings = dict(
        line.split(" = ") for line in manifest.split("\n[timings]\n", 1)[1].splitlines()
    )
    assert 0.0 < float(timings["lyapunov_s"]) <= float(timings["run_s"])
    assert float(timings["ensemble_propagation_s"]) == 0.0
    assert int(timings["workers"]) == classical._WORKERS
    assert "timings" not in (tmp_path / "scan.csv").read_text()


def test_lyapunov_manifest_records_lyapunov_time(tmp_path):
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", *LYAPUNOV_ARGS, "n_steps=200", "sample_every=50"]
    )
    assert cli.run("lyapunov", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    timings = dict(
        line.split(" = ") for line in manifest.split("\n[timings]\n", 1)[1].splitlines()
    )
    assert 0.0 < float(timings["lyapunov_s"]) <= float(timings["run_s"])
    assert float(timings["ensemble_propagation_s"]) == 0.0
    assert int(timings["workers"]) == classical._WORKERS
    for name in ("lyapunov.csv", "summary.txt"):
        assert "timings" not in (tmp_path / name).read_text()


def test_compare_manifest_records_quantum_norm_drift(tmp_path):
    cfg = cli.parse_config(
        None, [f"outdir={tmp_path}", *COMPARE_ARGS, "n_kicks=5", "n_traj=2000", "lyap_steps=100"]
    )
    assert cli.run("compare", cfg) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    health = manifest.split("\n[health]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert len(health) == 1 and health[0].startswith("quantum_norm_drift = ")
    assert 0.0 <= float(health[0].split(" = ")[1]) < 1e-12
    for name in ("qmoments.csv", "cmoments.csv", "delta.csv", "summary.txt"):
        assert "norm_drift" not in (tmp_path / name).read_text()


@pytest.mark.parametrize("mode, sets", [
    ("regime-scan", ["a=5", "gamma=1.215", "r=1.1", "n_samples=41", "scan_steps=300"]),
    ("ensemble", [*COMPARE_ARGS, "n_kicks=5", "n_traj=40000", "dump_pz=1"]),
    ("break-scaling", ["a=5", "gamma=1.215", "theta_s=20", "phi_s=40", "theta_l=160",
                       "phi_l=130", "l_list=11,22", "n_kicks=5", "n_traj=40000"]),
])
def test_data_files_independent_of_worker_count(monkeypatch, tmp_path, mode, sets):
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(classical, "_WORKERS", workers)
        out = tmp_path / str(workers)
        assert cli.run(mode, cli.parse_config(None, [f"outdir={out}", *sets])) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.txt"})
    assert len(outputs[0]) >= 2 and outputs[0] == outputs[1]


def test_runs_in_one_process_share_no_state(tmp_path):
    compare = cli.parse_config(
        None, [f"outdir={tmp_path / 'c'}", *COMPARE_ARGS, "n_kicks=3", "n_traj=2000",
               "lyap_steps=100"]
    )
    assert cli.run("compare", compare) == 0
    assert "\n[health]\n" in (tmp_path / "c" / "manifest.txt").read_text()
    lyapunov = cli.parse_config(
        None, [f"outdir={tmp_path / 'l'}", *LYAPUNOV_ARGS, "n_steps=200", "sample_every=50"]
    )
    assert cli.run("lyapunov", lyapunov) == 0
    manifest = (tmp_path / "l" / "manifest.txt").read_text()
    assert "[health]" not in manifest
    timings = dict(
        line.split(" = ") for line in manifest.split("\n[timings]\n", 1)[1].splitlines()
    )
    for stage in ("quantum_build_s", "quantum_evolution_s", "ensemble_propagation_s"):
        assert float(timings[stage]) == 0.0, stage
    assert float(timings["lyapunov_s"]) > 0.0


def test_ensemble_mode_seed_changes_output(tmp_path):
    base = ["ensemble", "--set", "a=5", "--set", "gamma=1.215", "--set", "s=10",
            "--set", "l=11", "--set", "theta_s=45", "--set", "phi_s=70",
            "--set", "theta_l=135", "--set", "phi_l=70", "--set", "n_kicks=3",
            "--set", "n_traj=2000"]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert run_cli(base + ["--set", f"outdir={out1}", "--set", "seed=1"]).returncode == 0
    assert run_cli(base + ["--set", f"outdir={out2}", "--set", "seed=2"]).returncode == 0
    assert (out1 / "cmoments.csv").read_bytes() != (out2 / "cmoments.csv").read_bytes()


def test_ensemble_mode_dumps_pz_from_the_one_propagation(monkeypatch, tmp_path):
    # count trajectory-kicks, so that several tiles still add up to one pass
    traj_kicks = []
    real_map = liouville._map_cols

    def counting_map(*args, **kwargs):
        traj_kicks.append(args[0].size)
        return real_map(*args, **kwargs)

    monkeypatch.setattr(liouville, "_map_cols", counting_map)
    monkeypatch.setattr(liouville, "_TILE", 512)
    monkeypatch.setattr(classical, "_WORKERS", 1)  # a forked worker's calls would go uncounted
    cfg = cli.parse_config(
        None,
        [f"outdir={tmp_path}", "a=5", "gamma=1.215", "s=10", "l=11", "theta_s=45",
         "phi_s=70", "theta_l=135", "phi_l=70", "n_kicks=4", "n_traj=3000", "seed=3",
         "dump_pz=1"],
    )
    assert cli.run("ensemble", cfg) == 0
    assert len(traj_kicks) == 4 * 6  # 3000 trajectories in 6 tiles, 4 kicks each
    assert sum(traj_kicks) == 3000 * 4

    conv = cli.params_convert(s=10, l=11, gamma=1.215)
    p = classical.ClassicalParams(5.0, conv["gamma"], conv["r"])
    ens = liouville.build_ensemble(10, 11, *np.deg2rad([45, 70, 135, 70]), n_traj=3000, seed=3)
    states = ensemble_states(ens)
    for _ in range(4):
        states = classical.map_step(states, p)
    pz = np.genfromtxt(tmp_path / "pz_final.csv", delimiter=",", names=True)
    assert np.array_equal(pz["P"], marginal_pz_classical(states, 11))


def test_break_scaling_mode_small(tmp_path):
    out = tmp_path / "bs"
    res = run_cli(
        ["break-scaling", "--set", f"outdir={out}", "--set", "a=5", "--set", "gamma=1.215",
         "--set", "theta_s=20", "--set", "phi_s=40", "--set", "theta_l=160",
         "--set", "phi_l=130", "--set", "l_list=11,22,33,44", "--set", "n_kicks=14",
         "--set", "n_traj=30000", "--set", "p=0.1", "--set", "seed=5"]
    )
    assert res.returncode == 0, res.stderr
    table = np.genfromtxt(out / "breaktimes.csv", delimiter=",", names=True)
    assert table.shape[0] == 4
    assert set(table["l"]) == {11.0, 22.0, 33.0, 44.0}
    assert np.all(table["t_b"] >= 1)
    assert "lambda_qc (break-time scaling fit)" in (out / "summary.txt").read_text()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ensemble_draws_hold_no_chunk_in_memory():
    # Each tile draws its own 16,384 rows, so a 1e6-trajectory ensemble raises
    # the caller's peak RSS by a few MB, not by a 48 MB chunk and its
    # temporaries; a fresh process keeps the pytest process's heap out of it.
    script = (
        "import numpy as np\n"
        "from spinchaos import classical as cl, liouville as lv\n"
        "def hwm():\n"
        "    return int(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])\n"
        "ens = lv.build_ensemble(20, 22, *np.deg2rad([45, 70, 135, 70]), n_traj=1_000_000, seed=7)\n"
        "p = cl.ClassicalParams(5.0, 1.215, 1.1)\n"
        "np.random.PCG64  # numpy imports its random module on first use\n"
        "before = hwm()\n"
        "lv.ensemble_evolve(ens, p, 1)\n"
        "print(hwm() - before)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 16_000  # kB


def test_break_scaling_reports_dropped_direct_fit(monkeypatch, tmp_path):
    real_fit = correspondence.fit_growth_exponent

    def fit_failing_at_11(d, **kwargs):
        if d.l == 11:
            raise ValueError("no kicks above the Monte Carlo noise floor to fit")
        return real_fit(d, **kwargs)

    monkeypatch.setattr(correspondence, "fit_growth_exponent", fit_failing_at_11)
    cfg = cli.parse_config(
        None,
        [f"outdir={tmp_path}", "a=5", "gamma=1.215", "theta_s=20", "phi_s=40", "theta_l=160",
         "phi_l=130", "l_list=11,22", "n_kicks=14", "n_traj=20000", "seed=5"],
    )
    assert cli.run("break-scaling", cfg) == 0
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert (
        "direct fit at l=11 left out of fits.csv: "
        "no kicks above the Monte Carlo noise floor to fit"
    ) in summary
    fits = np.genfromtxt(tmp_path / "fits.csv", delimiter=",", names=True)
    assert set(np.atleast_1d(fits["l"])) == {22.0}
    direct = f"lambda_qc (direct fit at largest fitted l) = {float(fits['lambda_qc_direct']):.6g}"
    assert direct in summary


def test_appendix_check_mode(tmp_path):
    out = tmp_path / "apx"
    res = run_cli(
        ["appendix-check", "--set", f"outdir={out}", "--set", "j=10",
         "--set", "n_samples=50000", "--set", "seed=3"]
    )
    assert res.returncode == 0, res.stderr
    summary = (out / "summary.txt").read_text()
    assert "quantum <Jx^4> = 72.5" in summary
    assert "classical <Jx^4> = 37.5" in summary
    assert "delta Jx^4 = 35" in summary


# ---------------------------------------------------------------------------
# package


def test_every_name_in_all_exists():
    # the benchmark's tracer looks up every __all__ name with getattr
    for module in (classical, cli, correspondence, liouville, quantum):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
