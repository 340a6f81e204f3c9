import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hoeg import certify as cert
from hoeg.cli import RunConfig, main

RUN = [sys.executable, "-m", "hoeg.cli"]


def invoke(args, env_extra=None):
    env = dict(os.environ)
    env.pop("HOEG_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


def test_list_prints_all_problems():
    proc = invoke(["list"])
    assert proc.returncode == 0
    assert proc.stdout.split() == [
        "bilinear", "comonotone_toy", "forsaken", "modified_forsaken",
        "quadratic_monotone", "x2y",
    ]


def test_run_writes_csv_with_one_row_per_iterate(tmp_path):
    csv = tmp_path / "run.csv"
    proc = invoke(["run", "--problem", "quadratic_monotone", "--p", "1", "--Lp", "1",
                   "--K", "100", "--z0", "1,0", "--csv", str(csv)])
    assert proc.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,z_0,z_1,zhalf_0,zhalf_1,lambda,r,opnorm,residual,subproblem_iters"
    assert len(lines) == 102  # header + K+1 records
    # the closed-form order-1 half-step makes no linear solve
    assert {line.split(",")[-1] for line in lines[1:]} == {"0"}
    proc = invoke(["run", "--problem", "modified_forsaken", "--p", "2", "--K", "20",
                   "--z0", "0.5,-0.5", "--csv", str(csv)])
    assert proc.returncode == 0
    iters = [int(line.split(",")[-1]) for line in csv.read_text().strip().splitlines()[1:]]
    assert len(iters) == 21 and all(n >= 1 for n in iters)


def test_csv_values_roundtrip_doubles(tmp_path):
    csv = tmp_path / "run.csv"
    invoke(["run", "--problem", "modified_forsaken", "--p", "1", "--K", "50",
            "--z0", "0.5,-0.5", "--csv", str(csv)])
    lines = csv.read_text().strip().splitlines()
    z0 = float(lines[1].split(",")[1])
    assert z0 == 0.5
    # 17 significant digits survive a parse/format cycle
    for cell in lines[40].split(",")[1:]:
        assert float(cell) == float(format(float(cell), ".17g"))


def test_run_json_summary_endpoint(tmp_path):
    out = tmp_path / "summary.json"
    proc = invoke(["run", "--problem", "modified_forsaken", "--p", "2", "--K", "3000",
                   "--z0", "0.5,-0.5", "--json", str(out)])
    assert proc.returncode == 0
    summary = json.loads(out.read_text())
    z_out = np.array(summary["z_out"])
    assert np.linalg.norm(z_out - [1.31147, 1.47596]) <= 1e-2
    assert summary["termination"] == "budget_exhausted"


def test_config_file_roundtrip_is_bit_identical(tmp_path):
    config = RunConfig(problem="forsaken", p=1, Lp=20.0, K=300, z0=(-1.0, -1.0),
                       mode="competitive", alpha=10.0, seed=3)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    reloaded = RunConfig.from_json(path.read_text())
    assert reloaded == config

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (csv_a, csv_b):
        cfg = RunConfig.from_json(path.read_text())
        cfg.outputs = {"csv": str(target)}
        with open(tmp_path / "cfg_run.json", "w") as handle:
            handle.write(cfg.to_json())
        proc = invoke(["run", "--config", str(tmp_path / "cfg_run.json")])
        assert proc.returncode == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_env_seed_override(tmp_path):
    out = tmp_path / "s.json"
    invoke(["run", "--problem", "bilinear", "--Lp", "1", "--K", "25", "--z0", "1,0",
            "--seed", "5", "--json", str(out)], env_extra={"HOEG_SEED": "99"})
    assert json.loads(out.read_text())["seed"] == 99


def test_unknown_problem_is_usage_error():
    proc = invoke(["run", "--problem", "nope", "--K", "10", "--Lp", "1"])
    assert proc.returncode == 2
    assert "unknown problem" in proc.stderr


def test_unknown_subcommand_is_usage_error():
    proc = invoke(["frobnicate"])
    assert proc.returncode == 2


def test_missing_lipschitz_is_usage_error():
    proc = invoke(["run", "--problem", "bilinear", "--K", "10"])
    assert proc.returncode == 2
    assert "published" in proc.stderr


def test_simulate_csv_opnorm_non_increasing(tmp_path):
    csv = tmp_path / "sim.csv"
    proc = invoke(["simulate", "--problem", "comonotone_toy", "--p", "1",
                   "--t-end", "5", "--dt", "0.001", "--z0", "1,1", "--csv", str(csv)])
    assert proc.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,z_0,z_1,v_0,v_1,opnorm,energy,integral"
    opnorm = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(opnorm, opnorm[1:]))


def test_simulate_keeps_csv_on_resolvent_failure(tmp_path):
    csv = tmp_path / "flow.csv"
    proc = invoke(["simulate", "--problem", "modified_forsaken", "--p", "1", "--t-end", "5",
                   "--dt", "0.01", "--z0=-1,-1", "--csv", str(csv)])
    assert proc.returncode == 1
    assert "resolvent failed" in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["failed_at"] == pytest.approx(1.9)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,z_0,z_1,v_0,v_1,opnorm,energy,integral"
    assert len(lines) == 1 + 190 == 1 + summary["samples"]


def test_run_keeps_csv_on_numeric_failure(tmp_path):
    csv = tmp_path / "run.csv"
    proc = invoke(["run", "--problem", "modified_forsaken", "--p", "1", "--Lp", "0.05",
                   "--K", "2000", "--csv", str(csv)])
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["termination"] == "numeric_failure"
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 1 + summary["records"] > 1


def test_rate_of_a_diverged_run_is_a_solver_failure():
    proc = invoke(["rate", "--problem", "modified_forsaken", "--p", "1", "--Lp", "0.05",
                   "--K", "2000"])
    assert proc.returncode == 1
    assert "diverged" in proc.stderr


def test_certify_q_scans_each_exponent_once(monkeypatch, capsys):
    scans = []
    rho_scan = cert._rho_scan

    def counted(*args, **kwargs):
        scans.append(args[2])
        return rho_scan(*args, **kwargs)

    monkeypatch.setattr(cert, "_rho_scan", counted)
    monkeypatch.delenv("HOEG_SEED", raising=False)
    assert main(["certify", "--problem", "modified_forsaken", "--p", "1", "--q", "2",
                 "--samples", "500", "--K", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(scans) == 2
    assert report["decoupled"]["rho_hat_q"] == report["rho_hat_q"]


def test_certify_monotone_problem(tmp_path):
    out = tmp_path / "cert.json"
    proc = invoke(["certify", "--problem", "quadratic_monotone", "--p", "1",
                   "--samples", "2000", "--seed", "7", "--json", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["rho_hat_p"] <= 0.0
    assert report["threshold_ok"] is True


def test_certify_decoupled_section(tmp_path):
    out = tmp_path / "cert.json"
    proc = invoke(["certify", "--problem", "modified_forsaken", "--p", "1", "--q", "2",
                   "--samples", "2000", "--seed", "7", "--K", "300", "--json", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert "decoupled" in report
    assert report["decoupled"]["D"] > 0


def test_rate_subcommand():
    proc = invoke(["rate", "--problem", "bilinear", "--Lp", "1", "--K", "500", "--z0", "1,0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["slope"] <= -0.75


def test_run_svg_output(tmp_path):
    svg = tmp_path / "plot.svg"
    proc = invoke(["run", "--problem", "quadratic_monotone", "--Lp", "1", "--K", "50",
                   "--z0", "1,0", "--svg", str(svg)])
    assert proc.returncode == 0
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "plot_trajectory.svg").exists()


def test_io_failure_exit_code(tmp_path):
    proc = invoke(["run", "--problem", "quadratic_monotone", "--Lp", "1", "--K", "10",
                   "--z0", "1,0", "--csv", str(tmp_path / "missing_dir" / "x.csv")])
    assert proc.returncode == 4


def test_main_callable_in_process(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "forsaken" in out
