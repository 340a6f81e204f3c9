import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hoeg
import hoeg.solver as solver_module
from hoeg import certify as cert
from hoeg.cli import RunConfig, main

RUN = [sys.executable, "-m", "hoeg.cli"]
# the child processes import the hoeg under test, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hoeg.__file__)))


def child_env(env_extra=None):
    env = dict(os.environ)
    env.pop("HOEG_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # the rule the test process runs under
    env.update(env_extra or {})
    return env


def invoke(args, env_extra=None):
    return subprocess.run(RUN + args, capture_output=True, text=True, env=child_env(env_extra))


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
    assert summary["failure_residual"] is None


@pytest.mark.parametrize("residual, reported", [(0.25, 0.25), (math.inf, None)])
def test_run_summary_keeps_the_failure_residual(monkeypatch, tmp_path, residual, reported):
    calls = []

    def failing_at_k3(F, L, z):
        calls.append(1)
        if len(calls) == 4:
            raise hoeg.ConvergenceError("stubbed failure", residual=residual)
        return hoeg.solve_half_step_p1(F, L, z)

    monkeypatch.setattr(solver_module, "solve_half_step_p1", failing_at_k3)
    out = tmp_path / "summary.json"
    assert main(["run", "--problem", "modified_forsaken", "--K", "50", "--json", str(out)]) == 1
    summary = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["termination"] == "subproblem_failure"
    assert summary["records"] == 3
    assert summary["failure_residual"] == reported


def test_config_file_roundtrip_is_bit_identical(tmp_path):
    config = RunConfig(problem="forsaken", p=1, Lp=20.0, K=300, z0=(-1.0, -1.0), alpha=10.0)
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


def test_alpha_selects_the_competitive_operator(tmp_path):
    run = ["run", "--problem", "forsaken", "--p", "1", "--Lp", "20", "--K", "300", "--z0=-1,-1"]
    csv_flag, csv_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    competitive = invoke(run + ["--alpha", "10", "--csv", str(csv_flag)])
    standard = invoke(run)
    assert competitive.returncode == standard.returncode == 0
    config = RunConfig(problem="forsaken", p=1, Lp=20.0, K=300, z0=(-1.0, -1.0), alpha=10.0,
                       outputs={"csv": str(csv_config)})
    (tmp_path / "config.json").write_text(config.to_json())
    assert invoke(["run", "--config", str(tmp_path / "config.json")]).returncode == 0
    assert csv_flag.read_bytes() == csv_config.read_bytes()
    assert json.loads(competitive.stdout)["z_out"] != json.loads(standard.stdout)["z_out"]


def test_hoeg_seed_overrides_the_certify_seed():
    certify = ["certify", "--problem", "quadratic_monotone", "--p", "1", "--samples", "500"]
    overridden = invoke(certify + ["--seed", "5"], env_extra={"HOEG_SEED": "7"})
    seeded = invoke(certify + ["--seed", "7"])
    other = invoke(certify + ["--seed", "5"])
    assert overridden.returncode == seeded.returncode == other.returncode == 0
    assert overridden.stdout == seeded.stdout != other.stdout


def test_malformed_hoeg_seed_is_usage_error():
    proc = invoke(["certify", "--problem", "x2y", "--p", "1", "--samples", "200"],
                  env_extra={"HOEG_SEED": "abc"})
    assert proc.returncode == 2
    assert "HOEG_SEED must be an integer, got 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unsupported_certify_order_is_usage_error():
    proc = invoke(["certify", "--problem", "x2y", "--p", "0", "--samples", "200"])
    assert proc.returncode == 2
    assert "order p = 0 is not supported" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,message", [
    (["certify", "--problem", "x2y", "--samples", "200", "--q", "nan"], "q must be finite, got nan"),
    (["simulate", "--problem", "comonotone_toy", "--t-end", "1", "--dt", "0.3"],
     "dt = 0.3 does not divide t_end = 1.0"),
])
def test_inputs_no_run_can_honour_are_usage_errors(args, message):
    proc = invoke(args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ["run", "--problem", "forsaken", "--Lp", "20", "--K", "10", "--mode", "competitive"],
    ["run", "--problem", "forsaken", "--Lp", "20", "--K", "10", "--seed", "3"],
    ["simulate", "--problem", "comonotone_toy", "--t-end", "1", "--dt", "0.1", "--tol", "1e-8"],
])
def test_removed_options_are_usage_errors(args):
    assert invoke(args).returncode == 2


@pytest.mark.parametrize("removed", [{"mode": "competitive"}, {"seed": 3}])
def test_removed_config_fields_are_usage_errors(tmp_path, removed):
    payload = {"problem": "forsaken", "Lp": 20.0, "K": 10, "alpha": 10.0, **removed}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    proc = invoke(["run", "--config", str(path)])
    assert proc.returncode == 2
    assert f"unknown config fields: {list(removed)}" in proc.stderr


@pytest.mark.parametrize("text,message", [
    ("5", "config must be a JSON object"),
    ('{"z0": 3}', "config field 'z0' must be a list of numbers"),
    ('{"K": "ten"}', "config field 'K' must be an integer"),
    ('{"outputs": 5}', "config field 'outputs' must be an object of output paths"),
])
def test_malformed_config_is_usage_error(tmp_path, text, message):
    path = tmp_path / "config.json"
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = {"problem": "forsaken", "Lp": 20.0, "K": 10, **payload}
    path.write_text(json.dumps(payload))
    proc = invoke(["run", "--config", str(path)])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_a_diverged_run_reports_finite_norms_in_strict_json(tmp_path):
    # ||F|| = hypot(1e200, 1e200) is a double, though its square overflows
    svg = tmp_path / "run.svg"
    proc = invoke(["run", "--problem", "x2y", "--Lp", "1e-100", "--K", "200", "--z0", "1,1",
                   "--svg", str(svg)])
    assert proc.returncode == 1
    assert svg.exists() and (tmp_path / "run_trajectory.svg").exists()
    summary = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["termination"] == "numeric_failure"
    assert summary["min_opnorm"] == 1.414213562373095e+200


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


def test_decoupled_certificate_of_a_run_at_z_star_is_usage_error():
    # D = 0 and (p+1)/p - q < 0: the threshold D^((p+1)/p - q) does not exist
    proc = invoke(["certify", "--problem", "x2y", "--q", "3", "--z0", "0,0", "--samples", "200"])
    assert proc.returncode == 2
    assert "D = 0" in proc.stderr and "Traceback" not in proc.stderr


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


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "hoeg", "list"], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0
    assert "forsaken" in proc.stdout.split()


def test_main_callable_in_process(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "forsaken" in out
