import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hoeg
import hoeg.solver as solver_module
from hoeg import certify as cert
from hoeg import halfstep
from hoeg.cli import _write_csv, build_parser, main
from test_svgplot import assert_valid_svg

RUN = [sys.executable, "-m", "hoeg.cli"]
# the child processes import the hoeg under test, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hoeg.__file__)))


def child_env(env_extra=None):
    env = dict(os.environ)
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
    assert summary["termination"] == "roundoff_floor"
    assert summary["failure_residual"] is None


def test_a_run_stopped_at_the_roundoff_floor_exits_ok(tmp_path):
    csv = tmp_path / "run.csv"
    proc = invoke(["run", "--problem", "modified_forsaken", "--p", "2", "--K", "2000",
                   "--z0", "1,1", "--csv", str(csv)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["termination"] == "roundoff_floor"
    assert summary["out_index"] < summary["records"] < 2001
    assert len(csv.read_text().splitlines()) == 1 + summary["records"]  # header + one row each


@pytest.mark.parametrize("residual, reported", [(0.25, 0.25), (math.inf, None)])
def test_run_summary_keeps_the_failure_residual(monkeypatch, tmp_path, residual, reported):
    calls = []

    def failing_at_k3(F, L, z):
        calls.append(1)
        if len(calls) == 4:
            raise hoeg.ConvergenceError("stubbed failure", residual=residual)
        return halfstep.solve_half_step_p1(F, L, z)

    monkeypatch.setattr(solver_module, "solve_half_step_p1", failing_at_k3)
    out = tmp_path / "summary.json"
    assert main(["run", "--problem", "modified_forsaken", "--K", "50", "--json", str(out)]) == 1
    summary = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["termination"] == "subproblem_failure"
    assert summary["records"] == 3
    assert summary["failure_residual"] == reported


def test_alpha_selects_the_competitive_operator(tmp_path):
    run = ["run", "--problem", "forsaken", "--p", "1", "--Lp", "20", "--K", "300", "--z0=-1,-1"]
    csv_flag, csv_file = tmp_path / "flag.csv", tmp_path / "file.csv"
    competitive = invoke(run + ["--alpha", "10", "--csv", str(csv_flag)])
    standard = invoke(run)
    assert competitive.returncode == standard.returncode == 0
    args_file = tmp_path / "run.args"
    args_file.write_text("--problem=forsaken\n--p=1\n--Lp=20\n--K=300\n--z0=-1,-1\n--alpha=10\n"
                         f"--csv={csv_file}\n")
    assert invoke(["run", f"@{args_file}"]).returncode == 0
    assert csv_flag.read_bytes() == csv_file.read_bytes()
    assert json.loads(competitive.stdout)["z_out"] != json.loads(standard.stdout)["z_out"]


def test_certify_takes_its_seed_from_the_flag_only():
    certify = ["certify", "--problem", "quadratic_monotone", "--p", "1", "--samples", "500"]
    with_env = invoke(certify + ["--seed", "5"], env_extra={"HOEG_SEED": "7"})
    plain = invoke(certify + ["--seed", "5"])
    other = invoke(certify + ["--seed", "7"])
    assert with_env.returncode == plain.returncode == other.returncode == 0
    assert with_env.stdout == plain.stdout != other.stdout


def test_later_flags_override_the_args_file(tmp_path):
    args_file = tmp_path / "run.args"
    args_file.write_text("--problem=quadratic_monotone\n--K=3\n--Lp=1.0\n")
    proc = invoke(["run", f"@{args_file}", "--K", "7", "--p", "2", "--Lp", "5"])
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert (summary["p"], summary["K"], summary["records"]) == (2, 7, 8)


@pytest.mark.parametrize("text, message", [
    ("--problem=forsaken\n--Lp=20\n--K=ten\n", "argument --K: invalid int value: 'ten'"),
    (None, "No such file or directory"),
])
def test_bad_or_missing_args_file_is_usage_error(tmp_path, text, message):
    args_file = tmp_path / "run.args"
    if text is not None:
        args_file.write_text(text)
    proc = invoke(["run", f"@{args_file}"])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_unsupported_certify_order_is_usage_error():
    proc = invoke(["certify", "--problem", "x2y", "--p", "0", "--samples", "200"])
    assert proc.returncode == 2
    assert "order p = 0 is not supported" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,message", [
    (["certify", "--problem", "x2y", "--samples", "200", "--q", "nan"], "q must be finite, got nan"),
    (["simulate", "--problem", "comonotone_toy", "--t-end", "1", "--dt", "0.3"],
     "dt = 0.3 does not divide t_end = 1.0"),
    (["run", "--problem", "modified_forsaken", "--p", "1", "--Lp", "inf", "--K", "50"],
     "lipschitz must be positive and finite, got inf"),
    (["run", "--problem", "modified_forsaken", "--p", "2", "--Lp", "inf", "--K", "50"],
     "lipschitz must be positive and finite, got inf"),
    (["certify", "--problem", "x2y", "--samples", "200", "--seed", "-5"],
     "seed must be a non-negative integer, got -5"),
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


@pytest.mark.parametrize("argv, K, z0", [
    (["run", "--problem", "x2y"], 1000, (0.5, -0.5)),
    (["certify", "--problem", "x2y"], 2000, (0.5, -0.5)),
])
def test_each_subcommand_keeps_its_run_defaults(argv, K, z0):
    # the run options are declared once; each subcommand still has its own K and z0
    args = build_parser().parse_args(argv)
    assert (args.p, args.Lp, args.K, tuple(args.z0), args.alpha) == (1, None, K, z0, None)


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


def test_simulate_with_an_overflowing_integral_prints_strict_json():
    # ||F|| = 1e160 at t = 0: the squares in the norm and the integrand overflow
    proc = invoke(["simulate", "--problem", "bilinear", "--t-end", "0.05", "--dt", "0.01",
                   "--z0", "1e160,1e160"])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["integral"] is None
    # F(x, y) = (y, -x): ||F(z)|| falls as exp(-t/2) from ||R(z0)|| = 1e160
    assert summary["final_opnorm"] == pytest.approx(math.exp(-0.025) * 1e160, rel=1e-9)
    assert summary["failed_at"] is None


def test_write_csv_peak_memory_does_not_grow_with_the_table(tmp_path):
    # 50 001 rows of 8 columns make a 7.8 MB file; formatting it whole peaked at 57 MB
    rng = np.random.default_rng(0)
    n = 50001
    columns = {"t": np.arange(n) * 1e-3, "z": rng.random((n, 2)), "v": rng.random((n, 2)),
               "opnorm": rng.random(n), "energy": rng.random(n), "integral": rng.random(n)}
    path = tmp_path / "flow.csv"
    tracemalloc.start()
    try:
        _write_csv(str(path), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    lines = path.read_text().splitlines()
    assert lines[0] == "t,z_0,z_1,v_0,v_1,opnorm,energy,integral" and len(lines) == 1 + n
    assert lines[-1].split(",")[2] == format(columns["z"][-1, 1], ".17g")


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
    assert_valid_svg(svg)
    assert_valid_svg(tmp_path / "run_trajectory.svg")
    summary = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["termination"] == "numeric_failure"
    assert summary["min_opnorm"] == 1.414213562373095e+200


def test_an_overflowing_min_opnorm_is_null_in_strict_json(tmp_path):
    # every F is finite, but ||F|| = hypot(1.3e308, 1.3e308) passes the float range
    out = tmp_path / "run.json"
    proc = invoke(["run", "--problem", "bilinear", "--p", "1", "--Lp", "20", "--K", "1",
                   "--z0", "1.3e308,1.3e308", "--json", str(out)])
    assert proc.returncode == 0, proc.stderr
    for text in (proc.stdout, out.read_text()):
        summary = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
        assert summary["min_opnorm"] is None
        assert summary["termination"] == "budget_exhausted"


def test_certify_q_scans_each_exponent_once(monkeypatch, capsys):
    scans = []
    rho_scan = cert._rho_scan

    def counted(*args, **kwargs):
        scans.append(args[2])
        return rho_scan(*args, **kwargs)

    monkeypatch.setattr(cert, "_rho_scan", counted)
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


def test_certify_lipschitz_without_q_is_usage_error():
    # --Lp sets only the --q run, so alone it would be silently ignored
    proc = invoke(["certify", "--problem", "x2y", "--Lp", "3", "--samples", "200"])
    assert proc.returncode == 2
    assert "--Lp" in proc.stderr and "--q" in proc.stderr
    assert proc.stdout == ""


def test_decoupled_certificate_of_a_run_at_z_star_is_usage_error():
    # D = 0 and (p+1)/p - q < 0: the threshold D^((p+1)/p - q) does not exist
    proc = invoke(["certify", "--problem", "x2y", "--q", "3", "--z0", "0,0", "--samples", "200"])
    assert proc.returncode == 2
    assert "D = 0" in proc.stderr and "Traceback" not in proc.stderr


def test_run_reports_the_fitted_slope():
    proc = invoke(["run", "--problem", "bilinear", "--Lp", "1", "--K", "500", "--z0", "1,0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fitted_slope"] <= -0.75


def test_a_fitted_slope_of_overflowing_squares_is_null_in_strict_json():
    # ||F|| stays near 1e156, so every square of the fitted half is inf and no slope exists
    proc = invoke(["run", "--problem", "bilinear", "--Lp", "1", "--K", "100", "--z0", "1e160,1e160"])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
    assert summary["fitted_slope"] is None


def test_run_svg_output(tmp_path):
    svg = tmp_path / "plot.svg"
    proc = invoke(["run", "--problem", "quadratic_monotone", "--Lp", "1", "--K", "50",
                   "--z0", "1,0", "--svg", str(svg)])
    assert proc.returncode == 0
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "plot_trajectory.svg").exists()
    assert_valid_svg(svg)
    assert_valid_svg(tmp_path / "plot_trajectory.svg")


def test_an_svg_whose_axis_is_narrower_than_its_tick_step_is_written(tmp_path):
    # from (1e10, 1e10) the trajectory's y axis is a few ulps of 1e10 wide, and
    # its linear tick step of 5e-7 did not move t, so the tick loop never ended;
    # a child process with a timeout turns such a hang into a failure
    svg = tmp_path / "out.svg"
    proc = subprocess.run(RUN + ["run", "--problem", "quadratic_monotone", "--p", "1", "--Lp", "1e15",
                                 "--K", "1", "--z0", "1e10,1e10", "--svg", str(svg)],
                          capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "out_trajectory.svg").read_text().startswith("<svg")
    assert_valid_svg(svg)
    assert_valid_svg(tmp_path / "out_trajectory.svg")


def test_no_two_ticks_of_a_narrow_axis_share_a_label(tmp_path):
    # two steps from (1e10, 1e10) span a few ulps of 1e10, where `.4g` labels
    # three ticks of each axis 1e+10
    svg = tmp_path / "out.svg"
    proc = invoke(["run", "--problem", "quadratic_monotone", "--p", "1", "--Lp", "1e15",
                   "--K", "2", "--z0", "1e10,1e10", "--svg", str(svg)])
    assert proc.returncode == 0, proc.stderr
    trajectory = (tmp_path / "out_trajectory.svg").read_text()
    assert_valid_svg(svg)
    assert_valid_svg(tmp_path / "out_trajectory.svg")
    for axis in (r'<text x="[^"]*" y="448" text-anchor="middle">', r'<text x="62" y="[^"]*" text-anchor="end">'):
        labels = re.findall(axis + r'([^<]*)</text>', trajectory)
        assert len(labels) == len(set(labels)) > 1, labels


_TICK_CASES = """
import json, math, sys
from hoeg.svgplot import _ticks
out = []
for lo in (0.0, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, -1.0, 1e10, 1e300, -1.7e308, 1.7e308):
    for hi in (math.nextafter(lo, math.inf), math.nextafter(math.nextafter(lo, math.inf), math.inf)):
        if math.isfinite(hi):
            out.append([lo, hi, [t for t, _ in _ticks(lo, hi, False)]])
try:
    _ticks(-1e308, 1e308, False)
    out.append("no error")
except ValueError as exc:
    out.append(str(exc))
json.dump(out, sys.stdout)
"""


def test_ticks_end_for_every_finite_axis():
    # one- and two-ulp wide axes from 0 to the top of the float range, each in a
    # child process with a timeout, since a tick loop that cannot advance hangs
    proc = subprocess.run([sys.executable, "-c", _TICK_CASES], capture_output=True, text=True,
                          env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    *cases, overflow = json.loads(proc.stdout)
    assert len(cases) == 22
    for lo, hi, ticks in cases:
        span = hi - lo
        assert 1 <= len(ticks) <= 6, (lo, hi, ticks)
        assert all(lo - span <= t <= hi + span for t in ticks), (lo, hi, ticks)
    assert overflow == "cannot place ticks on [-1e+308, 1e+308]: its width overflows the float range"


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


def test_args_file_lines_take_either_flag_form(tmp_path):
    args_file = tmp_path / "run.args"
    args_file.write_text("--problem=quadratic_monotone\n\n  \n--K 3\n--csv=a b.csv\n"
                         "--json  out dir/s.json \n--Lp=1.0\n")
    args = build_parser().parse_args(["run", f"@{args_file}"])
    assert (args.problem, args.K, args.Lp) == ("quadratic_monotone", 3, 1.0)
    assert (args.csv, args.json) == ("a b.csv", "out dir/s.json")
