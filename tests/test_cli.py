"""End-to-end tests of the command-line interface (in-process via main)."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

from forks import FORK, assert_no_child_left, counted_forks, usable_cpus
from gapforge import cli, kernel_solver, phase_diagram
from gapforge.cli import _apply_config, build_parser, main
from gapforge.core_types import ModelParams, RegionLabel
from gapforge.phase_diagram import SCAN_COLUMNS, equilibrium_curve
from gapforge.scalar_gap import solve_all


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_json_reports_every_branch(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 2
    assert payload["region"] == "B+"
    phases = [sol["phase"] for sol in payload["solutions"]]
    assert phases == ["pure_mean_field", "mixed_lower", "mixed_upper"]
    upper = payload["solutions"][-1]
    # at T << lambda_b the top branch pins to sqrt(lambda_b^2 - mu^2)
    assert upper["delta_b"] == pytest.approx(math.sqrt(24.0), abs=1e-3)
    assert upper["checks_passed"] is True
    assert isinstance(upper["checks"], dict)


def test_solve_reports_the_mixing_angle_bound_only_where_it_applies(capsys):
    # |c| >= sqrt(2)/2 is a theorem only where mu + delta_m >= 0
    code, out, _ = run_cli(capsys, "solve", "--lambda-b", "-2", "--lambda-m", "-1.5",
                           "--mu", "1", "--temp", "0.3")
    assert code == 0
    lower, = [s for s in json.loads(out)["solutions"] if s["phase"] == "mixed_lower"]
    assert 1.0 + lower["delta_m"] < 0.0
    assert "mixing_angle_bound" not in lower["checks"]
    assert lower["checks_passed"] is True
    code, out, _ = run_cli(capsys, "solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01")
    assert code == 0
    assert all(s["checks"]["mixing_angle_bound"] is True
               for s in json.loads(out)["solutions"])


def test_solve_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phase,delta_m,delta_b,w_bar,residual,checks_passed"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "pure_mean_field"
    float(first[1]), float(first[2]), float(first[3])  # cells parse as floats


def test_solve_writes_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["multiplicity"] == 2


@pytest.mark.parametrize("temp, multiplicity", [("inf", 0), ("0", 1)])
def test_solve_takes_the_temperature_limits_as_temp(capsys, temp, multiplicity):
    code, out, _ = run_cli(capsys, "solve", "--lambda-b", "4", "--mu", "1", "--temp", temp)
    assert code == 0
    assert json.loads(out)["multiplicity"] == multiplicity


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--mu", "1", "--temp", "1"),  # lambda-b missing
        ("solve", "--lambda-b", "4", "--temp", "1"),  # mu missing
        ("solve", "--lambda-b", "4", "--mu", "1"),  # temperature missing
        ("solve", "--lambda-b", "4", "--mu", "-1", "--temp", "1"),
        ("solve", "--lambda-b", "4", "--mu", "1", "--temp", "1", "--beta", "1"),
        ("solve", "--lambda-b", "4", "--mu", "1", "--beta", "-2"),
        # the scalar solver has no tolerance to set
        ("solve", "--lambda-b", "4", "--lambda-m", "3", "--mu", "1", "--temp", "0.3",
         "--tol=nan"),
        ("solve", "--lambda-b", "4", "--lambda-m", "3", "--mu", "1", "--temp", "0.3",
         "--tol=inf"),
        ("solve", "--lambda-b", "4", "--lambda-m", "3", "--mu", "1", "--temp", "0.3",
         "--tol=-1"),
    ],
)
def test_solve_rejects_bad_input(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err != ""


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2


# ---------------------------------------------------------------------------
# config files


def test_config_preloads_flags(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"lambda_b": 5.0, "mu": 1.0, "temp": 0.01}))
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_explicit_flags_override_the_config(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"lambda_b": 5.0, "mu": 1.0, "temp": 0.01}))
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--temp", "3.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 0  # 3.0 is above the transition
    assert [s["phase"] for s in payload["solutions"]] == ["pure_mean_field"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lambda_b": 5.0, "sigma": 2.0}))
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--mu", "1",
                           "--temp", "1")
    assert code == 2
    assert "sigma" in err


def test_config_must_be_valid_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "JSON" in err


def test_the_temperature_and_the_config_have_one_spelling(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--lambda-b", "4", "--mu", "1", "--beta", "2")
    assert (code, out) == (2, "") and "--beta" in err.split()
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"lambda_b": 4, "mu": 1, "beta": 2}))
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert (code, out) == (2, "") and "['beta']" in err
    cfg.write_text(json.dumps({"lambda_b": 4, "mu": 1, "temp": 0.5}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--lambda-b", "4")
    assert (code, out) == (2, "") and "Traceback" not in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--config", "/nonexistent/cfg.json")
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_lattice(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--lambda-b", "4", "--lambda-m", "0", "--mu", "1",
        "--range-temp", "0.5:2.5:3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert len(lines) == 4
    temps = [line.split(",")[3] for line in lines[1:]]
    assert [float(t) for t in temps] == [0.5, 1.5, 2.5]


def test_scan_accepts_negative_range_endpoints(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--mu", "1", "--temp", "0.5",
        "--range-lambda-b", "-2:-1:2", "--range-lambda-m", "-1:0:2",
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_scan_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--lambda-b", "4", "--lambda-m", "0", "--mu", "1",
        "--range-temp", "0.5:2.5:3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[0]["multiplicity"] == 2


def test_scan_equilibrium_curve(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--equilibrium", "--lambda-b-bar", "1.2:5:4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda_b_bar,mu_e_bar,x_e"
    assert len(lines) == 5
    curve = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a < b for a, b in zip(curve, curve[1:]))


def test_scan_equilibrium_needs_its_range(capsys):
    code, _, err = run_cli(capsys, "scan", "--equilibrium")
    assert code == 2
    assert "lambda-b-bar" in err


def test_scan_needs_every_axis(capsys):
    code, _, err = run_cli(capsys, "scan", "--range-temp", "0.5:2.5:3")
    assert code == 2
    assert "lambda_b" in err


def test_scan_bad_range_syntax(capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "--lambda-b", "4", "--mu", "1", "--range-temp", "0.5;2.5;3",
    )
    assert code == 2
    assert "LO:HI:STEPS" in err


def test_scan_goes_through_the_module_attributes_the_benchmark_tracer_swaps(capsys, monkeypatch):
    # perfbench times phase_diagram.scan and write_scan_csv by replacing them on the
    # module, and plants a wrong answer by replacing phase_diagram.solve_all
    argv = ("scan", "--lambda-b", "4", "--lambda-m", "0", "--mu", "1", "--range-temp", "0.5:2.5:3")
    calls = []
    for name in ("scan", "write_scan_csv"):
        def recorded(*args, _name=name, _original=getattr(phase_diagram, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(phase_diagram, name, recorded)
    code, honest, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == ["scan", "write_scan_csv"]

    solve = phase_diagram.solve_all
    monkeypatch.setattr(phase_diagram, "solve_all",
                        lambda params: dataclasses.replace(solve(params), region=RegionLabel.NONE))
    code, planted, _ = run_cli(capsys, *argv)
    assert code == 0
    region = SCAN_COLUMNS.index("region")
    honest_rows, planted_rows = (list(csv.reader(io.StringIO(text))) for text in (honest, planted))
    assert {row[region] for row in honest_rows[1:]} == {"A+"}
    assert [row[region] for row in planted_rows[1:]] == ["none"] * 3
    assert [row[:region] + row[region + 1:] for row in planted_rows] == \
        [row[:region] + row[region + 1:] for row in honest_rows]


def test_scan_runs_are_byte_identical_across_processes(tmp_path):
    # 40x30 = 1200 points: both runs fork wherever two CPUs are usable
    argv = [
        sys.executable, "-m", "gapforge",
        "scan", "--range-lambda-b", "-2:5:40", "--lambda-m", "-0.4",
        "--mu", "1", "--range-temp", "0.3:2:30",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 1201  # header + 1200 lattice points


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_scan_pinned_to_one_cpu_writes_the_bytes_of_a_forked_scan(tmp_path):
    # 40x40 = 1600 points: forked wherever two CPUs are usable, in process when pinned
    pin = "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    run = "from gapforge.cli import main; sys.exit(main(sys.argv[1:]))"
    lattice = ["scan", "--range-lambda-b", "0.5:10:40", "--range-mu", "0:5:40",
               "--lambda-m", "0.3", "--temp", "0.3", "--out"]
    outs = []
    for name, code in (("forked", "import sys; " + run), ("pinned", pin + run)):
        outs.append(tmp_path / f"{name}.csv")
        subprocess.run([sys.executable, "-c", code, *lattice, str(outs[-1])], check=True)
    forked, pinned = (out.read_bytes() for out in outs)
    assert forked.count(b"\n") == 1601
    assert forked == pinned


def test_scan_of_an_overflowing_width_warns_of_nothing_and_errs_nowhere(tmp_path):
    out = tmp_path / "scan.json"
    argv = [
        sys.executable, "-W", "error::RuntimeWarning", "-m", "gapforge",
        "scan", "--range-lambda-b=-1e308:1e308:5", "--range-mu", "0:1e308:3",
        "--lambda-m", "-0.1", "--temp", "1e308", "--format", "json", "--out", str(out),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = json.loads(out.read_text())
    assert [row["lambda_b"] for row in rows[::3]] == [-1e308, -5e307, 0.0, 5e307, 1e308]
    assert all(row["error"] is None for row in rows)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_in_the_deep_window(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--regime", "IA", "--lambda-b", "5", "--mu", "1",
        "--temp", "0.01",
    )
    assert code == 0
    assert "verify: PASS" in out


def test_verify_passes_in_the_attractive_high_t_window(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--regime", "IIB", "--lambda-b", "-5", "--lambda-m", "-0.9",
        "--mu", "1", "--temp", "2",
    )
    assert code == 0
    assert "verify: PASS" in out


def test_verify_rejects_an_inapplicable_regime(capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "--regime", "IIA", "--lambda-b", "-2", "--lambda-m", "0.5",
        "--mu", "3", "--temp", "0.04",
    )
    assert code == 2
    assert "lambda_m < 0" in err


def test_verify_flags_a_window_violation(capsys):
    # applicable couplings, but mu < |lambda_b| leaves the expansion invalid
    code, _, err = run_cli(
        capsys,
        "verify", "--regime", "IIA", "--lambda-b", "-2", "--lambda-m", "-3",
        "--mu", "1", "--temp", "0.02",
    )
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e-200])
def test_verify_verdict_does_not_depend_on_the_energy_scale(capsys, c):
    # the closed-form delta_b is off by 153 %; a floor of 1e-9 on the
    # denominator used to pass every row once the energies fell below it
    code, out, _ = run_cli(
        capsys, "verify", "--regime", "IB", "--lambda-b", repr(4 * c),
        "--lambda-m", repr(0.05 * c), "--mu", repr(c), "--temp", repr(0.1 * c),
    )
    assert code == 3
    assert "verify: FAIL" in out
    delta_b = next(line for line in out.splitlines() if line.startswith("delta_b"))
    assert float(delta_b.split()[3]) == pytest.approx(1.53, abs=5e-3)


def test_verify_passes_at_a_huge_energy_scale(capsys):
    # the regime formulas used to overflow to delta_m = inf here
    code, out, _ = run_cli(
        capsys, "verify", "--regime", "IA", "--lambda-b", "5e200", "--lambda-m", "3e199",
        "--mu", "1e200", "--temp", "1e198",
    )
    assert code == 0
    assert "verify: PASS" in out


def test_verify_blames_the_window_only_outside_both_of_its_edges(capsys):
    # T_lo < T but T > T_hi: the margin read T/T_lo = 2.52, above 1, and still
    # blamed the window
    code, _, err = run_cli(
        capsys, "verify", "--regime", "IB", "--lambda-b", "10", "--lambda-m", "0.05",
        "--mu", "1", "--temp", "0.6",
    )
    assert code == 2
    assert "outside its validity window (margin 0.75)" in err
    assert "imaginary" not in err


def test_verify_names_an_imaginary_gap_inside_the_window(capsys):
    # margin 20, but delta_m/lambda_m = 8/3 > 2 and delta_b**2 < 0: the message
    # blamed the window
    code, _, err = run_cli(
        capsys, "verify", "--regime", "IA", "--lambda-b", "5", "--lambda-m", "-3.5",
        "--mu", "1", "--temp", "0.01",
    )
    assert code == 2
    assert "imaginary pairing gap" in err
    assert "window" not in err


def test_verify_reads_the_window_at_extreme_energy_ratios(capsys):
    # lambda_m/lambda_b = 1e-600: T lies below IB's lower edge, T_lo = 0.5
    code, _, err = run_cli(capsys, "verify", "--regime", "IB", "--lambda-b", "1e300",
                           "--lambda-m", "1e-300", "--mu", "0.5", "--temp", "7e-5")
    assert code == 2
    assert "outside its validity window (margin 7e-05)" in err


def test_verify_reports_a_genuine_mismatch(capsys):
    # inside the linearised window but close to its edge: the closed form
    # is off by more than the regime tolerance and must say so
    code, out, _ = run_cli(
        capsys,
        "verify", "--regime", "IB", "--lambda-b", "1.5", "--mu", "1",
        "--temp", "0.02",
    )
    assert code == 3
    assert "verify: FAIL" in out
    assert "delta_b" in out


# ---------------------------------------------------------------------------
# kernel-solve


def test_kernel_solve_stdout_layout(capsys):
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "120", "--init", "seed:1.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,delta_m,delta_b,w_bar"
    assert len(lines) > 100
    summary = json.loads(err)
    assert summary["converged"] is True
    assert summary["branches"][0]["delta_b_at_fermi"] == pytest.approx(
        3.8516924, abs=5e-2
    )


def test_kernel_solve_out_file_splits_summary(tmp_path, capsys):
    target = tmp_path / "gaps.csv"
    code, out, _ = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "120", "--init", "seed:1.0",
        "--out", str(target),
    )
    assert code == 0
    summary = json.loads(out)  # summary moves to stdout when CSV goes to a file
    assert summary["converged"] is True
    lines = target.read_text().splitlines()
    assert lines[0] == "p,delta_m,delta_b,w_bar"
    assert summary["grid_points"] == len(lines) - 1


def test_kernel_solve_branch_scan_adds_a_branch_column(capsys):
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "240", "--seeds", "0.3,2.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "branch,p,delta_m,delta_b,w_bar"
    summary = json.loads(err)
    assert len(summary["branches"]) == 3
    peaks = [b["delta_b_peak"] for b in summary["branches"]]
    assert peaks == sorted(peaks)


def test_kernel_solve_keeps_the_branch_column_for_one_branch(capsys):
    # --seeds decides the column, not the number of branches it finds
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "120", "--seeds", "2.0",
    )
    assert code == 0
    assert len(json.loads(err)["branches"]) == 1
    lines = out.splitlines()
    assert lines[0] == "branch,p,delta_m,delta_b,w_bar"
    assert {line.split(",")[0] for line in lines[1:]} == {"0"}


def test_kernel_solve_branch_residuals_stay_within_tol(capsys):
    code, _, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--lambda-m", "0.3", "--mu", "1",
        "--temp", "0.5", "--epsilon", "0.01", "--seeds", "0.3,2.0", "--tol", "1e-10",
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["converged"] is True
    assert len(summary["branches"]) == 3
    assert all(b["residual"] <= 1e-10 for b in summary["branches"])


def test_kernel_solve_reports_non_convergence(capsys):
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "120", "--init", "seed:1.0",
        "--max-iters", "5",
    )
    assert code == 4
    assert len(out.splitlines()) > 100  # partial gaps still written
    summary = json.loads(err)
    assert summary["converged"] is False
    assert summary["branches"][0]["iterations"] == 5


def test_kernel_solve_needs_a_smaller_damping_at_some_points(capsys):
    # here Picard steps of 0.5 (the default) or 1 still oscillate after 2000
    # iterations; a step of 0.2 reaches the scalar mixed_lower branch
    code, _, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "-4", "--lambda-m", "-0.9", "--mu", "1",
        "--temp", "0.5", "--epsilon", "0.05", "--grid-points", "120",
        "--init", "seed:1.0", "--damping", "0.2",
    )
    assert code == 0
    branch = json.loads(err)["branches"][0]
    (scalar,) = solve_all(ModelParams(-4.0, -0.9, 1.0, 0.5)).mixed
    assert branch["delta_b_peak"] == pytest.approx(scalar.delta_b, abs=1e-2)


def test_kernel_solve_tabulated_kernel_roundtrip(tmp_path, capsys):
    import numpy as np

    from gapforge.kernel_solver import shell_aligned_grid, shell_kernel

    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=40, p_max=3.0, n_outer=80)
    shape = shell_kernel(eps, 1.0)
    values = shape(grid.points)
    matrix = 4.0 * 2.0 * eps * np.outer(values, values)
    path = tmp_path / "vb.csv"
    with open(path, "w") as fh:
        fh.write(",".join(repr(float(p)) for p in grid.points) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--kernel-b-csv", str(path), "--init", "seed:1.0",
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["converged"] is True
    assert summary["grid_points"] == grid.points.size
    assert summary["branches"][0]["delta_b_peak"] > 1.0


def test_kernel_solve_rejects_malformed_kernel_csv(tmp_path, capsys):
    path = tmp_path / "vb.csv"
    for text, line in (("0.0,1.0\n1,2\n3\n", "line 3"),
                       ("0.0,nan\n1,2\n3,4\n", "line 1"),
                       ("0.0,1.0\n1,2\n3,inf\n", "line 3")):
        path.write_text(text)
        code, _, err = run_cli(
            capsys,
            "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
            "--kernel-b-csv", str(path),
        )
        assert code == 2, text
        assert line in err, text


@pytest.mark.parametrize(
    "extra",
    [
        (),  # neither epsilon nor kernel CSV
        ("--epsilon", "0.05", "--init", "seed:oops"),
        ("--epsilon", "0.05", "--init", "warm"),
        ("--epsilon", "0.05", "--seeds", "a,b"),
        ("--epsilon", "0.05", "--damping", "0"),
        ("--epsilon", "-0.1",),
        ("--epsilon", "0.05", "--tol", "nan"),
        ("--epsilon", "0.05", "--tol=-1"),
        ("--epsilon", "0.05", "--p-max", "nan"),
        ("--epsilon", "0.05", "--p-max", "inf"),
    ],
)
def test_kernel_solve_rejects_bad_setup(capsys, extra):
    code, _, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        *extra,
    )
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("extra, flag", [
    (("--init", "seed:nan"), "--init"),
    (("--init", "seed:inf"), "--init"),
    (("--seeds", "0.3,inf"), "--seeds"),
    (("--seeds", "-inf"), "--seeds"),
    (("--grid-points", "-5"), "--grid-points"),
    (("--grid-points", "0"), "--grid-points"),
    (("--grid-points", "5"), "--grid-points"),
], ids=["seed-nan", "seed-inf", "seeds-inf", "seeds-minus-inf", "grid-points-minus-5",
        "grid-points-0", "grid-points-5"])
def test_kernel_solve_names_a_bad_seed_or_grid_budget(capsys, extra, flag):
    # a non-finite seed ran and exited 1; a budget below 6 was clamped and exited 0
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", *extra,
    )
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize("budget, points", [(6, 7), (30, 31), (31, 32), (33, 35), (600, 601)])
def test_the_grid_budget_counts_intervals(capsys, budget, points):
    # N intervals give N + 1 points, one more when the shell's N // 3 is odd
    # and is rounded up to even so that the Fermi radius is a grid point
    code, out, err = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", str(budget), "--init", "seed:1.0",
    )
    assert code == 0
    assert json.loads(err)["grid_points"] == points == len(out.splitlines()) - 1


# ---------------------------------------------------------------------------
# outputs match the library, and --out is written only on success


def test_solve_cells_are_the_reprs_of_solve_all(capsys):
    argv = ("solve", "--lambda-b", "4", "--lambda-m", "-1", "--mu", "1", "--temp", "0.5")
    report = solve_all(ModelParams(4.0, -1.0, 1.0, 0.5))
    fields = ("delta_m", "delta_b", "w_bar", "residual")
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[:5] for row in rows] == [
        [sol.phase.value, *(repr(getattr(sol, f)) for f in fields)]
        for sol in report.solutions]
    _, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)["solutions"]
    assert [[entry[f] for f in fields] for entry in payload] == [
        [getattr(sol, f) for f in fields] for sol in report.solutions]
    assert [row[5] for row in rows] == [str(entry["checks_passed"]) for entry in payload]


@pytest.mark.parametrize("lambda_b", ["1e200", "1e300"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_checks_hold_where_the_squares_overflow(capsys, lambda_b, fmt):
    code, out, err = run_cli(capsys, "solve", "--lambda-b", lambda_b, "--mu", "1",
                             "--temp", "1", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert all(s["checks_passed"] for s in json.loads(out)["solutions"])
    else:
        assert all(line.endswith(",True") for line in out.splitlines()[1:])


def test_scan_equilibrium_matches_equilibrium_curve(capsys):
    curve = equilibrium_curve(1.2, 10.0, 7)
    _, out, _ = run_cli(capsys, "scan", "--equilibrium", "--lambda-b-bar", "1.2:10:7")
    assert out.splitlines()[1:] == [",".join(map(repr, row)) for row in curve]
    _, out, _ = run_cli(capsys, "scan", "--equilibrium", "--lambda-b-bar", "1.2:10:7",
                        "--format", "json")
    assert [tuple(obj.values()) for obj in json.loads(out)] == curve


def test_kernel_solve_csv_matches_self_consistent_solve(capsys):
    params = ModelParams(4.0, 0.0, 1.0, 0.5)
    grid = kernel_solver.shell_aligned_grid(1.0, 0.05, n_shell=40, p_max=3.0, n_outer=80)
    gaps = kernel_solver.self_consistent_solve(
        grid, kernel_solver.shell_kernels(params, 0.05), kernel_solver.PARABOLIC, params,
        kernel_solver.IterationControls(init=kernel_solver.SeededPairing(1.0)))
    argv = ("kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
            "--epsilon", "0.05", "--grid-points", "120")
    _, out, _ = run_cli(capsys, *argv, "--init", "seed:1.0")
    columns = (grid.points, gaps.delta_m, gaps.delta_b, gaps.w_bar)
    assert out.splitlines()[1:] == [
        ",".join(repr(float(col[i])) for col in columns) for i in range(grid.points.size)]
    # --init zero, and no --init, start from the constant seed 0
    seeded = run_cli(capsys, *argv, "--init", "seed:0")
    assert seeded[0] == 0
    assert run_cli(capsys, *argv, "--init", "zero") == seeded
    assert run_cli(capsys, *argv) == seeded


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--range-lambda-b", "1:2:3", "--temp", "0.3"),  # mu missing
        ("scan", "--lambda-b", "4", "--range-mu", "0:1:zz", "--temp", "0.3"),
        ("scan", "--equilibrium", "--lambda-b-bar", "0.5:2:3"),  # below the curve
        ("solve", "--lambda-b", "4", "--mu", "-1", "--temp", "1"),
        ("kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5"),
        ("scan", "--lambda-b", "4", "--range-mu", "0:inf:3", "--temp", "0.3"),
    ],
)
def test_out_file_is_left_intact_when_the_command_fails(tmp_path, capsys, argv):
    target = tmp_path / "keep.csv"
    target.write_text("precious\n")
    code, _, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert err.startswith("error: ")
    assert target.read_text() == "precious\n"


def test_out_in_a_missing_directory_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01",
        "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_missing_kernel_csv_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    code, _, err = run_cli(
        capsys, "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--kernel-b-csv", str(path))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("command", ["solve", "scan", "verify", "kernel-solve"])
def test_every_flag_is_a_config_key(tmp_path, command):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    flags = [flag for action in commands.choices[command]._actions
             for flag in action.option_strings
             if flag.startswith("--") and flag not in ("--help", "--config")]
    assert "--lambda-b" in flags
    # the Picard stopping tolerance; the scalar solver takes none
    assert ("--tol" in flags) == (command == "kernel-solve")
    keys = [flag[2:].replace("-", "_") for flag in flags]
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(dict.fromkeys(keys)))
    _apply_config(build_parser(), [command, "--config", str(cfg)])  # raises on a bad key


def test_kernel_solve_reads_grid_flags_from_the_config(tmp_path, capsys):
    model = ("--lambda-b", "4", "--mu", "1", "--temp", "0.5", "--epsilon", "0.05",
             "--init", "seed:1.0")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"p_max": 2.5, "grid_points": 90}))
    from_config = run_cli(capsys, "kernel-solve", "--config", str(cfg), *model)
    from_flags = run_cli(capsys, "kernel-solve", "--p-max", "2.5", "--grid-points", "90",
                         *model)
    defaults = run_cli(capsys, "kernel-solve", *model)
    assert from_config == from_flags
    assert from_flags[1] != defaults[1]


# ---------------------------------------------------------------------------
# a config file is parsed like the flags it stands for

_POINT = {"lambda_b": 5, "mu": 1, "temp": 0.01}
_SHELL = {"lambda_b": 4, "mu": 1, "temp": 0.5, "epsilon": 0.05}
_POINT_FLAGS = ("--lambda-b", "5", "--mu", "1", "--temp", "0.01")


@pytest.mark.parametrize(
    "argv, config, code, named, same_as",
    [
        (("verify",), {"regime": "IA", **_POINT}, 0, None,
         ("verify", "--regime", "IA", *_POINT_FLAGS)),
        (("solve",), {**_POINT, "format": "xml"}, 2, "--format", None),
        # "no" is not false: it used to switch the equilibrium curve on
        (("scan",), {**_POINT, "equilibrium": "no", "lambda_b_bar": "1.2:5:3"}, 2,
         "--equilibrium", None),
        (("kernel-solve",), {**_SHELL, "grid_points": 1.5}, 2, "--grid-points", None),
        (("kernel-solve",), {**_SHELL, "max_iters": 10.5}, 2, "--max-iters", None),
        (("solve",), {**_POINT, "lambda_b": [1, 2]}, 2, "--lambda-b", None),
        (("kernel-solve",), {**_SHELL, "grid_points": 30, "tol": None}, 0, None,
         ("kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
          "--epsilon", "0.05", "--grid-points", "30")),
        (("scan", "--range-lambda-b", "0:1:zz", "--mu", "1", "--temp", "0.3"), None,
         2, "--range-lambda-b", None),
        (("scan", "--range-temp", "0:1:x", "--lambda-b", "1", "--mu", "1"), None,
         2, "--range-temp", None),
    ],
    ids=["regime", "format-xml", "equilibrium-no", "grid-points-float",
         "max-iters-float", "lambda-b-list", "tol-null", "range-lambda-b", "range-temp"],
)
def test_config_values_and_ranges_are_checked_like_flags(tmp_path, capsys, argv, config,
                                                         code, named, same_as):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = (*argv, "--config", str(cfg))
    got = run_cli(capsys, *argv)
    assert got[0] == code
    assert "Traceback" not in got[2]
    if named is not None:  # the error names the real flag
        assert named in got[2].replace(":", " ").split()
    if same_as is not None:
        assert got == run_cli(capsys, *same_as)


@pytest.mark.parametrize(
    "command, config",
    [
        ("solve", {"lambda_b": 5, "lambda_m": -0.5, "mu": 1, "temp": 0.01,
                   "format": "csv"}),
        ("scan", {"range_lambda_b": "-2:5:4", "lambda_m": -0.4, "mu": 1,
                  "range_temp": "0.3:2:3", "format": "json"}),
        ("scan", {"equilibrium": True, "lambda_b_bar": "1.2:5:4"}),
        ("verify", {"regime": "IB", "lambda_b": 10, "mu": 1, "temp": 0.4}),
        ("kernel-solve", {**_SHELL, "grid_points": 120, "seeds": "-0.5,2.0"}),
    ],
    ids=["solve", "scan", "scan-equilibrium", "verify", "kernel-solve"],
)
def test_a_config_file_gives_the_bytes_of_its_flags(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = []
    for key, value in config.items():
        flags.append("--" + key.replace("_", "-"))
        if value is not True:
            flags.append(str(value))
    from_config = run_cli(capsys, command, "--config", str(cfg))
    assert from_config[0] in (0, 3)
    assert from_config == run_cli(capsys, command, *flags)


# ---------------------------------------------------------------------------
# kernel-solve setups


def _write_kernel_csv(path, momenta, matrix):
    with open(path, "w") as fh:
        fh.write(",".join(repr(float(p)) for p in momenta) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def test_kernel_solve_with_only_a_mean_field_kernel_has_no_pairing(tmp_path, capsys):
    import numpy as np

    momenta = np.linspace(0.0, 2.0, 21)
    path = tmp_path / "vm.csv"
    _write_kernel_csv(path, momenta, 0.1 * np.exp(-np.subtract.outer(momenta, momenta) ** 2))
    code, out, err = run_cli(
        capsys, "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--kernel-m-csv", str(path),
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["converged"] is True
    assert summary["grid_points"] == momenta.size
    assert summary["branches"][0]["delta_b_peak"] == 0.0
    delta_m = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert any(delta_m)


def test_kernel_solve_refuses_kernels_on_different_momenta(tmp_path, capsys):
    import numpy as np

    pairing, mean_field = tmp_path / "vb.csv", tmp_path / "vm.csv"
    _write_kernel_csv(pairing, np.linspace(0.0, 2.0, 5), np.eye(5))
    _write_kernel_csv(mean_field, np.linspace(0.0, 3.0, 5), np.eye(5))
    code, _, err = run_cli(
        capsys, "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--kernel-b-csv", str(pairing), "--kernel-m-csv", str(mean_field),
    )
    assert code == 2
    assert "momenta differ" in err


# ---------------------------------------------------------------------------
# kernel-solve: the mean-field CSV read in a forked child


_TABULATED = ("kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
              "--init", "seed:2.0")


def _shell_kernel_pair(directory, n):
    """Symmetric Gaussian-shell pairing and mean-field CSVs on ``n`` momenta."""
    import numpy as np

    momenta = np.linspace(0.0, 3.0, n + 1)[1:]
    g = np.exp(-0.5 * ((momenta - 1.0) / 0.1) ** 2)
    shape = np.outer(g, g) / (0.1 * math.sqrt(math.pi))
    pair = directory / "kb.csv", directory / "km.csv"
    for path, coupling in zip(pair, (4.0, 0.3)):
        _write_kernel_csv(path, momenta, coupling * shape)
    return pair


@pytest.fixture(scope="module")
def large_pair(tmp_path_factory):
    pair = _shell_kernel_pair(tmp_path_factory.mktemp("large"), 240)
    assert all(path.stat().st_size >= cli._MIN_FORKED_CSV for path in pair)
    return pair


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_kernel_solve_pinned_to_one_cpu_writes_the_bytes_of_a_forked_read(
        tmp_path, large_pair):
    pin = "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    run = "from gapforge.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [*_TABULATED, "--kernel-b-csv", str(large_pair[0]),
            "--kernel-m-csv", str(large_pair[1]), "--out"]
    outs, stdouts = [], []
    for name, code in (("forked", "import sys; " + run), ("pinned", pin + run)):
        outs.append(tmp_path / f"{name}.csv")
        proc = subprocess.run([sys.executable, "-c", code, *argv, str(outs[-1])],
                              capture_output=True, check=True)
        stdouts.append(proc.stdout)
    forked, pinned = (out.read_bytes() for out in outs)
    assert forked.count(b"\n") == 241
    assert json.loads(stdouts[0])["converged"] is True
    assert forked == pinned and stdouts[0] == stdouts[1]


@pytest.mark.parametrize("case, forks", [
    ("both", 1), ("mean-field only", 0), ("one cpu", 0), ("below the floor", 0)])
def test_kernel_solve_forks_for_two_large_files_on_two_cpus(
        tmp_path, capsys, monkeypatch, large_pair, case, forks):
    pairing, mean_field = (large_pair if case != "below the floor"
                           else _shell_kernel_pair(tmp_path, 40))
    files = ("--kernel-m-csv", str(mean_field))
    if case != "mean-field only":
        files = ("--kernel-b-csv", str(pairing), *files)
    usable_cpus(monkeypatch, 1 if case == "one cpu" else 2)
    counted = counted_forks(monkeypatch)
    code, out, err = run_cli(capsys, *_TABULATED, *files)
    assert code == 0 and json.loads(err)["converged"] is True
    assert len(counted) == forks
    assert_no_child_left()
    monkeypatch.setattr(os, "fork", FORK)
    usable_cpus(monkeypatch, 1)
    assert run_cli(capsys, *_TABULATED, *files) == (code, out, err)


def _serial_and_forked(capsys, monkeypatch, *argv):
    """``run_cli(*argv)`` on one usable CPU, then on two with a fork for any mean-field file."""
    usable_cpus(monkeypatch, 1)
    serial = run_cli(capsys, *argv)
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_MIN_FORKED_CSV", 0)
    forks = counted_forks(monkeypatch)
    forked = run_cli(capsys, *argv)
    assert_no_child_left()
    return serial, forked, len(forks)


@pytest.mark.parametrize("mean_field, message", [
    ("1.0,2.0,3.0\n0,0,0\n0,x,0\n0,0,0\n", "km.csv, line 3: "),
    (None, "km.csv: cannot read kernel file: No such file or directory"),
    ("1.0,2.0,3.0\n0,0,0\n0,0,0\n", "km.csv: kernel must be square — 3 momenta but 2 rows"),
], ids=["malformed", "missing", "not-square"])
def test_a_bad_mean_field_csv_read_by_a_child_fails_as_in_process(
        tmp_path, capsys, monkeypatch, mean_field, message):
    pairing, path = _shell_kernel_pair(tmp_path, 3)
    if mean_field is None:
        path.unlink()
    else:
        path.write_text(mean_field)
    serial, forked, forks = _serial_and_forked(
        capsys, monkeypatch, *_TABULATED, "--kernel-b-csv", str(pairing),
        "--kernel-m-csv", str(path))
    assert serial[0] == 2 and message in serial[2]
    assert forked == serial and forks == 1


def test_a_bad_pairing_csv_wins_over_a_bad_mean_field_one(tmp_path, capsys, monkeypatch):
    pairing, mean_field = _shell_kernel_pair(tmp_path, 3)
    pairing.write_text("1.0,2.0,3.0\n0,0,0\n0,0,x\n0,0,0\n")
    mean_field.unlink()
    serial, forked, forks = _serial_and_forked(
        capsys, monkeypatch, *_TABULATED, "--kernel-b-csv", str(pairing),
        "--kernel-m-csv", str(mean_field))
    assert serial[0] == 2 and "kb.csv, line 3: " in serial[2]
    assert forked == serial and forks == 1


def test_a_child_that_sends_nothing_leaves_its_csv_to_the_parent(
        tmp_path, capsys, monkeypatch):
    import pickle

    def refuse(*args, **kwargs):
        raise pickle.PicklingError("planted")

    pairing, mean_field = _shell_kernel_pair(tmp_path, 40)
    monkeypatch.setattr(pickle, "dump", refuse)
    serial, forked, forks = _serial_and_forked(
        capsys, monkeypatch, *_TABULATED, "--kernel-b-csv", str(pairing),
        "--kernel-m-csv", str(mean_field))
    assert serial[0] == 0 and json.loads(serial[2])["converged"] is True
    assert forked == serial and forks == 1


def test_kernel_solve_scalar_init_is_from_scalar(capsys):
    params = ModelParams(4.0, 0.0, 1.0, 0.5)
    grid = kernel_solver.shell_aligned_grid(1.0, 0.05, n_shell=40, p_max=3.0, n_outer=80)
    gaps = kernel_solver.self_consistent_solve(
        grid, kernel_solver.shell_kernels(params, 0.05), kernel_solver.PARABOLIC, params,
        kernel_solver.IterationControls(init=kernel_solver.FromScalar()))
    code, out, _ = run_cli(
        capsys,
        "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--grid-points", "120", "--init", "scalar",
    )
    assert code == 0
    columns = (grid.points, gaps.delta_m, gaps.delta_b, gaps.w_bar)
    assert out.splitlines()[1:] == [
        ",".join(repr(float(col[i])) for col in columns) for i in range(grid.points.size)]


@pytest.mark.parametrize("init", ["scalar", "seed:2.0"])
@pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
def test_kernel_solve_refuses_an_init_with_seeds(tmp_path, capsys, init, from_config):
    # each seed starts its own solve: the --init was ignored in silence
    flags = ("--init", init, "--seeds", "0.3")
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init": init, "seeds": "0.3"}))
        flags = ("--config", str(cfg))
    code, out, err = run_cli(
        capsys, "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", *flags,
    )
    assert code == 2 and out == ""
    assert "--init" in err and "--seeds" in err


def test_kernel_solve_refuses_an_empty_seed_list(capsys):
    code, _, err = run_cli(
        capsys, "kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
        "--epsilon", "0.05", "--seeds", ",",
    )
    assert code == 2
    assert "--seeds is empty" in err


def test_verify_reports_a_singular_closed_form_as_a_solver_error(capsys):
    # lambda_b + lambda_m = 0: the closed-form delta_m has no value
    code, _, err = run_cli(
        capsys, "verify", "--regime", "IA", "--lambda-b", "2", "--lambda-m", "-2",
        "--mu", "1", "--temp", "0.01",
    )
    assert code == 1
    assert "lambda_b + lambda_m = 0" in err


# ---------------------------------------------------------------------------
# start-up: a command loads only the modules it runs


_LATE_MODULES = ("gapforge.kernel_solver", "gapforge.thermal", "gapforge.asymptotics")


def _fresh_python(*args):
    """``python *args`` in a new interpreter that imports this tree's gapforge."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


_SHELL_ARGV = ("kernel-solve", "--lambda-b", "4", "--mu", "1", "--temp", "0.5",
               "--epsilon", "0.05", "--grid-points", "30", "--init", "seed:1.0")
_VERIFY_ARGV = ("verify", "--regime", "IA", "--lambda-b", "5", "--mu", "1", "--temp", "0.01")


@pytest.mark.parametrize("argv, late", [
    ((), ()),
    (("solve", "--lambda-b", "5", "--mu", "1", "--temp", "0.01"), ()),
    (("scan", "--range-lambda-b", "1:5:3", "--mu", "1", "--temp", "0.3"), ()),
    (_VERIFY_ARGV, ("gapforge.asymptotics",)),
    (_SHELL_ARGV, ("gapforge.kernel_solver", "gapforge.thermal")),
], ids=["import", "solve", "scan", "verify", "kernel-solve"])
def test_each_command_loads_only_the_modules_it_runs(argv, late):
    # numpy stays a module-level import of the CLI while perfbench requires it
    probe = ("import contextlib, io, sys; from gapforge.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             f"print(code, 'numpy' in sys.modules, *(m for m in {_LATE_MODULES!r} "
             "if m in sys.modules))")
    proc = _fresh_python("-c", probe, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", *late]


@pytest.mark.parametrize("argv", [_SHELL_ARGV, _VERIFY_ARGV], ids=["kernel-solve", "verify"])
def test_a_fresh_process_writes_what_an_in_process_run_writes(capsys, argv):
    # in process the test modules have imported every module already; only a
    # new interpreter shows that a command imports what it loads late
    run = "import sys; from gapforge.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fresh_python("-c", run, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
