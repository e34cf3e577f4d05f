"""Self-tests of the benchmark, in quick mode.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "0.5",
                           "--quick", *args], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _units(specs) -> dict[str, str]:
    return {s["name"]: s["unit"] for s in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, report = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    header = json.loads(report[0][len("# run "):])
    assert header["input_digest"] and header["nproc"] >= 1


def test_traced_run_reports_every_per_layer_metric():
    result, _ = _bench("--workload", "phase_map", "--seed", "3", "--trace", "1")
    assert result["correct"] is True
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["scalar_gap.solve_all.calls"]["value"] > 0


def _worker(tmp_path, workload: str, *extra: str) -> dict:
    out = tmp_path / f"{workload}{len(extra)}.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", "3", "--seconds", "0", "--quick", "--tmp", str(tmp_path),
                    "--result", str(out), *extra],
                   env=run.child_env(), check=True, timeout=170)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", ["point_solve", "phase_map"])
def test_planted_wrong_solution_is_counted_as_failed(tmp_path, workload):
    clean = _worker(tmp_path, workload)
    planted = _worker(tmp_path, workload, "--plant-wrong")
    assert planted["attempted"] == clean["attempted"]
    assert planted["failed"] > clean["failed"]
    assert planted["report"]["failed_frac"][0] > clean["report"]["failed_frac"][0]


def test_bare_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "phase_map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    assert inputs.point_mix(5, 300) == inputs.point_mix(5, 300)
    assert inputs.point_mix(5, 300) != inputs.point_mix(6, 300)
    assert inputs.lattice(5, 100) == inputs.lattice(5, 100)
    assert inputs.momentum(5) != inputs.momentum(6)


def test_oracle_accepts_a_hand_solved_point_and_rejects_a_wrong_branch():
    lb, mu, temp = 4.0, 1.0, 0.5
    gaps = oracle.scalar_pairing_gaps(lb, 0.0, mu, temp)
    assert len(gaps) == 2
    mixed = [(0.0, g, math.hypot(mu, g)) for g in gaps]
    assert oracle.check_point(lb, 0.0, mu, temp, 0.0, mu, mixed) == []
    wrong = [(0.0, gaps[1], 1.01 * math.hypot(mu, gaps[1]))]
    assert oracle.check_point(lb, 0.0, mu, temp, 0.0, mu, wrong)
    # the huge-coupling branch w_bar ~ 7.7e116 at lambda_b = 1e150, mu = T = 1
    huge = [(0.0, 7.7e116, 7.7e116)]
    assert "mixed: pairing equation residual" in oracle.check_point(1e150, 0.0, 1.0, 1.0,
                                                                    0.0, 1.0, huge)


def test_oracle_scalar_roots_solve_the_pairing_equation():
    for lb, mu, temp in ((4.0, 1.0, 0.5), (10.0, 2.0, 1.0), (3.0, 0.2, 0.3)):
        for w in oracle.scalar_roots(lb, mu, temp):
            assert abs(w - lb * math.tanh((w - mu) / (2.0 * temp))) <= 1e-12 * lb


def test_regular_shares_are_the_measured_lattice_split():
    split = inputs.lattice_branch_split(inputs.lattice(1, 100))
    regular = dict(inputs.LATTICE_SPLIT)
    assert abs(regular["two_branch"] - split[2]) < 0.005
    assert abs(regular["attractive"] - split[1]) < 0.005
    assert abs(regular["no_pairing"] - split[0]) < 0.005
    assert math.isclose(sum(share for _, share in inputs.POINT_MIX), 1.0)


def test_paused_tracer_records_no_spans():
    from gapforge import core_types, scalar_gap
    from tracing import Tracer

    params = core_types.ModelParams(4.0, 0.0, 1.0, 0.5)
    tracer = Tracer()
    with tracer:
        with tracer.paused():
            scalar_gap.pairing_energy_roots(params)
        assert tracer.names == []
        scalar_gap.pairing_energy_roots(params)
    assert "scalar_gap.pairing_energy_roots" in tracer.names
    assert scalar_gap.pairing_energy_roots.__name__ == "pairing_energy_roots"
    assert not hasattr(scalar_gap.pairing_energy_roots, "__wrapped__")


def test_tangency_band_root_counts_go_to_the_audit():
    import worker
    from gapforge import core_types

    # a lattice point 9.6e-6 (reduced units) above the tangency curve
    params = core_types.ModelParams(6.00640657640953, 0.3, 4.60711565432113, 0.3)
    assert oracle.in_tangent_band(params.lambda_b, params.mu, params.temperature)
    assert worker._check_counts(params) == []
    counters = worker.Counters()
    worker._audit_counts([params, params], counters)
    assert counters.audited == 1
    assert counters.failed == 0


def test_point_solve_audits_the_extreme_scale_slice(tmp_path):
    assert all(p.category != inputs.AUDIT_CATEGORY for p in inputs.point_mix(3, 500))
    result = _worker(tmp_path, "point_solve")
    assert result["report"]["audited"][0] >= 20  # the quick run's extreme-scale points
    assert 0 <= result["report"]["known_defects"][0] <= result["report"]["audited"][0]
