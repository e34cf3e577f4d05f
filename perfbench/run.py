"""gapforge benchmark: one run of one workload, printed as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload phase_map --seed 1 --seconds 20 --trace 0

Workloads: ``phase_map`` (CLI scan of a 100x100 coupling-mu lattice),
``point_solve`` (closed loop of single-point ``solve_all`` requests over a
seeded mix) and ``momentum_solve`` (CLI kernel-solve runs and thermal
diagnostics).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer table from a traced replay.  ``--quick`` shrinks every input
for a smoke run.

The run measures set-up time (fresh interpreter until ``import gapforge.cli``
is done) from this process, before and after one child (``worker.py``) that
it starts with a pinned environment for the measurement itself.  Earlier lines of stdout are
a human-readable report (input digest, environment, every metric with its
unit and sample count); the last line is the result object.  The exit code
is non-zero, with no result line, when the checkout has no ``src/gapforge``
or the child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("phase_map", "point_solve", "momentum_solve")
# set-up launches before and after the child's measurement, so that their
# median spans the drift of the machine's speed over the run
SETUP_LAUNCHES = (4, 5)
SETUP_PROBE = "import gapforge.cli"
REFERENCE_PROBE = "import numpy"
# Wall time of a fresh interpreter that imports only numpy, at the typical
# speed of the 2-CPU test machine (Python 3.11, numpy 2.4): setup_s is given
# in seconds at that fixed speed (see setup_seconds).
REFERENCE_LAUNCH_S = 0.2
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GAPFORGE_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _launch(args: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[1:3]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def measure_setup(env: dict[str, str], launches: int, warm_up: bool,
                  walls: list[float], ratios: list[float]) -> None:
    """Time fresh interpreters that import gapforge.cli, each next to one that imports numpy.

    The two launches of a pair alternate in order.  The wall time of each
    gapforge launch goes to ``walls`` and its ratio to the paired numpy
    launch to ``ratios``.  With ``warm_up`` an untimed launch of each warms
    the file caches.
    """
    if warm_up:
        for code in (SETUP_PROBE, REFERENCE_PROBE):
            _launch([sys.executable, "-c", code], env, 60.0)
    for k in range(launches):
        pair = {}
        for code in ((SETUP_PROBE, REFERENCE_PROBE) if k % 2 == 0
                     else (REFERENCE_PROBE, SETUP_PROBE)):
            t0 = time.perf_counter()
            _launch([sys.executable, "-c", code], env, 60.0)
            pair[code] = time.perf_counter() - t0
        walls.append(pair[SETUP_PROBE])
        ratios.append(pair[SETUP_PROBE] / pair[REFERENCE_PROBE])


def setup_seconds(ratios: list[float]) -> float:
    """Median set-up time in seconds at a fixed machine speed.

    The machine's speed drifts by up to 2x within a minute.  A launch that
    imports only numpy does the same kind of work as the set-up (start an
    interpreter, load compiled modules and extension libraries) and does
    not change between commits, so each set-up launch is divided by one made
    next to it.  The median ratio times :data:`REFERENCE_LAUNCH_S` is the
    set-up time at the speed where that numpy launch takes
    REFERENCE_LAUNCH_S.  Work the program adds to its import shows in full.
    """
    return statistics.median(ratios) * REFERENCE_LAUNCH_S


def measure_imports(env: dict[str, str]) -> dict[str, tuple[float, str]]:
    """numpy and gapforge cumulative import times from ``-X importtime``, medians."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = _launch([sys.executable, "-X", "importtime", "-c", "import gapforge.cli"],
                       env, 60.0)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue
        if not {"numpy", "gapforge", "gapforge.cli"} <= set(cumulative):
            raise BenchError("import-time output lacks numpy or gapforge")
        numpy_ms.append(cumulative["numpy"])
        own_ms.append(cumulative["gapforge"] + cumulative["gapforge.cli"] - cumulative["numpy"])
    return {"import.numpy_ms": (statistics.median(numpy_ms), "ms"),
            "import.gapforge_ms": (statistics.median(own_ms), "ms")}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gapforge").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_worker(args, env: dict[str, str], tmp: str) -> dict:
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, "--result", result_path]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl.gz")]
    _launch(cmd, env, CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs, for smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gapforge" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/gapforge package to benchmark", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} has no BENCHMARK.json", file=sys.stderr)
        return 2

    env = child_env()
    load_before = os.getloadavg()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        setup_walls: list[float] = []
        setup_ratios: list[float] = []
        measure_setup(env, SETUP_LAUNCHES[0], True, setup_walls, setup_ratios)
        imports = measure_imports(env) if args.trace else {}
        result = run_worker(args, env, tmp)
        measure_setup(env, SETUP_LAUNCHES[1], False, setup_walls, setup_ratios)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    load_after = os.getloadavg()

    expected_root = str(ROOT / "src" / "gapforge")
    harness = []
    if os.path.realpath(result["gapforge_file"]) != os.path.realpath(expected_root):
        harness.append(f"benchmarked {result['gapforge_file']}, not {expected_root}")

    if args.trace:
        metrics = {**imports, **result["per_layer"]}
        missing = [k for k, (v, _) in metrics.items() if v is None]
        harness += [f"per-layer metric {k} has no samples" for k in missing]
        metrics = {k: _metric(float(v if v is not None else 0.0), u)
                   for k, (v, u) in metrics.items()}
    else:
        metrics = {k: _metric(v, u) for k, (v, u) in result["e2e"].items()}
        metrics["setup_s"] = _metric(setup_seconds(setup_ratios), "s")
        metrics["peak_rss_mb"] = _metric(result["peak_rss_mb"], "MB")

    spec_key = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[spec_key]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            harness.append(f"metric {spec['name']} [{spec['unit']}] not measured")
    metrics = {spec["name"]: metrics[spec["name"]] for spec in declared if spec["name"] in metrics}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "input_digest": result["input_digest"], "source_digest": source_digest(),
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": result["python"], "numpy": result["numpy"],
        "loadavg_before": load_before, "loadavg_after": load_after,
        "setup_walls_s": setup_walls, "setup_ratios": setup_ratios,
        "attempted": result["attempted"], "failed": result["failed"],
        "failure_reasons": result["failure_reasons"],
        "known_defect_reasons": result["known_defect_reasons"], "harness_errors": harness,
    }
    print("# run " + json.dumps(report))
    for name, (value, unit) in result["report"].items():
        print(f"# {name} = {json.dumps(value)} {unit}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not harness, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
