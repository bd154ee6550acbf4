"""graphbench's benchmark: the generate -> run -> report pipeline at full size.

    python3 perfbench/run.py --workload run-pseudo5shot --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from the repository root.  Each iteration of a workload runs in its own
interpreter (``workload.py``); iterations repeat until ``--seconds`` have
passed and at least MIN_ITERATIONS ran, and the reported value of each metric
is the median over them.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed, with
``--trace 1`` its per-layer metrics, which come from traced iterations that
alternate with untraced ones.  Every iteration checks its outputs; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the
workloads and what each metric should predict.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("generate", "run-0shot", "run-pseudo5shot", "http-record-replay")
#: Interpreter starts measured on their own before each iteration, so that
#: setup_s samples the whole run rather than one moment of it.
SETUP_PROBES = 2
#: Fewest iterations in a run, so that the median of a long workload
#: (run-pseudo5shot, 13-18 s an iteration) discards one slow or fast outlier.
#: With ``--trace 1`` one of them is traced.
MIN_ITERATIONS = 3
#: No iteration starts once a run could not finish within this.
RUN_BUDGET_S = 150.0
ITERATION_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """An iteration crashed or the checkout cannot be benchmarked."""


def spawn(workload: str, seed: int, work: Path, dataset: Path | None, trace: int = 0) -> dict:
    """Run one iteration in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--trace", str(trace)]
    if dataset is not None:
        cmd += ["--dataset", str(dataset)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} iteration exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run ``workload`` for ``seconds`` and reduce its iterations to metrics."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        setups: list[float] = []
        dataset, checked = None, []
        if workload != "generate":
            dataset = work / "data" / "dataset.jsonl"
            checked.append(spawn("prepare", seed, work / "data", dataset))
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        while True:
            setups += [spawn("setup", seed, work, None)["setup_s"] for _ in range(SETUP_PROBES)]
            do_trace = bool(trace) and len(plain) > len(traced)
            iteration = work / f"iter-{len(plain) + len(traced)}"
            result = spawn(workload, seed, iteration, dataset, trace=int(do_trace))
            shutil.rmtree(iteration, ignore_errors=True)
            (traced if do_trace else plain).append(result)
            elapsed = time.monotonic() - start
            done = len(plain) + len(traced) >= MIN_ITERATIONS and (traced or not trace)
            per_iteration = elapsed / (len(plain) + len(traced))
            if done and (elapsed >= seconds or elapsed + per_iteration > RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    checked += plain + traced
    failed_checks = sorted({name for r in checked for name, ok in r["checks"].items() if not ok})
    for key in sorted({k for r in checked for k in r["digests"]}):
        if len({json.dumps(r["digests"][key]) for r in checked if key in r["digests"]}) > 1:
            failed_checks.append(f"{key} identical in every iteration")
    iterations = plain + traced
    summary = {
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in iterations),
        "failed": sum(r["failed"] for r in iterations),
        "failed_checks": failed_checks,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
    }
    walls = [r["wall_s"] for r in plain]
    summary["samples"] = {"setup_s": setups, "wall_s": walls,
                          "traced_wall_s": [r["wall_s"] for r in traced]}
    if trace:
        layers = [r["layers"] for r in traced]
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        metrics["client.overhead_ms_per_req"] = statistics.median(
            r.get("overhead_ms_per_req", 0.0) for r in plain)
        metrics["client.parallel_efficiency"] = statistics.median(
            r.get("parallel_efficiency", 0.0) for r in plain)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in iterations]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "items_per_s": statistics.median(r["items"] / r["items_wall_s"] for r in plain),
        }
    summary["metrics"] = metrics
    return summary


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """Python version, CPUs, load and source identity, to tell noisy runs apart."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "graphbench" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} lacks src/graphbench or BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True))

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results.items():
        missing = set(units) - set(result["metrics"])
        if missing:
            print(f"error: {workload} did not measure {sorted(missing)}", file=sys.stderr)
            return 1
        print(f"{workload}: {result['iterations']}, failed checks: {result['failed_checks']}")
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, unit in units.items():
            value = result["metrics"][name]
            print(f"  {name} = {value:.6g} {unit}")
            final["metrics"][prefix + name] = {"value": value, "unit": unit}
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "results": results}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
