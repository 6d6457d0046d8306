"""The filterlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is one ``filterlab.cli.main``
invocation in a fresh interpreter (closed loop, one client), importing the
package from the checkout's ``src/``.  A run first invokes the workload at
DEFAULT_SEED and checks the report against the recorded reference values,
then repeats the invocation at ``--seed`` until ``--seconds`` are spent, and
reports medians over all of these invocations.  Every report passes the
workload's correctness gate, and all repeats at one seed must write
byte-identical reports apart from ``wall_clock_s``.

With ``--trace 1`` the run repeats the untraced invocation at ``--seed`` for
half of ``--seconds``, then makes one traced invocation (cross-module calls
wrapped, spans recorded) and runs the stiff-step probe, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
sample counts, tail percentiles, problems found and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 60.0
MIN_SAMPLES = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# One BLAS/OpenMP thread per child.  The filter's matrix products are a few
# hundred rows by d <= 4 columns, too small to gain from a second thread, and
# one thread keeps each child on one core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """The caller's environment with only the checkout's src/ on the path, no
    other PYTHON* variable and one BLAS thread, so that every child starts
    the same way."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env.update(THREAD_ENV)
    return env


def _tail(path: str, n: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-n:])


def invoke(wl: workloads.Workload, seed: int, work: str, trace: bool = False) -> dict:
    """One CLI invocation in a child interpreter; returns the sample record."""
    sample_dir = tempfile.mkdtemp(dir=work)
    out_dir = os.path.join(sample_dir, "out")
    config = wl.config(seed)
    config_path = None
    if config is not None:
        config_path = os.path.join(sample_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
    spec_path = os.path.join(sample_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(
            {"argv": wl.argv(seed, config_path, out_dir), "config": config_path, "src": SRC, "trace": trace},
            fh,
        )
    result_path = os.path.join(sample_dir, "result.json")
    log_path = os.path.join(sample_dir, "log.txt")
    sample = {"seed": seed, "trace": trace, "problems": [], "report": None}
    start = time.perf_counter()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=sample_dir,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
    sample["outer_s"] = time.perf_counter() - start
    if proc is None:
        sample["problems"].append(f"child timed out after {CHILD_TIMEOUT_S:.0f} s")
    elif proc.returncode != 0:
        sample["problems"].append(f"child exited {proc.returncode}: {_tail(log_path)}")
    else:
        with open(result_path) as fh:
            sample.update(json.load(fh))
        if sample["exit_code"] != 0:
            sample["problems"].append(f"filterlab exited {sample['exit_code']}: {_tail(log_path)}")
        report_path = os.path.join(out_dir, wl.report)
        if os.path.exists(report_path):
            with open(report_path) as fh:
                sample["report"] = json.load(fh)
            sample["problems"] += wl.gate(sample["report"])
        else:
            sample["problems"].append(f"no {wl.report} written")
    shutil.rmtree(sample_dir)
    return sample


def canonical(report: dict) -> str:
    """The report as compared for determinism: everything but wall_clock_s."""
    return json.dumps({k: v for k, v in report.items() if k != "wall_clock_s"}, sort_keys=True)


def check_determinism(samples: list[dict]) -> None:
    """Mark every sample whose report differs from the first one's."""
    reports = [s for s in samples if s["report"] is not None]
    for s in reports[1:]:
        if canonical(s["report"]) != canonical(reports[0]["report"]):
            s["problems"].append(f"report at seed {s['seed']} differs from the first repeat")


def tail_percentile(values: list[float]) -> dict | None:
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def repeat(wl, seed: int, work: str, deadline: float) -> list[dict]:
    """Invoke at seed until a typical invocation would end past the deadline."""
    samples = []
    while True:
        samples.append(invoke(wl, seed, work))
        typical = statistics.median(s["outer_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and time.perf_counter() + typical > deadline:
            return samples


def timed_run(wl, seed: int, seconds: float, work: str) -> tuple[list[dict], dict, dict]:
    deadline = time.perf_counter() + seconds
    first = invoke(wl, workloads.DEFAULT_SEED, work)
    if first["report"] is not None:
        first["problems"] += workloads.reference_problems(wl.name, first["report"], workloads.load_reference())
    samples = repeat(wl, seed, work, deadline)
    check_determinism(samples)
    timed = [s for s in [first] + samples if "wall_s" in s]
    metrics, detail = {}, {}
    for name, unit in END_TO_END.items():
        values = [s[name] for s in timed]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            detail[name] = {"median": metrics[name]["value"], "n": len(values), "tail": tail_percentile(values), "samples": values}
    return [first] + samples, metrics, detail


def stiff_probe(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "stiff_probe.py"), str(seed)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(wl, seed: int, seconds: float, work: str) -> tuple[list[dict], dict, dict]:
    """Untraced repeats for the baseline wall time, then one traced child."""
    samples = repeat(wl, seed, work, time.perf_counter() + seconds / 2)
    traced = invoke(wl, seed, work, trace=True)
    samples.append(traced)
    check_determinism(samples)
    probe = stiff_probe(seed)
    detail = {"stiff_probe": probe}
    untraced = [s["wall_s"] for s in samples[:-1] if "wall_s" in s]
    if "spans" not in traced or not untraced:
        return samples, {}, detail
    summary = tracing.summarize(traced["spans"], traced["counts"])
    traced_wall = traced["wall_s"]
    overhead = traced_wall - statistics.median(untraced)
    self_sum = sum(summary["module_self_s"].values())
    if abs(self_sum - traced_wall) > max(abs(overhead), 1e-6):
        traced["problems"].append(f"module self times sum to {self_sum:.6f} s, traced wall {traced_wall:.6f} s")
    report = traced["report"] or {}
    extra = {
        "verify.checks": report.get("n_checks", 0),
        "verify.checks_failed": report.get("n_failed", 0),
        "filtering.stiff.attempted": probe["attempted"],
        "filtering.stiff.failed": probe["failed"],
        "trace.overhead_s": overhead,
    }
    values = tracing.per_layer_metrics(summary, extra)
    metrics = {name: {"value": v, "unit": tracing.metric_unit(name)} for name, v in values.items()}
    detail.update(
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced,
        module_self_sum_s=self_sum,
        spans=len(traced["spans"]),
        wrapped_functions=traced["wrapped_functions"],
    )
    return samples, metrics, detail


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": dict(THREAD_ENV),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "filterlab", "cli.py")):
        print(f"no filterlab sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        run = traced_run if args.trace else timed_run
        samples, metrics, detail = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    failed = sum(bool(s["problems"]) for s in samples)
    expected = tracing.PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(expected)
    detail.update(
        workload=wl.name,
        seed=args.seed,
        failed_frac=failed / len(samples),
        problems=[{"seed": s["seed"], "trace": s["trace"], "problems": s["problems"]} for s in samples if s["problems"]],
        environment=environment(),
    )
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
