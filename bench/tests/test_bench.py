"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import dataclasses
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Small enough for a test, large enough that each gate's properties hold.
TINY = {
    "cycle-sigma2-sweep": {"n_paths": 100},
    "blocks-k-sweep": {"n_paths": 100},
    "cycle-backward-map": {"n_paths": 100, "T_list": [0.1, 0.2, 0.4]},
    "verify-suite": None,
}


def tiny(wl):
    if TINY[wl.name] is None:
        return dataclasses.replace(wl, extra_args=("--size", "0"))
    return dataclasses.replace(wl, base_config=dict(wl.base_config, **TINY[wl.name]))


@pytest.fixture
def work():
    with tempfile.TemporaryDirectory() as d:
        yield d


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["pipeline.run_simulate", 1.0, 9.0, 0],
        ["filtering.evolve_ensemble", 2.0, 6.0, 1],
        ["ensemble.observer", 3.0, 4.5, 2],
        ["pipeline.write_report", 7.0, 8.0, 1],
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.5, 1.5, 1.0]
    summary = tracing.summarize(spans, {})
    assert summary["module_self_s"] == {"cli": 2.0, "pipeline": 4.0, "filtering": 2.5, "ensemble": 1.5}
    assert sum(summary["module_self_s"].values()) == 10.0
    assert summary["by_name"]["filtering.evolve_ensemble"] == {"calls": 1, "total_s": 4.0, "self_s": 2.5}


def test_tracer_nests_spans_under_the_running_call():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "model.inner", "pipeline")
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "pipeline.outer", "cli")
    assert tracer.call("cli.main", outer, (2,), {}) == 9
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("cli.main", -1),
        ("pipeline.outer", 0),
        ("model.inner", 1),
        ("model.inner", 1),
    ]
    assert tracer.counts == {"cli->pipeline.outer": 1, "pipeline->model.inner": 2}


def test_install_wraps_and_uninstall_restores():
    import filterlab.filtering

    original = filterlab.filtering.wonham_step
    tracer = tracing.Tracer()
    assert tracing.wrapped_functions() == 0
    try:
        assert tracer.install() > 0
        assert tracing.wrapped_functions() > 0
        assert filterlab.filtering.wonham_step.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert tracing.wrapped_functions() == 0
    assert filterlab.filtering.wonham_step is original


def test_wrappers_never_leak_into_untraced_children(work):
    wl = tiny(workloads.WORKLOADS["cycle-sigma2-sweep"])
    traced = run.invoke(wl, 5, work, trace=True)
    plain = run.invoke(wl, 5, work)
    assert traced["wrapped_functions"] > 0 and traced["spans"]
    assert plain["wrapped_functions"] == 0 and "spans" not in plain
    assert traced["problems"] == plain["problems"] == []
    assert run.canonical(traced["report"]) == run.canonical(plain["report"])


def test_metric_names_are_well_formed():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    declared += [w["name"] for w in spec["workloads"]]
    for name in [*declared, *run.END_TO_END, *tracing.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_per_layer_metrics_cover_every_declared_name():
    extra = {
        "verify.checks": 0,
        "verify.checks_failed": 0,
        "filtering.stiff.attempted": 3,
        "filtering.stiff.failed": 3,
        "trace.overhead_s": 0.0,
    }
    metrics = tracing.per_layer_metrics(tracing.summarize([], {}), extra)
    assert list(metrics) == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_builds_a_valid_config_and_passes_its_gate(name, work):
    from filterlab.config import load_config

    wl = tiny(workloads.WORKLOADS[name])
    config = wl.config(7)
    if config is not None:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        assert load_config(str(path)).master_seed == 7
    sample = run.invoke(wl, 7, work)
    assert sample["problems"] == []
    assert sample["report"] is not None


def test_gates_reject_wrong_answers():
    report = {
        "checks": {"terminal_simplex[sigma2=1]": True},
        "config": {"sigma2_list": [0.0, 1.0]},
        "sweep": [
            {"value": 0.0, "tag": "sigma2=0", "rate_fit": {"rate": 0.0, "stderr": 0.0}},
            {"value": 1.0, "tag": "sigma2=1", "rate_fit": {"rate": 0.01, "stderr": 0.1}},
        ],
    }
    assert workloads.gate_simulate(report)
    report["sweep"][1]["rate_fit"]["rate"] = 1.0
    assert workloads.gate_simulate(report) == []
    report["checks"]["terminal_simplex[sigma2=1]"] = False
    assert workloads.gate_simulate(report)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(40)])["p"] == 75
    assert run.tail_percentile([float(i) for i in range(1000)])["p"] == 99


def test_reference_check_accepts_noise_and_rejects_wrong_values():
    def report(rate):
        entry = {"tag": "sigma2=1", "rate_fit": {"rate": rate, "stderr": 0.01},
                 "chi2_terminal_mean": 0.1, "chi2_terminal_se": 0.001}
        return {"command": "simulate", "sweep": [entry]}

    reference = {"w": {
        "rate[sigma2=1]": {"value": 1.0, "seed_sd": 0.02},
        "chi2_T[sigma2=1]": {"value": 0.1, "seed_sd": 0.002},
    }}
    assert workloads.reference_problems("w", report(1.05), reference) == []
    assert workloads.reference_problems("w", report(1.2), reference)
