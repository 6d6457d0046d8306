"""Independent filter passes in a forked child (ensemble._split_run): the
results equal a serial run's bit for bit, errors come out in serial order,
and no child outlives the call that made it."""

import os
import time
from dataclasses import astuple

import numpy as np
import pytest

import filterlab.dual as dual_mod
import filterlab.ensemble as ensemble_mod
import filterlab.pipeline as pipeline_mod
from filterlab.config import _apply_overrides, model_for_sweep_value, preset_config
from filterlab.dual import backward_map_study
from filterlab.ensemble import run_divergence_ensemble
from filterlab.errors import DegenerateMass
from filterlab.pipeline import run_simulate


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Fork at any size on two CPUs; the list counts the forks."""
    made = []
    fork = os.fork

    def counting():
        made.append(1)
        return fork()

    monkeypatch.setattr(ensemble_mod, "FORK_MIN_PATH_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting)
    yield made
    _assert_no_child_left()


def _serial(monkeypatch, fn, *args):
    """fn(*args) with the affinity forced to one CPU, so nothing forks."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return fn(*args)


def _study_args(preset):
    cfg = preset_config(preset)
    return model_for_sweep_value(cfg, None), cfg.mu, cfg.nu, (0.1, 0.3), 30, 11, 1e-3


def _comparable(study):
    diags, plain, rb = study
    return [astuple(dg) for dg in diags], [(e.y0, e.stderr, e.T, e.skipped_states) for e in (plain, rb)]


@pytest.mark.parametrize("preset", ["example-6.1", "example-6.2"])
def test_backward_map_study_equals_the_serial_run(monkeypatch, forks, preset):
    args = _study_args(preset)
    serial = _serial(monkeypatch, backward_map_study, *args)
    forked = backward_map_study(*args)
    assert len(forks) == 1
    np.testing.assert_equal(_comparable(forked), _comparable(serial))


@pytest.mark.parametrize(
    "preset, sweep",
    [("example-6.1", {"sigma2_list": [0.0, 0.1, 1.0, 10.0]}), ("example-6.2", {"k_list": [0.0, 1.0, 4.0]})],
)
def test_simulate_equals_the_serial_run(monkeypatch, forks, preset, sweep):
    cfg = _apply_overrides(preset_config(preset), dict(n_paths=12, T=0.6, **sweep), "test")
    serial_report, serial_series = _serial(monkeypatch, run_simulate, cfg)
    report, series = run_simulate(cfg)
    assert len(forks) == 1
    del report["wall_clock_s"], serial_report["wall_clock_s"]
    assert report == serial_report
    np.testing.assert_equal([astuple(s) for s in series], [astuple(s) for s in serial_series])


@pytest.mark.parametrize("bad", [(2, 3), (3,), (1, 3), (0, 2)])
def test_errors_come_out_in_serial_order(monkeypatch, forks, bad):
    # the child inherits the patched function; states 2 and 3 are its half
    original = dual_mod._state_samples

    def failing(model, mu, nu, x, *rest):
        if x in bad:
            raise DegenerateMass(f"state {x} failed")
        return original(model, mu, nu, x, *rest)

    monkeypatch.setattr(dual_mod, "_state_samples", failing)
    args = _study_args("example-6.1")
    with pytest.raises(DegenerateMass) as serial:
        _serial(monkeypatch, backward_map_study, *args)
    with pytest.raises(DegenerateMass) as forked:
        backward_map_study(*args)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value) == f"state {bad[0]} failed"


def test_an_error_in_the_parent_kills_the_child(monkeypatch, forks):
    # the child's half would take a minute; the parent's first state raises
    original = dual_mod._state_samples

    def stalling(model, mu, nu, x, *rest):
        if x == 0:
            raise DegenerateMass("state 0 failed")
        if x >= 2:
            time.sleep(60.0)
        return original(model, mu, nu, x, *rest)

    monkeypatch.setattr(dual_mod, "_state_samples", stalling)
    start = time.perf_counter()
    with pytest.raises(DegenerateMass, match="state 0 failed"):
        backward_map_study(*_study_args("example-6.1"))
    assert len(forks) == 1
    assert time.perf_counter() - start < 30.0


def test_an_error_after_a_value_reaps_the_child_at_once(monkeypatch, forks):
    # the caught traceback keeps run_simulate's frame, and the sweep in it,
    # alive: only closing the sweep there reaps the child before the caller
    # sees the error
    def failing(*args):
        raise RuntimeError("envelope failed")

    monkeypatch.setattr(pipeline_mod, "theorem2_envelope", failing)
    cfg = _apply_overrides(preset_config("example-6.1"), dict(n_paths=12, T=0.2), "test")
    with pytest.raises(RuntimeError, match="envelope failed") as caught:
        run_simulate(cfg)
    assert len(forks) == 1
    _assert_no_child_left()
    assert caught.traceback


def _never_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("case", ["one CPU", "no os.fork", "no os.sched_getaffinity"])
def test_no_fork_without_a_second_cpu(monkeypatch, case):
    monkeypatch.setattr(ensemble_mod, "FORK_MIN_PATH_STEPS", 0)
    monkeypatch.setattr(os, "fork", _never_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one CPU" else {0, 1})
    if case != "one CPU":
        monkeypatch.delattr(os, case.split(".")[1])
    backward_map_study(*_study_args("example-6.1"))


def test_no_fork_for_one_item(monkeypatch, cycle_model):
    monkeypatch.setattr(ensemble_mod, "FORK_MIN_PATH_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _never_fork)
    run_divergence_ensemble(cycle_model, [0.3, 0.2, 0.3, 0.2], [0.25] * 4, 10, 0.2, 1e-3, 0)


def test_no_fork_below_the_break_even(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _never_fork)
    model, mu, nu, *_ = _study_args("example-6.1")
    # four kept states of 10 paths and 20 steps: the child's share is 400 path-steps
    backward_map_study(model, mu, nu, (0.1, 0.2), 10, 3, 1e-2)
    cfg = _apply_overrides(preset_config("example-6.1"), dict(n_paths=6, T=0.1, sigma2_list=[0.0, 0.1, 1.0]), "test")
    run_simulate(cfg)
