"""Outside-in span tracing of filterlab, and the per-layer metrics it feeds.

The tracer never edits the package.  It replaces, in each filterlab
module's namespace, the functions that module calls in another filterlab
module with a wrapper that records a span (name, start, end, parent) in
memory.  A few functions that are also called from inside their own module
(the filter step, the density ratio, the conditional Poincare constant) are
wrapped in their own namespace as well, so those calls are seen too.
Untimed per-step private helpers such as ``filtering._restrict`` and
``filtering._degenerate`` stay unwrapped: their call counts are so large
that wrapping them would swamp the numbers.

A span is named ``<module>.<function>`` after the module that defines the
function, because that module's code is what runs inside it.  A module's
self time is the summed self time of its spans: each span's duration minus
the part its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

import numpy as np

PACKAGE = "filterlab"

# Reached from inside their own module, or through a module attribute such
# as ``dual_mod.theorem2_envelope``, so wrapped in their own namespace too.
OWN_NAMESPACE = {
    "filtering": ("wonham_step",),
    "divergence": ("density_ratio",),
    "poincare": ("conditional_pi_constant",),
    "dual": ("decay_diagnostics", "backward_map_pair", "theorem2_envelope", "write_backward_map_csv"),
    "pipeline": ("_pi_trajectories", "write_report"),
}

# Spans that write reports and CSV tables; their time is pipeline.io_s.
IO_SPANS = ("pipeline.write_report", "divergence.write_series_csv", "dual.write_backward_map_csv")

MODULES = (
    "cli", "config", "divergence", "dual", "ensemble", "filtering",
    "model", "pipeline", "poincare", "sim", "verify",
)

# Per-layer metrics in report order; the unit of each follows its suffix.
PER_LAYER = (
    "filtering.noiseless.paths",
    "filtering.noiseless.s_per_path",
    "filtering.path_steps",
    "filtering.ns_per_path_step",
    "filtering.wonham_step.calls",
    "filtering.evolve_ensemble.self_s",
    "filtering.run_filter.calls",
    "filtering.run_filter.self_s",
    "filtering.stiff.attempted",
    "filtering.stiff.failed",
    "pipeline.pi_trajectories_s",
    "pipeline.io_s",
    "ensemble.observer_s",
    "divergence.density_ratio.calls",
    "divergence.fit.self_s",
    "sim.paths",
    "sim.path_steps",
    "sim.us_per_path",
    "dual.path_batches",
    "dual.envelope.self_s",
    "poincare.conditional_pi_constant.calls",
    "verify.checks",
    "verify.checks_failed",
    *(f"{m}.self_s" for m in MODULES),
    "trace.overhead_s",
)


def metric_unit(name: str) -> str:
    if name.endswith("ns_per_path_step"):
        return "ns"
    if name.endswith("us_per_path"):
        return "us"
    if name.endswith("_s") or name.endswith("s_per_path"):
        return "s"
    return "count"


class Tracer:
    """Span store plus call counters; install() wraps, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, caller: str):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[f"{caller}->{name}"] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                hook(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            return self.call(name, fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        wrapper._bench_span = name
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every cross-module filterlab call; returns the number wrapped."""
        modules = package_modules()
        for caller, mod in modules.items():
            own = OWN_NAMESPACE.get(caller, ())
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or hasattr(obj, "_bench_span"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or home not in modules:
                    continue
                if home == caller and attr not in own:
                    continue
                wrapped = self.wrap(obj, f"{home}.{obj.__name__}", caller)
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrapped)
        return len(self._installed)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()


def package_modules() -> dict:
    pkg = importlib.import_module(PACKAGE)
    return {
        info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }


def wrapped_functions() -> int:
    """Number of filterlab namespace entries that currently hold a wrapper."""
    return sum(
        hasattr(obj, "_bench_span")
        for mod in package_modules().values()
        for obj in vars(mod).values()
    )


# -- argument hooks: counts taken where the work is handed over -------------


def _evolve_hook(tracer: Tracer, a: dict) -> None:
    priors, increments = a["priors"], a["increments"]
    k = len(priors)
    n_paths, n_steps = increments.shape[0], increments.shape[1]
    tracer.counts["filtering.path_steps"] += n_paths * k * n_steps
    observer = a.get("observer")
    if observer is not None:
        a["observer"] = lambda *args: tracer.call("ensemble.observer", observer, args, {})


def _run_filter_hook(tracer: Tracer, a: dict) -> None:
    prior = np.asarray(a["prior"], dtype=float)
    k = 1 if prior.ndim == 1 else prior.shape[0]
    tracer.counts["filtering.path_steps"] += k * a["obs"].n_steps


def _integrate_hook(tracer: Tracer, a: dict) -> None:
    tracer.counts["sim.path_steps"] += int(round(a["path"].T / a["dt"]))


_HOOKS = {
    "filtering.evolve_ensemble": _evolve_hook,
    "filtering.run_filter": _run_filter_hook,
    "sim.integrate_observation": _integrate_hook,
}


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, counts: dict) -> dict:
    """Per-name totals: calls, inclusive time and self time, plus module self."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    modules: Counter = Counter()
    for (name, start, end, _), own in zip(spans, selfs):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        modules[name.partition(".")[0]] += own
    return {"by_name": by_name, "module_self_s": dict(modules), "counts": dict(counts)}


def per_layer_metrics(summary: dict, extra: dict) -> dict[str, float]:
    """The PER_LAYER metrics from one traced child's summary.

    extra carries what the spans cannot see: verify.checks and
    verify.checks_failed from the report, the stiff-probe counts, and
    trace.overhead_s.
    """
    names = summary["by_name"]
    counts = summary["counts"]
    mods = summary["module_self_s"]

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def own(name):
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    noiseless = calls("filtering.run_exact_noiseless_filter")
    path_steps = counts.get("filtering.path_steps", 0)
    step_s = sum(own(f"filtering.{f}") for f in ("wonham_step", "evolve_ensemble", "run_filter"))
    sim_paths = calls("sim.sample_ctmc_path")
    out = {
        "filtering.noiseless.paths": noiseless,
        "filtering.noiseless.s_per_path": total("filtering.run_exact_noiseless_filter") / max(noiseless, 1),
        "filtering.path_steps": path_steps,
        "filtering.ns_per_path_step": 1e9 * step_s / max(path_steps, 1),
        "filtering.wonham_step.calls": calls("filtering.wonham_step"),
        "filtering.evolve_ensemble.self_s": own("filtering.evolve_ensemble"),
        "filtering.run_filter.calls": calls("filtering.run_filter"),
        "filtering.run_filter.self_s": own("filtering.run_filter"),
        "pipeline.pi_trajectories_s": total("pipeline._pi_trajectories"),
        "pipeline.io_s": sum(total(n) for n in IO_SPANS),
        "ensemble.observer_s": total("ensemble.observer"),
        "divergence.density_ratio.calls": calls("divergence.density_ratio"),
        "divergence.fit.self_s": own("divergence.fit_exponential_rate"),
        "sim.paths": sim_paths,
        "sim.path_steps": counts.get("sim.path_steps", 0),
        "sim.us_per_path": 1e6 * mods.get("sim", 0.0) / max(sim_paths, 1),
        "dual.path_batches": counts.get("dual->ensemble.sample_path_batch", 0),
        "dual.envelope.self_s": own("dual.theorem2_envelope"),
        "poincare.conditional_pi_constant.calls": calls("poincare.conditional_pi_constant"),
    }
    for m in MODULES:
        out[f"{m}.self_s"] = mods.get(m, 0.0)
    out.update(extra)
    return {name: out[name] for name in PER_LAYER}
