"""The public surface: every name in an __all__ resolves."""

import importlib
import pkgutil

import pytest

import filterlab
from conftest import CYCLE_A, CYCLE_H, CYCLE_MU, CYCLE_NU
from filterlab import config, divergence, dual, ensemble, model, poincare

MODULES = ["filterlab"] + [f"filterlab.{info.name}" for info in pkgutil.iter_modules(filterlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # filterlab.errors has none
    assert [n for n in exported if not hasattr(module, n)] == []



def _cycle():
    return model.validate_model(CYCLE_A, CYCLE_H, 1.0)


def _batch():
    return ensemble.sample_path_batch(_cycle(), 2, 0.1, 1e-2, 0, 0)


def _ensemble():
    return ensemble.run_divergence_ensemble(_cycle(), CYCLE_MU, CYCLE_NU, 2, 0.1, 1e-2, 0)


# one builder per frozen dataclass of src/ with an ndarray field
ARRAY_DATACLASSES = {
    "HmmModel": _cycle,
    "ExperimentConfig": lambda: config.preset_config("example-6.1"),
    "StatePath": lambda: _batch().state_paths[0],
    "PathBatch": _batch,
    "EnsembleDivergence": _ensemble,
    "DivergenceSeries": lambda: _ensemble().series,
    "Chi2DriftTerms": lambda: divergence.chi2_drift_terms(CYCLE_MU, CYCLE_NU, _cycle()),
    "PiResult": lambda: poincare.conditional_pi_constant(CYCLE_A, CYCLE_NU),
    "BackwardMapEstimate": lambda: dual.backward_map_study(_cycle(), CYCLE_MU, CYCLE_NU, (0.1,), 2, 0, 1e-2)[1],
    "EnvelopeReport": lambda: dual.theorem2_envelope(_cycle(), CYCLE_MU, CYCLE_NU, _ensemble().series, 0.5),
}


@pytest.mark.parametrize("name", list(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name):
    # a generated __eq__ or __hash__ would compare or hash the ndarray fields
    one, twin = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(one).__name__ == name
    assert one == one and hash(one) == hash(one)
    assert (one == twin) is False
    assert one in [twin, one] and twin not in [one]
