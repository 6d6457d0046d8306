"""The package version has a single source: filterlab.__version__."""

import os
import warnings

import pytest

import filterlab

tomllib = pytest.importorskip("tomllib")
pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")

PYPROJECT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"))


def test_pyproject_version_is_the_package_version():
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["version"] == filterlab.__version__
