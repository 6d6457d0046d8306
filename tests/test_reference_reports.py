"""Each command's report against its reference in tests/reference/
(make_reference_reports.py regenerates them): keys, bools, ints, strings
and nulls equal, and every float within 1e-12 relative plus 1e-18, a floor
for rounding-level values such as a standard error of 1e-17, which can move
by a few tenths of a percent between SIMD levels of the same numpy."""

import copy
import json
import math
import os

import pytest

import filterlab.ensemble as ensemble_mod
from make_reference_reports import CASES, FORKING, reference_path, report_of

REL, FLOOR = 1e-12, 1e-18


def mismatches(got, want, where="report") -> list[str]:
    """Where got differs from the reference want, by the rule above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if type(want) is float:
        close = got == want or math.isnan(got) and math.isnan(want)
        if close or abs(got - want) <= REL * max(abs(got), abs(want)) + FLOOR:
            return []
        return [f"{where}: {got!r} != {want!r}, relative change {abs(got - want) / max(abs(got), abs(want)):.2e}"]
    if got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _reference(case: str) -> dict:
    with open(reference_path(case)) as fh:
        return json.load(fh)


def _float_leaves(tree):
    """(container, key) of every float in a JSON tree."""
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        if type(value) is float:
            yield tree, key
        elif isinstance(value, (dict, list)):
            yield from _float_leaves(value)


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_its_reference(case):
    assert mismatches(report_of(case), _reference(case)) == []


@pytest.mark.parametrize("case", FORKING)
def test_forked_report_matches_its_reference(case, monkeypatch):
    monkeypatch.setattr(ensemble_mod, "FORK_MIN_PATH_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert mismatches(report_of(case), _reference(case)) == []


def test_a_float_moved_by_1e_10_relative_is_a_mismatch():
    """Every float above 1e-8 in magnitude, where the relative term is the
    tolerance, fails alone when it moves by 1e-10 of itself."""
    for case in CASES:
        want = _reference(case)
        got = copy.deepcopy(want)
        for container, key in _float_leaves(got):
            x = container[key]
            if abs(x) > 1e-8:
                container[key] = x * (1.0 + 1e-10)
                assert len(mismatches(got, want)) == 1, (case, key)
                container[key] = x
        assert mismatches(got, want) == []
