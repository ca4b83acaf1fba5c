"""Run the doctest examples embedded in public docstrings."""

import doctest

import pytest

import repro.engine.serial
import repro.net.events
import repro.overlay.can.network


@pytest.mark.parametrize(
    "module",
    [repro.engine.serial, repro.net.events, repro.overlay.can.network],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, "no doctests found — examples removed?"
