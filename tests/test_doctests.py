"""The package's docstring examples run, and every one of them passes.

A quickstart that still uses a removed calling style fails here.
"""

import doctest
import importlib
import pkgutil

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


def test_every_docstring_example_passes():
    attempted, failed = {}, []
    for name in MODULES:
        results = doctest.testmod(importlib.import_module(name))
        if results.attempted:
            attempted[name] = results.attempted
        if results.failed:
            failed.append(name)
    assert failed == []
    # The quickstarts that carry examples are really run.
    assert {"repro", "repro.dynamic", "repro.engine"} <= set(attempted)
