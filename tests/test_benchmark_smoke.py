"""The benchmark's own checks, run in the test suite.

`perfbench/run.py --trace 1` wraps the library's public names and every run
compares a reduced case with `perfbench/reference.npz`; these tests do both
without the timed loop, so a change that breaks either fails here first.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import numpy as np
import pytest

import sgsdistill

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _snapshot():
    """The attributes of every library module and every class it defines."""
    modules = [importlib.import_module(f"sgsdistill.{m.name}")
               for m in pkgutil.iter_modules(sgsdistill.__path__)]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return {ns: dict(vars(ns)) for ns in modules + classes}


def test_tracer_installs_and_restores_every_patched_object():
    before = _snapshot()
    tracer = Tracer()
    tracer.install(sgsdistill)
    during = _snapshot()
    patched = [(ns, attr) for ns, attrs in before.items()
               for attr, obj in attrs.items() if during[ns][attr] is not obj]
    assert patched
    tracer.uninstall()
    after = _snapshot()
    for ns, attrs in before.items():
        assert after[ns].keys() == attrs.keys()
        assert all(after[ns][attr] is obj for attr, obj in attrs.items()), ns


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_case_matches_the_stored_reference(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(run.REFERENCE_SEED, small=True)
    res = wl.op(state, 0, str(tmp_path))
    wl.check(state, res, str(tmp_path))
    with np.load(os.path.join(PERFBENCH, "reference.npz")) as ref:
        rel, acc = workloads.reference_deviation(res.arrays, dict(ref), wl.name)
    assert rel <= run.REFERENCE_REL_TOL
    assert acc <= run.REFERENCE_ACC_TOL
