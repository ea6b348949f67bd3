"""The benchmark's traced runner wraps waysample functions by name, and its
workloads import waysample names; a rename or deletion would only show in a
traced benchmark run. These tests load both files, unchanged, and check the
names they reach for."""

import importlib.util
import os

import pytest

from waysample import client

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its imports of waysample names must resolve
    return module


traced = load("traced")


@pytest.mark.parametrize("module, name", traced.AGGREGATED,
                         ids=[f"{m.__name__}.{n}" for m, n in traced.AGGREGATED])
def test_aggregated_function_exists(module, name):
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("method", traced.SPANNED_METHODS)
def test_spanned_method_exists(method):
    assert callable(getattr(client.ArchiveClient, method, None))


def test_workloads_import():
    load("workloads")
