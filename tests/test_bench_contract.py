"""What the benchmark in ``perfbench/`` needs of envcap, checked untimed.

The benchmark reaches envcap by name (``envcap.haar_unitary``,
``capacity.minimize``, ``degradability.degradability_index`` on raw
matrices, ...).  These tests build its workloads, run the helper, jammer
and tables items against ``perfbench/refs.json``, compare the index
kernel with its scalar path and patch the tracer in and out, so a cleanup
that removes a name the benchmark uses, moves a value past the
benchmark's tolerance, or changes a table's digest, fails here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from envcap import capacity, degradability

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def refs(bench):
    return bench[0].load_refs()


def test_every_workload_builds_with_passing_checks(bench, refs, tmp_path):
    workloads, _ = bench
    for name in workloads.WORKLOADS:
        items, checks = workloads.build(name, 1, refs, tmp_path)
        assert items, name
        assert checks == [None] * len(checks), (name, checks)


def test_helper_items_match_their_references(bench, refs, tmp_path):
    workloads, _ = bench
    items, _ = workloads.build("helper_sweep", 1, refs, tmp_path)
    assert len(items) == 64
    for item in items:
        assert item.check(item.call()) is None, item.label


def test_jammer_items_match_their_references(bench, refs, tmp_path):
    workloads, _ = bench
    items, _ = workloads.build("jammer_gates", 1, refs, tmp_path)
    for item in items:
        assert item.check(item.call()) is None, item.label


def test_table_items_match_their_references(bench, refs, tmp_path):
    workloads, _ = bench
    items, _ = workloads.build("tables", 1, refs, tmp_path)
    for item in items:
        assert item.check(item.call()) is None, item.label


def test_index_kernel_agrees_with_the_scalar_path(bench):
    workloads, _ = bench
    assert workloads.index_kernel(1)["error"] is None


def test_tracer_wraps_and_restores(bench):
    _, tracer = bench
    kernel, minimize = degradability.batch_degradability_index, capacity.minimize
    with tracer.Tracer() as tr:
        assert capacity.minimize is not minimize
        degradability.batch_degradability_index(np.eye(4), np.array([[1, 0]], complex))
    assert tr.totals()["degradability.batch_degradability_index"]["calls"] == 1
    assert degradability.batch_degradability_index is kernel
    assert capacity.minimize is minimize
