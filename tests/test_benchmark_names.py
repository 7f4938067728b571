"""Every package name the benchmark looks up must exist.

``benchmarks/workloads.py`` wraps some functions for its traced run by
looking them up on their modules (``Tracer.add`` reads
``owner.__dict__[attr]``, so a name a module only imports counts), and calls
others directly.  Without these tests a renamed or removed name shows only
when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

import beamest
from beamest.arrays import AngleGrid
from beamest.codebook import IndexRange, StageCodebookCache, overlapped_pattern_matrix

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

MODULES = ("analysis", "arrays", "codebook", "estimator", "montecarlo")

# What call_job, build_codebooks and Context call on each module.
CALLED = {
    "montecarlo": ("ExperimentConfig", "bound_table", "power_for_energy", "sample_channel",
                   "noise_stream"),
    "estimator": ("EstimatorConfig", "run_estimation", "trace_record", "write_trace_records",
                  "codebook_bank", "stage_count"),
    "codebook": ("IndexRange",),
    "cli": ("load_config", "main"),
}


@pytest.fixture(scope="module")
def workloads():
    # importing workloads loads neither numpy nor beamest; its siblings
    # checks and tracing come from the same directory
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_traced_names_resolve(workloads):
    # register_spans only records what it would patch, and raises KeyError
    # for a name missing from the module it is looked up on
    tracer = workloads.register_spans(workloads.import_beamest())
    assert "cli.main" in tracer.names


def test_called_names_resolve(workloads):
    m = workloads.import_beamest()
    missing = [f"{module}.{name}" for module, names in CALLED.items() for name in names
               if not callable(getattr(getattr(m, module), name, None))]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"beamest.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_come_from_module_all():
    # each name the package re-exports is the object a module lists in __all__
    modules = [importlib.import_module(f"beamest.{name}") for name in MODULES]
    listed = {id(getattr(module, entry)) for module in modules for entry in module.__all__}
    exports = [name for name, value in vars(beamest).items()
               if not name.startswith("_") and not isinstance(value, type(beamest))]
    assert exports
    assert [name for name in exports if id(getattr(beamest, name)) not in listed] == []


def test_refine_miss_table_grows_only_on_a_new_bank():
    # register_spans counts a refine call as a miss when the cache's _stages
    # table grows during it
    bank = StageCodebookCache(AngleGrid(9), overlapped_pattern_matrix(2))
    sizes = [len(bank._stages)]
    for parent in (IndexRange(0, 9), IndexRange(0, 9), IndexRange(0, 3), IndexRange(3, 6)):
        bank.refine(parent, parent, 3, stage=1 + (len(parent) == 3))
        sizes.append(len(bank._stages))
    assert sizes == [0, 1, 1, 2, 3]
