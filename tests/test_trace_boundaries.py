"""The benchmark tracer's wrap points must exist in km2d.

perfbench/tracer.py wraps functions by module and attribute path.  A rename,
or a method moved onto a base class, would make its install step fail; this
test reads the tables and resolves every entry without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("km2d_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer_module()
ENTRIES = ([(module, path) for _, module, path, _ in tracer.BOUNDARIES]
           + [(module, path) for _, module, path in tracer.COUNTED]
           + [("km2d.regulator", "richardson_finite_part")])


@pytest.mark.parametrize("module_name,path", ENTRIES,
                         ids=[f"{m}.{p}" for m, p in ENTRIES])
def test_boundary_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # the tracer reads and replaces the class's own attribute
        assert attr in owner.__dict__, f"{path} is not defined on the class"
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(owner, attr, None)), f"{path} is missing"


def test_table_size_counts_every_entry():
    # the traced `tables` run reports the table size through _n_entries; the
    # key set itself is checked against the selection rules in test_harmonics
    from km2d.harmonics import structure_table
    table = structure_table(4)
    assert tracer._n_entries(table) == len(table.values) == 804
