"""The benchmark's tracer (perfbench/spans.py) must find every name it hooks.

The tracer is loaded from its file and only read. A library change that drops
a name it replaces, or an attribute its compile hook reads, fails here rather
than only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from structh2 import DesignOptions, design_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(spans):
    for modname, attr, _, _ in spans.HOOKS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"


def test_compile_hook_reads_a_compiled_problem(spans, plant, perf, subspace):
    conic = design_model(plant, perf, DesignOptions(design="D4", subspace=subspace)).conic
    attrs = spans._compile_attrs((), conic)
    assert attrs["n_reduced"] == conic.n_reduced
    M, N = conic.nonzeros.shape
    assert attrs["cone_rows"] == M
    # the dense G that the hook reads holds the table's nonzeros and no others
    assert attrs["G_nnz"] == conic.nonzeros.vals.size
    assert attrs["G_size"] == M * N
