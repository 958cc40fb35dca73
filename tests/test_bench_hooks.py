"""The names and argument positions through which the benchmark's tracer,
``bench/spans.py``, reaches into the package, and the code paths its
workloads (``bench/workloads.py``) take.

The tracer wraps functions and methods by name, where their callers look
them up, and reads some of their arguments by position.  A rename or a
reordered signature in ``src/`` runs the package as before, yet leaves the
traced spans empty or mislabelled, so these checks run with the package's
own tests.  Likewise a change to the rule that picks a step form can move a
workload off the path its timings are meant to cover.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from vrgrad import optimizer
from vrgrad.harness import load_dataset
from vrgrad.losses import LossModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module ``bench/<name>.py``, loaded from its file as ``bench_<name>``
    (registered first: a dataclass looks its module up while it is built)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_bench("spans")


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_every_traced_name_resolves_where_install_looks_it_up(spans):
    # install reads a class's own __dict__, so an inherited or deleted
    # method fails here, and a module's attribute
    for owner, attr, _, _ in spans.PATCHES:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{owner.__name__}.{attr}"


def test_the_arguments_the_tracer_reads_by_position():
    # direction's span is named by the variant of its second argument
    assert parameters(optimizer.direction)[1] == "correction"
    # run_epoch's span is named by args[1].method and noted with args[8];
    # alloc_bytes_per_step reads the epoch from args[4] and replaces
    # schedule_step with a hook of its parameters
    run_epoch = parameters(optimizer.run_epoch)
    assert (run_epoch[1], run_epoch[4], run_epoch[8]) == ("config", "epoch", "m")
    assert parameters(optimizer.schedule_step) == ["schedule", "anchors", "epoch", "t", "m"]


@pytest.mark.parametrize("name", ["dense-lowd", "hinge-grid"])
def test_the_full_row_workloads_form_h_from_the_models_view(tmp_path, name):
    # their Gaussian rows are full on every seed, and d^2 < nnz: the
    # corrected SVRG2 epochs of their ttg runs build H from model.rows
    workload = load_bench("workloads").WORKLOADS[name]
    model = LossModel(load_dataset(workload.spec(0, tmp_path)), workload.lambdas[0],
                      workload.model)
    assert model.rows is not None
    assert optimizer.hessian_form(model) == "formed"
