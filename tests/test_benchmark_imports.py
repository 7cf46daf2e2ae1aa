"""Every name the benchmark under `perfbench/` reads from the package resolves.

The benchmark's files are parsed, not imported: importing `perfbench/job.py`
would run a job, and `Tracer.install` rebinds module functions in place.
"""

import ast
import importlib
import inspect
from pathlib import Path

import fano_l2

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _layers():
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_every_traced_layer_resolves():
    entries = [entry for group in _layers().values() for entry in group]
    assert len(entries) > 30
    for module_name, attr in entries:
        module = importlib.import_module(f"fano_l2.{module_name}")
        if "." in attr:
            # install reads the raw attribute from the class dictionary
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_every_package_root_name_the_benchmark_reads_resolves():
    names = {
        node.attr
        for node in ast.walk(_tree("job.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "fano_l2"
    }
    names.discard("__file__")
    for node in ast.walk(_tree("test_hosts.py")):
        if isinstance(node, ast.ImportFrom) and node.module == "fano_l2":
            names.update(alias.name for alias in node.names)
    assert names == set(fano_l2.__all__)
    for name in names:
        assert hasattr(fano_l2, name), name


def test_every_package_call_the_benchmark_makes_binds_to_the_live_signature():
    # placeholders stand in for the values, so only the shape of each call
    # is checked: its positional count and its keyword names
    calls = [
        node
        for node in ast.walk(_tree("job.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "fano_l2"
    ]
    assert {call.func.attr for call in calls} >= {"run_suite", "max_k4free_multigraph"}
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        signature = inspect.signature(getattr(fano_l2, call.func.attr))
        signature.bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})
