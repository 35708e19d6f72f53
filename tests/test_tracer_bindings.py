"""The benchmark tracer's bindings resolve against the library.

``perfbench/tracer.py`` names the functions and classes it traces as
strings; a renamed or deleted name would otherwise surface only when a
traced benchmark run starts.  The tracer is loaded from its file path
and used as it is.
"""

import importlib
import importlib.util
import sys

import pytest

from test_golden import REPO_ROOT


def load_perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACER = load_perfbench_module("tracer")


@pytest.mark.parametrize("module_name, attr", TRACER.FUNCTIONS, ids=lambda value: value)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(f"clonesim.{module_name}"), attr))


@pytest.mark.parametrize("module_name, attr", TRACER.CLASSES, ids=lambda value: value)
def test_traced_class_defines_post_init(module_name, attr):
    cls = getattr(importlib.import_module(f"clonesim.{module_name}"), attr)
    assert "__post_init__" in vars(cls)


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "clonesim").glob("*.py")), ids=lambda path: path.name)
def test_no_construction_skips_post_init(path):
    # The tracer sees a traced class's constructions through __post_init__,
    # which an instance made by object.__new__ never runs.
    assert "object.__new__" not in path.read_text(encoding="utf-8")
