"""The census of settable values: every init field of a public dataclass and
every parameter of a public function or method in the package.

Each settable value must do something, so the count only moves when a
change adds or deletes one on purpose; the pinned total makes that move
explicit.  Beside it, every public name of the package must have a caller
outside the tests, and is stated once, in its module: the package itself
re-exports none.
"""

import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from collections import Counter

import clonesim
from clonesim import angular, cli, copying, emission, errors, experiments, hilbert

from test_golden import REPO_ROOT

MODULES = (angular, cli, copying, emission, errors, experiments, hilbert)

#: The census total; change it only with the change that adds or deletes a value.
SETTABLE_VALUES = 72


def _parameters(function) -> list[str]:
    """The parameters of ``function`` (through any ``functools`` wrapper), bar ``self`` and ``cls``."""
    return [name for name in inspect.signature(function).parameters if name not in ("self", "cls")]


def census() -> dict[str, int]:
    counts = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = f"{module.__name__}.{name}"
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    counts[qualified] = sum(f.init for f in dataclasses.fields(obj))
                for method_name, method in vars(obj).items():
                    function = method.__func__ if isinstance(method, (classmethod, staticmethod)) else method
                    if not method_name.startswith("_") and inspect.isfunction(function):
                        counts[f"{qualified}.{method_name}"] = len(_parameters(function))
            elif callable(obj):
                counts[qualified] = len(_parameters(obj))
    return counts


def test_census_is_pinned():
    counts = census()
    assert sum(counts.values()) == SETTABLE_VALUES, counts


def test_census_sees_wrapped_functions_and_methods():
    counts = census()
    assert counts["clonesim.angular.dipole_angular_factors"] == 4  # functools.cache
    assert counts["clonesim.emission.AtomicSystem"] == 3  # amplitudes and allowed are derived
    assert counts["clonesim.copying.CopyBasis.computational"] == 1  # classmethod, cls excluded; its cache is private


LIBRARY_FILES = sorted(path for path in (REPO_ROOT / "src" / "clonesim").glob("*.py") if path.name != "__init__.py")
CALLER_FILES = sorted([*(REPO_ROOT / "perfbench").glob("*.py"), *(REPO_ROOT / "scripts").glob("*.py")])


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def _public_definitions(tree: ast.Module):
    """The node of each public top-level function and class, and of each
    public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (child for child in node.body
                            if isinstance(child, ast.FunctionDef) and not child.name.startswith("_"))


def uncalled_public_names() -> list[str]:
    """The public names that appear, as a whole word, neither in the library
    outside their own definition nor anywhere in ``perfbench`` or
    ``scripts``, whose string bindings of traced names do count.

    A word match over-counts: a short name such as ``dim`` or ``j`` also
    matches unrelated words, so it always counts as used.
    """
    sources = {path: path.read_text(encoding="utf-8") for path in LIBRARY_FILES}
    library = sum((_words(text) for text in sources.values()), Counter())
    callers = sum((_words(path.read_text(encoding="utf-8")) for path in CALLER_FILES), Counter())
    uncalled = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in _public_definitions(ast.parse(text)):
            first = min([node.lineno, *(decorator.lineno for decorator in node.decorator_list)])
            own = _words("\n".join(lines[first - 1:node.end_lineno]))[node.name]
            if library[node.name] == own and not callers[node.name]:
                uncalled.append(node.name)
    return sorted(uncalled)


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_the_package_binds_only_its_submodules():
    bound = {name: value for name, value in vars(clonesim).items() if not name.startswith("_")}
    assert [name for name, value in bound.items()
            if not (inspect.ismodule(value) and value.__name__ == f"clonesim.{name}")] == []
    assert isinstance(clonesim.__version__, str)


def test_importing_the_package_loads_none_of_its_modules():
    """Importing one module loads only what that module imports."""
    code = (f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'src')!r}); import clonesim; "
            "print(clonesim.__file__); print(sorted(name for name in sys.modules "
            "if name.startswith('clonesim.') or name.partition('.')[0] == 'numpy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [str(REPO_ROOT / "src" / "clonesim" / "__init__.py"), "[]"]
