"""The census of settable values: every init field of a public dataclass and
every parameter of a public function or method in the package.

Each settable value must do something, so the count only moves when a
change adds or deletes one on purpose; the pinned total makes that move
explicit.
"""

import dataclasses
import inspect

from clonesim import angular, cli, copying, emission, errors, experiments, hilbert

MODULES = (angular, cli, copying, emission, errors, experiments, hilbert)

#: The census total; change it only with the change that adds or deletes a value.
SETTABLE_VALUES = 93


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
    assert counts["clonesim.hilbert.OperatorMatrix.hermitian_from_nonzeros"] == 4  # classmethod, cls excluded
    assert counts["clonesim.emission.AtomicSystem"] == 3  # amplitudes and allowed are derived
