"""perfbench's tracer finds the measure methods it wraps in each class's own namespace.

`perfbench/tracing.py:install` wraps `vars(cls)["cylinder"]`,
`vars(cls)["block_distribution"]` and, for a sampled kind, `vars(cls)["sample"]`
of each class in `MEASURE_CLASSES`. A method that a class only inherits is
missing there, and a traced benchmark run dies with a KeyError; the
perfbench checks are not part of the tier-1 suite, so this guard is.

`install` also rebinds each `(module, function)` of its `FUNCTIONS` by
object identity, and raises "no binding ... to trace" when it finds none.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ergolab import shifts

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constants(*names):
    """The literal values of module-level assignments in perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text())
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    }
    return [found[name] for name in names]


MEASURE_CLASSES, SAMPLED_KINDS = _constants("MEASURE_CLASSES", "SAMPLED_KINDS")


@pytest.mark.parametrize("name", MEASURE_CLASSES)
def test_each_traced_class_names_its_methods_in_its_own_body(name):
    cls = getattr(shifts, name)
    own = vars(cls)
    assert "cylinder" in own and "block_distribution" in own, name
    if cls.kind in SAMPLED_KINDS:
        assert "sample" in own, name


def test_every_measure_kind_is_traced():
    # a class that sets its own kind is a concrete measure kind
    kinds = {
        name
        for name, cls in vars(shifts).items()
        if inspect.isclass(cls) and issubclass(cls, shifts.ShiftMeasure)
        and vars(cls).get("kind", shifts.ShiftMeasure.kind) != shifts.ShiftMeasure.kind
    }
    assert kinds == set(MEASURE_CLASSES)


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_each_traced_function_is_bound_in_its_module():
    functions = _tracing_module().FUNCTIONS
    for mod, func, _ in functions:
        module = importlib.import_module(f"ergolab.{mod}")
        assert callable(vars(module).get(func)), f"ergolab.{mod}.{func}"
    acceptance = importlib.import_module("ergolab.acceptance")
    traced = {func for mod, func, _ in functions if mod == "acceptance"}
    assert traced == {f"criterion_{n}" for n in range(1, 10)}
    for n in range(1, 10):
        # the tracer rebinds CRITERIA[n] only when it is the module's criterion_n
        assert vars(acceptance)[f"criterion_{n}"] is acceptance.CRITERIA[n], n
