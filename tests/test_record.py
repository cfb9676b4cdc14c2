"""`Record` keeps the dataclass behaviour its callers rely on, and no dataclass comes back."""

import ast
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from ergolab.circle import CircleSystem
from ergolab.ergodicity import ErgodicityVerdict
from ergolab.groups import cyclic
from ergolab.record import FrozenRecordError, Record, factory, replace
from ergolab.scenarios import Kind, Row, Scenario, ScenarioResult
from ergolab.shifts import Bernoulli, BlockTable, ShiftSystem

SRC = Path(__file__).resolve().parent.parent / "src" / "ergolab"


class Point(Record):
    x: int
    y: int = 0


class Point3(Point):
    z: int = 5


class Logged(Record):
    a: int
    b: int = 2

    def __post_init__(self):
        object.__setattr__(self, "seen", (self.a, self.b))


class Annotated:
    note: str = "a base outside Record declares no field"


class Squared(Annotated, Record):
    n: int

    @cached_property
    def square(self) -> int:
        return self.n**2


def test_fields_come_from_record_bases_then_own_annotations():
    assert Point3._fields == ("x", "y", "z")
    assert Squared._fields == ("n",)
    assert Bernoulli._fields == ("system", "marginal")  # ShiftMeasure declares system, kind


def test_construction_by_position_by_name_and_with_defaults():
    assert (Point(1, 2).x, Point(1, 2).y) == (1, 2)
    assert Point(y=3, x=1) == Point(1, 3) == Point(1, y=3)
    assert Point(1).y == 0
    assert (Point3(1).y, Point3(1).z) == (0, 5)
    assert Point3(1, z=7) == Point3(1, 0, 7)
    assert ErgodicityVerdict("ergodic", "exact_bernoulli").witness is None


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing field 'x'"),
    ((1,), {"y": 2, "w": 3}, r"got \['w'\] besides"),
    ((1, 2, 3), {}, "got 3 by position"),
    ((1,), {"x": 2}, r"got \['x'\] besides"),
])
def test_a_missing_extra_or_repeated_field_raises(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_post_init_runs_after_every_field_is_set():
    assert Logged(1).seen == (1, 2)
    assert Logged(b=5, a=1).seen == (1, 5)
    assert replace(Logged(1), b=7).seen == (1, 7)
    with pytest.raises(ValueError, match="bad sidedness"):
        ShiftSystem(cyclic(2), "sideways")


def test_a_frozen_record_refuses_assignment_but_not_object_setattr_or_cached_property():
    p = Point(1, 2)
    with pytest.raises(FrozenRecordError):
        p.x = 3
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(AttributeError):
        p.other = 0
    object.__setattr__(p, "_cache", 4)
    assert p._cache == 4 and p == Point(1, 2)
    s = Squared(3)
    assert s.square == 9 and vars(s)["square"] == 9


def test_equality_and_hash_go_by_class_and_field_tuple():
    assert Point(1, 2) == Point(1, 2) and hash(Point(1, 2)) == hash((1, 2))
    assert Point(1, 2) != Point(1, 3)
    nan = Point(float("nan"))
    assert nan == nan and nan != Point(float("nan"))  # a field tuple equals itself, NaN or not
    assert Point(1, 0).__eq__(Point3(1, 0)) is NotImplemented
    assert Point(1, 0).__eq__((1, 0)) is NotImplemented
    assert Point(1, 0) != Point3(1, 0)
    assert hash(CircleSystem(3)) == hash((3,))  # one field: still a tuple, as a dataclass hashes
    assert len({ShiftSystem(cyclic(2)), ShiftSystem(cyclic(2)), ShiftSystem(cyclic(3))}) == 2


def test_block_table_keeps_its_own_exact_equality():
    codes, nums = np.arange(2), np.array([1, 3])
    a, b = BlockTable(2, 1, codes, nums, 4), BlockTable(2, 1, codes, nums * 7, 28)
    assert BlockTable.__eq__ is not Record.__eq__
    assert a == b and a != BlockTable(2, 1, codes, np.array([3, 1]), 4)
    assert BlockTable.__hash__ is None


def test_a_record_holding_a_list_is_unhashable():
    res = ScenarioResult(Scenario("s", "k", {}), "t", [], {}, {}, 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(res)


def test_defaults_from_a_factory_are_not_shared():
    first, second = Kind(run=print, theorem="t"), Kind(run=print, theorem="t")
    first.tolerances["x"] = 1.0
    assert second.tolerances == {} and Scenario("s", "k", {}).tolerances == {}


def test_repr_names_every_field():
    row = Row("q", 1.0, 0.0, 2.0, 0.0, True)
    assert repr(row) == ("Row(quantity='q', value=1.0, lower=0.0, upper=2.0, tolerance=0.0, "
                         "passed=True)")
    assert repr(Point3(1)) == "Point3(x=1, y=0, z=5)"


def test_replace_changes_the_named_fields_only():
    assert replace(Point3(1, 2, 3), y=9) == Point3(1, 9, 3)
    assert replace(Point(1, 2)) == Point(1, 2)
    with pytest.raises(TypeError, match="takes the fields"):
        replace(Point(1), w=2)


def test_no_module_uses_dataclasses():
    # a dataclass costs an exec per generated method at import, about 1.3 ms a class
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{path.name}: from dataclasses import ...")
            elif isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if "dataclass" in ast.unparse(target):
                        found.append(f"{path.name}: @{ast.unparse(target)} on {node.name}")
    assert found == []
