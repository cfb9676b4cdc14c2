"""Immutable records whose methods are written once, not generated per class.

A `Record` subclass's fields are its record bases' fields, then the names in
its own annotations; a class attribute of a field's name is its default, and
`factory(make)` makes one afresh per record. A record is built by position or
by name, then runs `__post_init__`; it refuses assignment and deletion,
compares and hashes by class and field tuple, and prints as
`X(field=value, ...)`, unless the class defines its own `__eq__` or
`__repr__`. A `@dataclass` costs an `exec` per generated method at import; a
record class costs none.
"""

from operator import attrgetter

_MISSING = object()
_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


class factory:
    """A field default made afresh for each record by `make()`, as `factory(dict)`."""

    def __init__(self, make):
        self.make = make


class Record:
    """The base of every record class; the module docstring says what it provides."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}  # name -> default; a base outside Record declares no field
        for klass in reversed(cls.__mro__):
            if issubclass(klass, Record):
                for name in vars(klass).get("__annotations__", ()):
                    fields[name] = vars(klass).get(name, _MISSING)
        cls._fields = names = tuple(fields)
        cls._defaults = fields
        # the field tuple, as attrgetter gives it for two or more fields
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1 else
                                lambda r: tuple(getattr(r, name) for name in names))
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}; "
                            f"got {len(args)} by position")
        for name, value in zip(cls._fields, args):
            _setattr(self, name, value)  # as a frozen dataclass sets them
        for name in cls._fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            else:
                value = cls._defaults[name]
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                if isinstance(value, factory):
                    value = value.make()
            _setattr(self, name, value)
        if kwargs:  # a name that is no field, or one already given by position
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}; "
                            f"got {sorted(kwargs)} besides")
        if cls._post_init is not None:
            cls._post_init(self)

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:  # as the field tuples compare: each field is itself
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A record of the same class with the given fields changed; `__post_init__` runs again."""
    return record.__class__(**{**{n: getattr(record, n) for n in record._fields}, **changes})
