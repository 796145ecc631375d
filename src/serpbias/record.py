"""The frozen base of the package's record types.

A record's fields are its annotated class attributes, in declaration order,
and `_fields` names them; a field's class-attribute value, when it has one,
is its default. For each record type this module writes `_fill(self,
<fields>)`, which stores each argument in the instance dict. A type that only
holds fields takes `_fill` as its `__init__`; define `__init__` only to check
or transform the arguments, and end it with `self._fill(...)`. `_new(*values)`
builds an instance from values its caller has already checked, without the
type's `__init__`. A subclass that declares no fields keeps its parent's
fields, `__init__` and checks.

After construction a record refuses every assignment and deletion. Equality,
hashing and repr read the fields in order, as a frozen dataclass's do, so two
records are equal when they are of the same type and their fields are.
Copying and pickling go through the instance dict, like any plain object's.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields = ()  # not annotated: the annotations of a record are its fields

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:  # a subclass that declares no fields keeps its parent's
            return
        cls._fields = fields
        # The tuple of a record's field values is _key(record): every record
        # type has two or more fields, so attrgetter returns a tuple.
        cls._key = staticmethod(attrgetter(*fields))
        # Straight-line code, one dict item per field: faster than a loop over
        # the fields or dict.update on a new instance's dict, and parsing builds
        # one RankedList per record. Python itself rejects a field without a
        # default after one with a default.
        name = "_fill" if "__init__" in cls.__dict__ else "__init__"
        params = [f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields]
        lines = [f"def {name}(self, {', '.join(params)}):", "    _store = self.__dict__"]
        lines += [f"    _store[{f!r}] = {f}" for f in fields]
        namespace = {"_cls": cls}
        exec("\n".join(lines), namespace)
        fill = cls._fill = namespace[name]
        fill.__qualname__ = f"{cls.__qualname__}.{name}"
        fill.__module__ = cls.__module__
        if name == "__init__":
            cls.__init__ = fill

    @classmethod
    def _new(cls, *values):
        """A cls holding values, which the caller has checked as cls.__init__ would."""
        record = object.__new__(cls)
        record._fill(*values)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        pairs = zip(self._fields, self._key(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"
