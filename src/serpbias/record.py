"""The frozen base of the package's record types.

A record's fields are its annotated class attributes, in declaration order,
and `_fields` names them; a field's class-attribute value, when it has one,
is its default. For each record type this module writes `_fill(self,
<fields>)`, which stores each argument in the instance dict. A type that only
holds fields takes `_fill` as its `__init__`; define `__init__` only to check
or transform the arguments, and end it with `self._fill(...)`. `_new(*values)`
builds an instance from values its caller has already checked, without the
type's `__init__`. A subclass's fields are its parent's followed by its
own; a field it declares again keeps its place and takes the new default,
as in a dataclass. A subclass that declares no fields keeps its parent's
fields, `__init__` and checks; one that declares fields on a type whose
`__init__` checks must define its own `__init__`, or class creation raises
TypeError.

After construction a record refuses every assignment and deletion. Equality,
hashing and repr read the fields in order, as a frozen dataclass's do, so two
records are equal when they are of the same type and their fields are.
Copying and pickling go through the instance dict, like any plain object's.
"""

from __future__ import annotations

import os
from operator import attrgetter


class Record:
    _fields = ()  # not annotated: the annotations of a record are its fields

    def __init_subclass__(cls):
        annotated = cls.__dict__.get("__annotations__", ())
        if not annotated:  # a subclass that declares no fields keeps its parent's
            return
        inherited = cls._fields
        fields = cls._fields = (*inherited, *(f for f in annotated if f not in inherited))
        name = "_fill" if "__init__" in cls.__dict__ else "__init__"
        # An inherited __init__ that is not a generated one checks its
        # arguments, and a generated __init__ would skip those checks.
        generated = (object.__init__, getattr(cls, "_fill", None))
        if name == "__init__" and cls.__init__ not in generated:
            raise TypeError(
                f"{cls.__qualname__} declares fields but would skip the checks of "
                f"{cls.__init__.__qualname__}: define {cls.__qualname__}.__init__ "
                f"to check its arguments, and end it with self._fill(...)"
            )
        # The tuple of a record's field values is _key(record).
        get = attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        # Straight-line code, one dict item per field: faster than a loop over
        # the fields or dict.update on a new instance's dict, and parsing builds
        # one RankedList per record.
        bases = cls.__mro__[: cls.__mro__.index(Record)]
        params = [f"{f}=_cls.{f}" if any(f in b.__dict__ for b in bases) else f for f in fields]
        required = [p for p in params if "=" not in p]
        if required and params.index(required[-1]) >= len(required):
            raise TypeError(f"field {required[-1]!r} without a default follows one with a default")
        lines = [f"def {name}(self, {', '.join(params)}):", "    _store = self.__dict__"]
        lines += [f"    _store[{f!r}] = {f}" for f in fields]
        # The code's filename names the type and no existing file, so a
        # profile or traceback line points at the type, and no source line is
        # quoted for it.
        filename = os.path.join(os.path.dirname(__file__), f"<record {cls.__qualname__}>")
        namespace = {"_cls": cls}
        exec(compile("\n".join(lines), filename, "exec"), namespace)
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
