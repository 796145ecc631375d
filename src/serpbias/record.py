"""The frozen base of the package's record types.

A record type subclasses Record directly, and no class may subclass a record
type: a type with more fields is a new record type. A record's fields are the
annotated attributes of its class body, in declaration order, and `_fields`
names them; a field's class-attribute value, when it has one, is its default.
For each record type this module writes `_fill(self, <fields>)`, which stores
each argument in the instance dict. A type that only holds fields takes
`_fill` as its `__init__`; define `__init__` only to check or transform the
arguments, and end it with `self._fill(...)`. It also writes `_new(<fields>)`,
a plain function called on the type, which builds an instance from values
its caller has already checked, without the type's `__init__`.

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
        for base in cls.__bases__:
            if base is not Record and issubclass(base, Record):
                raise TypeError(
                    f"{cls.__qualname__} subclasses the record type {base.__qualname__}: "
                    f"a type with more fields is a new record type"
                )
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # The tuple of a record's field values is _key(record).
        get = attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        # Straight-line code, one dict item per field: faster than a loop over
        # the fields or dict.update on a new instance's dict, and parsing builds
        # one RankedList per record. _new holds the same lines, so building a
        # record from checked values is one Python call.
        params = [f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields]
        required = [p for p in params if "=" not in p]
        if required and params.index(required[-1]) >= len(required):
            raise TypeError(f"field {required[-1]!r} without a default follows one with a default")
        name = "_fill" if "__init__" in cls.__dict__ else "__init__"
        store = [f"    _store[{f!r}] = {f}" for f in fields]
        lines = [f"def {name}(self, {', '.join(params)}):", "    _store = self.__dict__", *store]
        lines += [f"def _new({', '.join(params)}):", "    self = object.__new__(_cls)"]
        lines += ["    _store = self.__dict__", *store, "    return self"]
        # The code's filename names the type and no existing file, so a
        # profile or traceback line points at the type, and no source line is
        # quoted for it.
        filename = os.path.join(os.path.dirname(__file__), f"<record {cls.__qualname__}>")
        namespace = {"_cls": cls}
        exec(compile("\n".join(lines), filename, "exec"), namespace)
        for generated in (name, "_new"):
            function = namespace[generated]
            function.__qualname__ = f"{cls.__qualname__}.{generated}"
            function.__module__ = cls.__module__
            setattr(cls, generated, function)
        cls._fill = namespace[name]  # also the __init__ of a type that defines none

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
