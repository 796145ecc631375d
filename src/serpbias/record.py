"""The frozen base of the package's record types.

A record's fields are its annotated class attributes, in declaration order,
and `_fields` names them. Each subclass's `__init__` checks its arguments and
fills the instance dict directly; after that the instance refuses every
assignment and deletion. Equality, hashing and repr read the fields in order,
as a frozen dataclass's do, so two records are equal when they are of the
same type and their fields are. Copying and pickling go through the instance
dict, like any plain object's.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields = ()  # not annotated: the annotations of a record are its fields

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # The tuple of a record's field values is _key(record): every record
        # type has two or more fields, so attrgetter returns a tuple.
        cls._key = staticmethod(attrgetter(*cls._fields))

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
