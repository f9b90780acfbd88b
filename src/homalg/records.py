"""Plain record classes.

A record states its fields once, as `__slots__` and `_fields`, and writes
its own `__init__`.  `Record` derives repr, == and copying from `_fields`:
the repr is `Name(field=value, ...)`, two records are equal when they are of
the same class and their fields are equal, and a copy is built by `__init__`
from the field values.  A mutable record is unhashable.  A `FrozenRecord`
hashes its fields and refuses assignment with AttributeError; its `__init__`
sets fields with `object.__setattr__`.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
