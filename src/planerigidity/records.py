"""Record types without generated code.

`Record` gives a class the equality and repr that `dataclasses` would
generate for the fields named in its `_fields`, and `FrozenRecord` adds
the hash and refuses assignment, as a frozen dataclass does.  The methods
are written once here and read the fields by name, so defining a record
type costs what defining any class costs: `dataclasses` compiles an
`__init__`, `__eq__`, `__repr__` and `__hash__` for each class when its
module is imported, and imports `inspect` to do so.  Each record writes its
own `__init__`.

A frozen record's `__init__` stores its fields in the instance `__dict__`
directly, past the refusing `__setattr__`.  `functools.cached_property`
writes there too, so a cached fact is not a field: it takes no part in
==, hash or repr.
"""

from __future__ import annotations


class Record:
    """Equal to an instance of the same class with equal fields; the repr
    is `Name(field=value, ...)`.  Unhashable, as a mutable dataclass is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned or deleted; it hashes as
    the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
