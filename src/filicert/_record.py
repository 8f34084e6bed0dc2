"""Record bases: field-wise ==, hash and repr with no generated code.

A record's fields are the positional parameters of its ``__init__``, in
order.  The bases stand in for ``dataclasses``, whose per-class code
generation took about 8 ms of a cold ``import filicert`` (CPython 3.11).
"""


class Record:
    """Field-wise == within one class, and repr; unhashable, as it defines == alone."""

    def _items(self) -> tuple:
        code = type(self).__init__.__code__
        return tuple((name, getattr(self, name)) for name in code.co_varnames[1:code.co_argcount])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record hashed by its fields whose attributes cannot be set or
    deleted, like a frozen dataclass: its ``__init__`` and its
    ``cached_property`` caches write to ``__dict__``."""

    def __hash__(self):
        return hash(tuple(value for _, value in self._items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
