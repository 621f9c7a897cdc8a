"""Immutable records that must not equal tuples.

``Record`` gives ``Solution``, ``PAutomaton`` and ``ICFG`` what a frozen
dataclass would, without generating code: equality only within one
class, a hash over the compared fields, a ``Name(field=value)`` repr,
``AttributeError`` on assignment and pickling through the constructor.
A subclass names its constructor fields in ``_fields``, lists its slots
and sets them in ``__init__``.
"""

class Record:
    __slots__ = ()
    _fields: tuple = ()  # constructor order, as the repr lists them

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields

    def _assign(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        """The values equality and the hash read."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
