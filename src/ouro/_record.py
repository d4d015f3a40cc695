"""Immutable value records: ouro's value types and expression nodes.

A subclass of Record lists its fields as class annotations; they follow the
fields of its bases, in order, and a class attribute of the same name is a
field's default.  Every method is shared and generic, so declaring a record
builds no code, and importing this module loads nothing but `operator`.

    class Point(Record):
        x: float
        y: float = 0.0

    Point(1.0) == Point(x=1.0, y=0.0)   # True
    Point(1.0)                          # Point(x=1.0, y=0.0)

Instances keep their fields in the instance __dict__.  Assignment and
deletion raise AttributeError; __post_init__, when a class defines it, runs
after the fields are bound and may normalise a field or set a derived
attribute through object.__setattr__ or self.__dict__.  Two records are
equal when they are of the same class and _key() (every field, in order)
is equal; hash is the hash of _key(), so a record holding a dict is
unhashable.
"""

from __future__ import annotations

from operator import index

__all__ = ["Record", "integer", "real"]

_MISSING = object()


def integer(name: str, value) -> int:
    """value as an int, by operator.index.  A bool, a float, a string or
    anything else without __index__ raises ValueError, its message starting
    with `name`."""
    if value.__class__ is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def real(name: str, value) -> float:
    """value as a plain float, by float().  A bool, a string, bytes or
    anything float() refuses raises ValueError, its message starting with
    `name`."""
    if not isinstance(value, (bool, str, bytes, bytearray)):
        try:
            return float(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


class Record:
    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # per field: its default, or _MISSING

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = tuple(dict.fromkeys(cls._fields + own))
        cls._defaults = tuple(getattr(cls, name, _MISSING)
                              for name in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict):
        """Every field's value, in order, from a call that does not pass
        exactly one positional argument per field."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = args + cls._defaults[len(args):]
        if kwargs:
            values = list(values)
            for name, value in kwargs.items():
                if name not in fields:
                    raise TypeError(f"{cls.__name__}() got an unexpected "
                                    f"argument {name!r}")
                i = fields.index(name)
                if i < len(args):
                    raise TypeError(f"{cls.__name__}() got multiple values "
                                    f"for argument {name!r}")
                values[i] = value
        for name, value in zip(fields, values):
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing required "
                                f"argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _asdict(self) -> dict:
        """The fields by name; the values themselves, not copies."""
        return {name: self.__dict__[name] for name in self._fields}
