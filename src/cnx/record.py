"""Immutable records: the frozen value classes of cnx, without generated code.

A subclass of Record declares its fields as annotations, in order after the
fields it inherits; a class attribute of a field's name is its default.
Instances are frozen, compare equal when they are of the same class and
their fields are equal, hash as the tuple of their fields, and print as
`Cls(field=value, ...)`.  `__post_init__`, when a class defines it, runs
after the fields are set.  `__init_subclass__` records the fields once;
every method is shared by all records.  Formulas (cnx.syntax.Formula) are
records built through an intern table instead, so for them equality is
identity.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__
_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _no_fields(record) -> tuple:
    return ()


def _given(*values) -> tuple:
    return tuple(v for v in values if v is not _MISSING)


def field_values(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of the call cls(*args, **kwargs), in field order, or
    the TypeError that a frozen dataclass's generated __init__ raises."""
    fields = cls.__match_args__
    if len(args) > len(fields):
        n = len(fields)
        raise TypeError(f"{cls.__name__}() takes {n} positional argument{'s' * (n != 1)} "
                        f"but {len(args)} {'was' if len(args) == 1 else 'were'} given")
    for name in fields[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    args = [*args]
    for name in fields[len(args):]:
        value = kwargs.pop(name, cls._defaults.get(name, _MISSING))
        if value is _MISSING:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        args.append(value)
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected argument {[*kwargs][0]!r}")
    return tuple(args)


def _init(self, *args, **kwargs):
    cls = type(self)
    fields = cls.__match_args__
    if kwargs or len(args) != len(fields):
        args = field_values(cls, args, kwargs)
    for name, value in zip(fields, args):
        _set(self, name, value)
    if cls._post_init:
        self.__post_init__()


# the same for two positional arguments, the common call, without the
# packing of *args; any other call goes to _init, which checks it
def _init2(self, a=_MISSING, b=_MISSING, /, *more, **kwargs):
    if kwargs or more or b is _MISSING:
        return _init(self, *_given(a, b), *more, **kwargs)
    cls = type(self)
    first, second = cls.__match_args__
    _set(self, first, a)
    _set(self, second, b)
    if cls._post_init:
        self.__post_init__()


class Record:
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__
        fields += tuple(n for n in cls.__dict__.get("__annotations__", ()) if n not in fields)
        cls.__match_args__ = fields
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        cls._post_init = hasattr(cls, "__post_init__")
        # the fields as a tuple; a lone field bare, which __hash__ wraps
        cls._key = attrgetter(*fields) if fields else staticmethod(_no_fields)
        cls.__init__ = _init2 if len(fields) == 2 else _init

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        key = cls._key
        return key(self) == key(other)

    def __hash__(self):
        cls = type(self)
        key = cls._key(self)
        return hash((key,) if len(cls.__match_args__) == 1 else key)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
