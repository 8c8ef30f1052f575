"""Immutable records: what `dataclass(frozen=True)` gives, built without
compiling code.

`dataclass` writes `__init__`, `__repr__`, `__eq__`, `__hash__`,
`__setattr__` and `__delattr__` of every class as source text and compiles
each one when the class is created.  On a 2-vCPU Xeon with Python 3.11
that is about 1 ms a class, and with the import of `inspect` that
`dataclasses` brings, a quarter of the time `import toricmmp.cli` takes;
every CLI command is a process of its own and pays it again.  `record`
assembles the same methods from closures over the field names, so
creating a class compiles nothing.
"""

from operator import attrgetter

_MISSING = object()


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in order.

    Like `dataclass(frozen=True)`: `__init__` takes the fields positionally
    or by keyword (a class attribute is the default), then calls
    `__post_init__` if the class has one; instances compare equal when they
    are of the same class with equal fields, hash as the tuple of their
    fields and repr as `Name(field=value, ...)`; assigning or deleting an
    attribute raises AttributeError (`object.__setattr__` in
    `__post_init__` still works).
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    n_fields = len(names)
    object_setattr = object.__setattr__
    # the field tuple; with one field, attrgetter gives the bare value
    fields = attrgetter(*names)
    one_field = n_fields == 1

    def bind(args, kwargs):
        """The field values in order: positional, keyword, default."""
        if len(args) > n_fields:
            raise TypeError(f"{cls.__name__}() takes {n_fields} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if len(args) != n_fields or kwargs:
            args = bind(args, kwargs)
        # attribute by attribute, as dataclass does: writing through
        # self.__dict__ would turn the instance's compact attribute storage
        # into a plain dict and slow every later attribute read
        for name, value in zip(names, args):
            object_setattr(self, name, value)
        if post_init is not None:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash((fields(self),) if one_field else fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
