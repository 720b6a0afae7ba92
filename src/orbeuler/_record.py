"""Frozen value records, built without :mod:`dataclasses`.

Importing ``dataclasses`` loads ``inspect`` and costs a CLI process about
10 ms, and each frozen dataclass about another millisecond of generated
code, before any work is done.  :func:`record` gives a class the methods a
frozen dataclass had, generated with one ``exec`` per class.
"""

from __future__ import annotations


def record(cls=None, *, kw_only=False):
    """Make ``cls`` a frozen record over its annotated fields.

    The fields are a record base's, then the class's own annotations in
    order; a field's default is its class attribute, and ``kw_only`` makes
    the class's own fields keyword-only.  As with ``@dataclass(frozen=True)``
    the class gets an ``__init__`` that stores the fields and then calls
    ``self.__post_init__()`` if the class has one, which may replace a field
    through ``self.__dict__``; ``__eq__`` and ``__hash__`` over the
    field values, equal only within one class; the ``Cls(f=v, ...)``
    ``__repr__``; ``__match_args__`` of the positional fields; and
    ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`.
    Instances pickle by their ``__dict__``.
    """
    if cls is None:
        return lambda cls: record(cls, kw_only=kw_only)
    own = tuple(cls.__dict__.get("__annotations__", ()))
    fields = getattr(cls, "_fields", ()) + own
    positional = getattr(cls, "__match_args__", ()) + (() if kw_only else own)
    keyword = [name for name in fields if name not in positional]
    defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}

    def param(name):
        return f"{name}=_defaults[{name!r}]" if name in defaults else name

    params = ["self", *map(param, positional), *(["*", *map(param, keyword)] if keyword else [])]
    values, others = ("".join(f"{side}.{name}, " for name in fields) for side in ("self", "other"))
    source = "\n".join(
        [
            f"def __init__({', '.join(params)}):",
            "    self_dict = self.__dict__",
            *(f"    self_dict[{name!r}] = {name}" for name in fields),
            "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({values}) == ({others})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({values}))",
        ]
    )
    namespace = {"_defaults": defaults}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls._fields = fields
    cls.__match_args__ = positional
    cls.__repr__ = _repr
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
