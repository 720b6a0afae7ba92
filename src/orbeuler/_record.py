"""Frozen value records, built without :mod:`dataclasses`.

Importing ``dataclasses`` loads ``inspect`` and costs a CLI process about
10 ms, and each frozen dataclass about another millisecond of generated
code, before any work is done.  :func:`record` gives a class the methods a
frozen dataclass had, generated with one ``exec`` per class.

A record keeps its fields in ``__slots__`` and has no per-instance
``__dict__``, which a batch or a pair would pay for once per record: on
CPython 3.11 an ``EulerValue`` takes 57 bytes instead of 161.  So ``vars()``
and weak references do not apply to a record, and it pickles by the tuple
of its field values.
"""

from __future__ import annotations


def record(cls=None, *, kw_only=False):
    """Make ``cls`` a frozen record over its annotated fields.

    The fields are a record base's, then the class's own annotations in
    order; a field's default is the value the class body gives it, or the
    record base's default, and ``kw_only`` makes the class's own fields
    keyword-only.  The class is rebuilt with ``__slots__`` of its own fields,
    so the returned class is a new object.  As with
    ``@dataclass(frozen=True)`` it gets an ``__init__`` that stores the
    fields and then calls ``self.__post_init__()`` if the class has one;
    ``__eq__`` and ``__hash__`` over the field values, equal only within one
    class; the ``Cls(f=v, ...)`` ``__repr__``; ``__match_args__`` of the
    positional fields; and ``__setattr__`` and ``__delattr__`` that raise
    :class:`AttributeError`.  ``__post_init__`` replaces a normalised field
    with ``self._set[name](self, value)``: ``_set`` maps each field to the
    setter of its slot.  ``__getstate__`` and ``__setstate__`` pickle an
    instance as the tuple of its field values.
    """
    if cls is None:
        return lambda cls: record(cls, kw_only=kw_only)
    namespace = dict(cls.__dict__)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    own = tuple(namespace.get("__annotations__", ()))
    fields = getattr(cls, "_fields", ()) + own
    positional = getattr(cls, "__match_args__", ()) + (() if kw_only else own)
    keyword = [name for name in fields if name not in positional]
    # A base's field is a slot descriptor on the class, not a default, so
    # defaults come only from the class body and the record base's own.
    defaults = dict(getattr(cls, "_defaults", {}))
    defaults.update((name, namespace.pop(name)) for name in own if name in namespace)
    namespace.update(
        __slots__=own,
        __qualname__=cls.__qualname__,
        _fields=fields,
        _defaults=defaults,
        __match_args__=positional,
        __repr__=_repr,
        __setattr__=_refuse_assignment,
        __delattr__=_refuse_deletion,
    )
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    setters = {name: getattr(cls, name).__set__ for name in fields}

    def param(name):
        return f"{name}=_defaults[{name!r}]" if name in defaults else name

    params = ["self", *map(param, positional), *(["*", *map(param, keyword)] if keyword else [])]
    values, others = ("".join(f"{side}.{name}, " for name in fields) for side in ("self", "other"))
    stores = [f"    _set_{name}(self, {name})" for name in fields]
    source = "\n".join(
        [
            f"def __init__({', '.join(params)}):",
            *stores,
            "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({values}) == ({others})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({values}))",
            "def __getstate__(self):",
            f"    return ({values})",
            "def __setstate__(self, state):",
            f"    {''.join(f'{name}, ' for name in fields)}= state",
            *stores,
        ]
    )
    scope = {"_defaults": defaults, **{f"_set_{name}": setter for name, setter in setters.items()}}
    exec(source, scope)
    for name in ("__init__", "__eq__", "__hash__", "__getstate__", "__setstate__"):
        method = scope[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls._set = setters
    return cls


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
