"""Frozen value records, built without :mod:`dataclasses`.

Importing ``dataclasses`` loads ``inspect`` and costs a CLI process about
10 ms, and each frozen dataclass about another millisecond of generated
code, before any work is done.  :func:`record` gives a class the methods a
frozen dataclass had.  Only ``__init__`` is generated, with one ``exec`` per
class; equality, hashing and pickling are shared functions that read the
fields through the class's :func:`operator.attrgetter`.

A record keeps its fields in ``__slots__`` and has no per-instance
``__dict__``, which a batch or a pair would pay for once per record: on
CPython 3.11 an ``EulerValue`` takes 57 bytes instead of 161.  So ``vars()``
and weak references do not apply to a record, and it pickles by the tuple
of its field values.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls=None, *, kw_only=False):
    """Make ``cls`` a frozen record over its annotated fields.

    The fields are a record base's, then the class's own annotations in
    order; a field's default is the value the class body gives it, or the
    record base's default, and ``kw_only`` makes the class's own fields
    keyword-only.  The class is rebuilt with ``__slots__`` of its own fields,
    so the returned class is a new object.  As with
    ``@dataclass(frozen=True)`` it gets ``__eq__`` and ``__hash__`` over the
    field values, equal only within one class; the ``Cls(f=v, ...)``
    ``__repr__``; ``__match_args__`` of the positional fields; and
    ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`.
    Its generated ``__init__`` stores each field once, and only unpickling
    writes the slots otherwise.  A class that checks its fields defines
    ``_check``, a plain function of the fields in order that raises on a bad
    value and returns the tuple of values to store: the decorator takes it
    out of the class, and ``__init__`` calls it first.
    """
    if cls is None:
        return lambda cls: record(cls, kw_only=kw_only)
    namespace = dict(cls.__dict__)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    check = namespace.pop("_check", None)
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
        # One field gives a bare value; eq and hash only compare it, and
        # __getstate__ wraps it so that pickle always gets a tuple.
        _values=attrgetter(*fields),
        __match_args__=positional,
        __repr__=_repr,
        __eq__=_eq,
        __hash__=_hash,
        __getstate__=_getstate,
        __setstate__=_setstate,
        __setattr__=_refuse_assignment,
        __delattr__=_refuse_deletion,
    )
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)

    def param(name):
        return f"{name}=_defaults[{name!r}]" if name in defaults else name

    params = ["self", *map(param, positional), *(["*", *map(param, keyword)] if keyword else [])]
    source = "\n".join(
        [
            f"def __init__({', '.join(params)}):",
            f"    {', '.join(fields)}, = _check({', '.join(fields)})" if check else "",
            *(f"    _set_{name}(self, {name})" for name in fields),
        ]
    )
    scope = {"_defaults": defaults, "_check": check}
    scope.update((f"_set_{name}", getattr(cls, name).__set__) for name in fields)
    exec(source, scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == self._values(other)
    return NotImplemented


def _hash(self):
    return hash(self._values(self))


def _getstate(self):
    values = self._values(self)
    return values if len(self._fields) > 1 else (values,)


def _setstate(self, state):
    for name, value in zip(self._fields, state, strict=True):
        object.__setattr__(self, name, value)


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
