"""The kit's immutable records: plain classes in place of frozen dataclasses.

A record class derives from :class:`Record` and lists its fields as
annotations, in constructor order, each with an optional default; their
names, in order, are its ``_fields``.  An optional ``__post_init__`` checks
or normalises the fields once they are set (through ``object.__setattr__``).
Each field is a slot; a class that also needs an instance dict, as
``functools.cached_property`` does, lists ``"__dict__"`` in its
``__slots__``.  A record cannot change after construction, equals only a
record of its own type with equal fields, hashes as its field values, and
shows every field in its repr, as a frozen dataclass did.  Building a record
class compiles one small constructor; ``dataclasses`` and its ``inspect``
import cost every command about 20 ms more.
"""

from operator import attrgetter


class _RecordType(type):
    """Turns a record's annotations into slots, a constructor and a field tuple."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {field: namespace.pop(field) for field in fields if field in namespace}
        namespace["__slots__"] = fields + tuple(namespace.get("__slots__", ()))
        namespace["_fields"] = fields
        cls = super().__new__(mcs, name, bases, namespace)
        if fields:
            scope = {"_defaults": defaults}
            params = [f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields]
            lines = [f"def __init__(self, {', '.join(params)}):"]
            for f in fields:
                scope[f"_set_{f}"] = cls.__dict__[f].__set__
                lines.append(f"    _set_{f}(self, {f})")
            if hasattr(cls, "__post_init__"):
                lines.append("    self.__post_init__()")
            exec("\n".join(lines), scope)
            scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = scope["__init__"]
            cls._key = attrgetter(*fields)
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # ``_key`` is an attrgetter, not a method: it takes the record explicitly.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
