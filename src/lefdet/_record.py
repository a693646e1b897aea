"""The one base of the package's frozen value types.

A subclass names its fields in ``__slots__``, in constructor order, and its
``__init__`` validates, normalises, then stores each field once with
``set_field``.  The base gives every value type the same record behaviour:
field-wise ``==`` (``NotImplemented`` against any other class), ``hash`` of
the field tuple, the ``Name(field=value, ...)`` repr, ``AttributeError`` on
assignment or deletion, and a ``__reduce__`` that rebuilds through the
constructor, so ``pickle`` and ``copy`` work.  Nothing is generated or
compiled at import, which keeps a one-shot command's start-up short.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
