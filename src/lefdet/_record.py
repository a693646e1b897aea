"""The one base of the package's frozen value types.

A subclass names its fields in ``__slots__``, in constructor order.  A plain
record, which only holds its fields, writes nothing more: the base's
``__init__`` binds the positional arguments, then the keyword arguments, to
the fields in slot order, and raises ``TypeError`` as a Python signature
would for too many positional arguments, an unknown keyword, a field given
twice or a missing field.  A record that validates or normalises its
arguments writes its own ``__init__``, which checks them and then stores
each field once with ``set_field``.  The base gives every value type the
same record behaviour: field-wise ``==`` (``NotImplemented`` against any
other class), ``hash`` of the field tuple, the ``Name(field=value, ...)``
repr, ``AttributeError`` on assignment or deletion, and a ``__reduce__``
that rebuilds through the constructor, so ``pickle`` and ``copy`` work.
Nothing is generated or compiled at import, which keeps a one-shot
command's start-up short.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} fields, got {len(args)}"
            )
        if kwargs:
            try:
                for name in names[len(args):]:
                    set_field(self, name, kwargs.pop(name))
            except KeyError as exc:
                raise TypeError(f"{type(self).__qualname__}() missing field {exc}") from None
            if kwargs:
                name = next(iter(kwargs))
                problem = f"got field {name!r} twice" if name in names else f"has no field {name!r}"
                raise TypeError(f"{type(self).__qualname__}() {problem}")
        elif len(args) < len(names):
            raise TypeError(f"{type(self).__qualname__}() missing field {names[len(args)]!r}")
        for name, value in zip(names, args):
            set_field(self, name, value)

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
