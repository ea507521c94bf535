"""The immutable base of the package's records.

:mod:`dataclasses` imports :mod:`inspect` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated code for each class it decorates, which
made it about half the import time of the command-line front end.  A record
here is a slotted class: it lists its fields in ``__slots__`` in constructor
order, and its ``__init__`` validates its arguments and stores them with
:meth:`Frozen._freeze`.
"""

__all__ = ["Frozen"]

_setattr = object.__setattr__


class Frozen:
    """Equality, hash and a ``Name(field=value, ...)`` repr over ``__slots__``.

    Assigning or deleting an attribute raises :class:`AttributeError`.  A
    copy or an unpickled record is rebuilt by the constructor from its
    fields.  A record compared by identity sets ``__eq__ = object.__eq__`` and
    ``__hash__ = object.__hash__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
