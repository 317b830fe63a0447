"""
Immutable value classes on ``__slots__``, with no ``dataclasses`` import.

``Frozen`` gives a slots class what a frozen dataclass gave: assigning or
deleting a field raises ``AttributeError``, and ``==``, ``hash``, ``repr``
and pickling read the public slots in order, so ``hash`` is the hash of
the field tuple and ``repr`` reads ``Shard(n=4, i=1, j=4, eps=(1, -1))``.
A slot whose name starts with ``_`` is private state, which all of them
ignore.  Constructors write the slots with ``object.__setattr__`` or, on
hot paths, through the member descriptors (``Preorder.n.__set__``), both
of which bypass ``__setattr__``.  ``dataclasses`` is not used because it
imports ``inspect``, ``dis``, ``ast`` and ``tokenize``, which every
process would pay for at start-up.
"""


class Frozen:
    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
