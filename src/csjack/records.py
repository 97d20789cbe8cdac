"""Record, the base of the plain value classes of the verify, convert and
spectrum layers, so that no request imports dataclasses."""


class Record:
    """A value class that behaves as a dataclass would: its fields are the
    names in __slots__, in constructor order; equality, hash, repr, copy and
    pickle follow them, and a frozen record (the default) refuses assignment
    once __init__ has set the fields through _init."""

    __slots__ = ()
    _frozen = True

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
