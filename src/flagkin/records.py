"""Record, the base of flagkin's immutable value types, with its field setter.

It imports only ``operator``, so a module that needs a record type and no
rational arithmetic loads neither ``fractions`` nor ``decimal``.
"""

from operator import attrgetter, ge, gt, le, lt

_set = object.__setattr__


def _compare(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._fields(self), other._fields(other))

    return compare


class Record:
    """Base of the immutable value records: the fields are the __slots__ (two or more).

    Equality needs the same class and equal field tuples, the hash is the
    field tuple's hash and the repr is ``Name(field=value, ...)``.  A
    subclass sets its fields once, in __init__, through ``_set``; assigning
    or deleting a field afterwards raises AttributeError.  ``order=True``
    in the class statement adds the field tuple's ordering.
    """

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)
        if order:
            cls.__lt__, cls.__le__ = _compare(lt), _compare(le)
            cls.__gt__, cls.__ge__ = _compare(gt), _compare(ge)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)
