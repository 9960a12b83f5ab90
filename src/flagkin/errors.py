"""Exception hierarchy shared by all flagkin modules."""


class FlagkinError(Exception):
    """Base class for all flagkin errors."""


class UnitMismatch(FlagkinError):
    """Adding scalars whose formal unit monomials differ."""


class DivisionByZero(FlagkinError):
    """Division by the zero scalar."""


class IndexOutOfRange(FlagkinError):
    """An index lies outside the range permitted by the ambient dimension."""


class DimensionMismatch(FlagkinError):
    """Operands live over different ambient dimensions."""


class NotHomogeneous(FlagkinError):
    """Operation requires a homogeneous element."""


class BadIndexSet(FlagkinError):
    """Malformed index sequence for a rotation measure."""


class ExceptionalUnavailable(FlagkinError):
    """Exceptional element requested outside the odd, p == q case."""


class DegreeMismatch(FlagkinError):
    """Pairing operands have incompatible degrees."""


class ValidationError(FlagkinError):
    """Bad request arguments (CLI layer)."""
