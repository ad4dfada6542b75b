"""Exception hierarchy.

Two branches matter to callers: ``InputError`` for malformed or
inconsistent input data, and ``MathError`` for computations whose
hypotheses fail on valid input.  The CLI maps them to exit codes 2 and 1.
"""


class TamechainError(Exception):
    pass


class InputError(TamechainError):
    pass


class MathError(TamechainError):
    pass


class CycleDetectedError(InputError):
    """The cover digraph of a would-be poset contains a cycle."""


class DimensionTooHighError(InputError):
    """An operation restricted to posets of dimension at most 1 was given more."""


class NotClosedError(InputError):
    """A subset expected to be closed under suplim is not."""


class BadCoordinateError(InputError):
    """An edge coordinate lies outside the open interval (-1, 0)."""


class BadCoverError(InputError):
    """The two gluing subposets do not cover the indexing poset."""


class FieldMismatchError(InputError):
    """Objects over different field moduli were combined."""


class TooLargeError(InputError):
    """An input implies an object above a documented size bound."""


class NameCollisionError(InputError):
    """Two points of a realization would carry the same name."""


class ParseError(InputError):
    """An interchange document could not be parsed."""


class ValidationError(InputError):
    """Structural invariants of a functor or chain functor fail."""


class UnknownExampleError(InputError):
    """Requested builtin example does not exist."""


class NoSolutionError(MathError):
    """A linear system A X = B has no solution over F_p."""


class TransferUndefinedError(MathError):
    """The down-set in the subposet is nonempty but has no greatest element."""


class KernelNotProjectiveError(MathError):
    """The kernel of a minimal cover is not projective (dimension > 1 symptom)."""


class HomologyNotResolvableError(MathError):
    """A homology functor has no length-<=1 resolution (dimension > 1 symptom)."""


class ZeroObjectError(MathError):
    """Indecomposability is undefined for the zero object."""


class NotIdempotentError(MathError):
    """The endomorphism supplied for splitting is not idempotent."""


class BudgetExceededError(MathError):
    """Exhaustive endomorphism enumeration would exceed the allowed budget."""
