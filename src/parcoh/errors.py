"""Error types shared across the package.

Everything derives from ParcohError so callers (and the CLI) can map
failures to exit codes without string matching.
"""


class ParcohError(Exception):
    pass


# field arithmetic

class FieldMismatch(ParcohError):
    pass


class NoEmbedding(ParcohError):
    pass


class NotReal(ParcohError):
    pass


class LiteralSyntaxError(ParcohError):
    pass


class FieldInvariantError(ParcohError):
    """Phi_n or an element broke an invariant the arithmetic rests on."""


# linear algebra

class NotASubspace(ParcohError):
    pass


class ShapeMismatch(ParcohError):
    """Operands of a vector or matrix operation have incompatible sizes."""


# tuple validation

class TupleError(ParcohError):
    pass


class TooFewPoints(TupleError):
    pass


class NotInvertible(TupleError):
    pass


class ProductNotOne(TupleError):
    pass


# braids

class BraidSyntaxError(ParcohError):
    pass


class IndexOutOfRange(BraidSyntaxError):
    pass


class StrandMismatch(ParcohError):
    pass


class DoesNotPreserveE(ParcohError):
    pass


# monodromy

class UnknownGenerator(ParcohError):
    pass


class IncompatibleSpec(ParcohError):
    pass


# duality

class NotParabolic(ParcohError):
    pass


class TupleMismatch(ParcohError):
    pass


class FormNotInvariant(ParcohError):
    pass


class NotHermitian(ParcohError):
    pass


class NotRootOfUnity(ParcohError):
    pass


class NonzeroH0(ParcohError):
    pass


# problem files

class ProblemFileError(ParcohError):
    pass
