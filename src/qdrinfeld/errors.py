"""Exception hierarchy shared by all qdrinfeld modules."""


class QdrinfeldError(Exception):
    """Base class for every error raised by this package."""


class SpecError(QdrinfeldError):
    """Structurally invalid input data (bad q-matrix, mismatched contexts, ...)."""


class NotAUnit(SpecError):
    """Inversion was requested for a scalar that is not invertible.

    Only Laurent monomials (a single exponent vector with a nonzero
    cyclotomic coefficient) are units in the coefficient ring.
    """


class ParseError(QdrinfeldError):
    """Malformed scalar expression or spec file."""

    def __init__(self, message, line=None):
        self.message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class HypothesisNotMet(QdrinfeldError):
    """A construction was applied outside the hypotheses that back it."""


class AxiomsFailed(QdrinfeldError):
    """An enveloping algebra was requested for a ring that fails the color axioms."""


class NotPurelyPositive(QdrinfeldError):
    """The converse construction needs every basis vector in the positive part."""


class NonUnitEpsilon(QdrinfeldError):
    """A commutation-factor value must be invertible."""


class SymbolicParameter(QdrinfeldError):
    """An exact numeric computation received a scalar with free parameters."""


class ValueNotSign(QdrinfeldError):
    """epsilon(d, d) must be +1 or -1 for an antisymmetric bicharacter."""


class InternalInconsistency(QdrinfeldError):
    """Two computations that must agree on every input disagreed: a bug, not bad input."""
