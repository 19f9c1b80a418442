"""Exception types shared across the library."""


class HyperstrataError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraph(HyperstrataError):
    """A graph value violates a structural invariant."""


class DisconnectedGraph(HyperstrataError):
    """The operation requires a connected graph."""


class Unstabilizable(HyperstrataError):
    """Stabilization would delete the entire graph."""


class UnknownEdge(HyperstrataError):
    """An edge argument is not an edge of the graph."""


class TypeMismatch(HyperstrataError):
    """Two graphs do not have the same (genus, leaf count) type."""


class OutOfRange(HyperstrataError):
    """A numeric argument is outside the supported range."""


class OddLeafTotal(HyperstrataError):
    """Edge parity is only defined for trees with an even leaf count."""


class NotATree(HyperstrataError):
    """The operation requires a connected graph with first Betti number 0."""


class UnknownLetter(HyperstrataError):
    """A word or expression uses a letter outside the alphabet."""


class NotLyndon(HyperstrataError):
    """The word is not a Lyndon word."""


class MixedMultidegree(HyperstrataError):
    """Terms of a combination do not share one letter-count vector."""


class TooLarge(HyperstrataError):
    """An enumeration refuses inputs beyond its size bound."""


class LevelZero(HyperstrataError):
    """The differential is not defined below the bottom level."""


class FormatError(HyperstrataError):
    """A serialized payload does not match the expected schema."""


class FailedCertificate(HyperstrataError):
    """A certificate check failed; carries the partial certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
