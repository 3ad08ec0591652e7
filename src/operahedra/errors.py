"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Malformed concrete syntax (expression, word, or file format)."""


class ArityError(EngineError):
    """Composition slot out of range, or a generator declared with arity < 1."""


class NotMaximalError(EngineError):
    """A nesting fails the maximal-nesting invariants (size, full nest, binary pieces)."""


class MalformedEdgeError(EngineError):
    """Two nestings that do not differ in exactly one nest, or an incompatible pair."""


class ShapeError(EngineError):
    """A 2-face whose boundary is not a 4-, 5- or 6-cycle: signals a combinatorics bug."""


class HomologyRankError(EngineError):
    """Boundary ranks that give a negative Betti number: signals an arithmetic bug."""


class NonRegularError(EngineError):
    """A cell boundary walk repeats a vertex or an edge, or an edge is a loop."""


class DanglingReferenceError(EngineError):
    """An index out of range, or a walk step not incident to its stated vertices."""


class BrokenChainError(EngineError):
    """Consecutive path steps that do not chain endpoint-to-endpoint."""


class NotOrientedError(EngineError):
    """A path with a step running against the edge orientation where forbidden."""


class NotParallelError(EngineError):
    """Two paths or words that do not share both endpoints."""


class IllegalMoveError(EngineError):
    """A word move that does not apply at its position; carries the move index."""

    def __init__(self, index, message):
        super().__init__(f"move {index}: {message}")
        self.index = index


class CertificateRejectedError(EngineError):
    """A generated certificate that the independent verifier rejects: signals a generator bug."""


class GeneratorError(EngineError):
    """A certificate move that the certified Morse data promises but the
    generator cannot build: signals a generator bug."""


class NotGenericError(EngineError):
    """A direction vector tied on some edge; carries the offending edge id."""

    def __init__(self, edge, message=None):
        super().__init__(message or f"vector not generic on edge {edge}")
        self.edge = edge
