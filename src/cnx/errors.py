"""Exception hierarchy shared across the package."""


class CnxError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(CnxError):
    """Raised on malformed formula text; carries offset and an expected-token hint."""

    def __init__(self, message, offset, expected=None):
        self.message = message
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class LanguageMismatch(CnxError):
    """Formula language is not admissible for the model kind / logic / operation."""


class UnknownWorld(CnxError):
    """World id does not belong to the model."""


class StructuralError(CnxError):
    """Dangling world ids or otherwise unresolvable model structure."""


class UnknownFixture(CnxError):
    """No fixture with the requested name."""


class KindMismatch(CnxError):
    """Models of different kinds where identical kinds are required."""


class EvidenceError(CnxError):
    """Evidence for a verdict failed its re-check at report time."""


class FrameViolation(CnxError):
    """A model fails the frame-class validation required by an operation."""


class TooManyWorlds(CnxError):
    """A size-limited construction was asked to materialize too large an index space."""


class ModelFormatError(CnxError):
    """Malformed model file."""


class ProofFormatError(CnxError):
    """Malformed proof file."""
