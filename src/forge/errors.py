"""Exception hierarchy shared by all forge modules."""


class ForgeError(Exception):
    """Base class for all errors raised by forge."""


class AlphabetMismatchError(ForgeError):
    """A word refers to a generator that is not in the expected alphabet."""


class DegenerateInputError(ForgeError):
    """An operation received an input it is not defined for (e.g. the identity)."""


class NotALoopError(ForgeError):
    """A word does not trace a closed path at the basepoint of a base graph."""


class BaseMismatchError(ForgeError):
    """Two immersions were combined but do not share a base graph."""


class ConfigurationError(ForgeError):
    """A graph is missing structure (e.g. a basepoint) required by an
    operation.  `cell` names the one cell at fault, where there is one:
    ("vertex", id), ("edge", id), ("basepoint", id) or ("vmap", id)."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class InvalidActionError(ForgeError):
    """A purported relabeling action element is not an automorphism of the base."""


class NameCollisionError(ForgeError):
    """A fresh generator name collides with an existing one."""


class InvalidSubstitutionError(ForgeError):
    """A generator substitution failed its round-trip verification."""


class ThresholdError(ForgeError):
    """A numeric parameter is below the threshold required for certification."""


class IndependenceError(ForgeError):
    """A tuple of target words is not independent where independence is required."""


class ParseError(ForgeError):
    """A structured text input failed to parse."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}: {message}" if column is None else \
                f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
