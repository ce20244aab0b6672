"""Exception types shared across the package."""


class QTeachError(Exception):
    """Base class for all qteach errors."""


class ConfigurationError(QTeachError, ValueError):
    """A caller-supplied value is outside the supported range."""


class StructuralError(QTeachError, ValueError):
    """An object is internally inconsistent (bad indices, shape mismatch)."""


class UnsupportedArchitectureError(QTeachError, ValueError):
    """The requested operation cannot be applied to this circuit."""


class TrainingDivergedError(QTeachError, RuntimeError):
    """The loss became non-finite during optimization.  ``run`` is the
    index of the diverging run among those trained in lockstep, if any."""

    def __init__(self, message: str, run=None):
        super().__init__(message)
        self.run = run


class ConfigParseError(QTeachError, ValueError):
    """An experiment config file could not be parsed."""
