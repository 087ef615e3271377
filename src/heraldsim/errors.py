"""Exception types shared across the package.

All of them subclass HeraldsimError, a ValueError, so one type catches them
all; the command line reports each of them with exit code 2.
"""


class HeraldsimError(ValueError):
    """An error of this package's own."""


class ParameterError(HeraldsimError):
    """A parameter is outside its physical or numerical domain."""


class TruncationError(ParameterError):
    """The requested photon-number cutoff leaves too much tail mass.

    Attributes:
        required_n_max: smallest cutoff that satisfies the tail tolerance.
    """

    def __init__(self, message: str, required_n_max: int):
        super().__init__(message)
        self.required_n_max = required_n_max


class UndefinedStatisticError(HeraldsimError):
    """A statistic is mathematically undefined for the given input."""


class EmptyEnsembleError(HeraldsimError):
    """Conditioning or normalization was attempted on zero probability mass."""


class InconsistentRatesError(HeraldsimError):
    """Observed count rates contradict the assumed detector model."""


class FormatError(HeraldsimError):
    """A time-tag file does not match the documented wire format."""
