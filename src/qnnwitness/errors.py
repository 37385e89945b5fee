"""Exception types shared across the package."""


class QnnError(Exception):
    """Base class for all package-specific failures."""


class ImaginaryTraceError(QnnError, ValueError):
    """tr(rho O) has a non-negligible imaginary part; the state is corrupted."""


class ZeroVector(QnnError, ValueError):
    """Cannot normalize an all-zero amplitude vector."""


class NonFinite(QnnError, ValueError):
    """A value that must be a finite number is NaN or infinite."""


class InvalidWeights(QnnError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class NonPhysical(InvalidWeights):
    """A parsed state fails the physicality checks (bad mixture weights)."""


class UnknownState(QnnError, KeyError):
    """Catalog lookup for a name that is not defined."""


class ArityError(QnnError, TypeError):
    """Catalog state called with the wrong number of arguments."""


class DivergenceError(QnnError, RuntimeError):
    """Training loss blew up; the learning rate is too large."""


class CalibrationInconclusive(QnnError, RuntimeError):
    """Neither unit convention reproduces the reference outputs."""


class KetSyntaxError(QnnError, ValueError):
    """Ket expression failed to parse.

    The byte offset of the failure is stored on ``offset``.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset
