"""Error taxonomy shared by every module.

Two broad families matter to callers: problems with what was asked
(configuration, file contents, violated preconditions) and problems that arise
numerically while computing. The CLI maps the first family to exit code 2 and
the second to exit code 3.
"""

import math
import numbers

import numpy as np


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(WorkbenchError):
    """Bad configuration, malformed file, or unknown key/format."""


class DomainError(WorkbenchError):
    """A precondition on an operation's inputs was violated."""


def check_integers(**fields) -> None:
    """Raise DomainError naming the first field whose value is not an
    integer. Python and NumPy integers pass; a bool or a float does not."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number: a Python or NumPy int or
    float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_reals(**fields) -> None:
    """Raise DomainError naming the first field whose value is not a
    finite real number (``_is_finite_real``)."""
    for name, value in fields.items():
        if not _is_finite_real(value):
            raise DomainError(f"{name} must be a finite number, got {value!r}")


def check_seed(seed) -> None:
    """Raise DomainError unless ``seed`` is an integer >= 0, as numpy's
    generators take it."""
    check_integers(seed=seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def _as_floats(values) -> np.ndarray:
    """``values`` as a float64 array, NaN and ±inf included; a DomainError
    for text, ragged rows, complex values and ints too large for a float."""
    try:
        A = np.asarray(values)
        if A.dtype.kind == "O" and all(isinstance(v, numbers.Real)
                                       for v in A.flat):  # ints past int64
            A = A.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected real numbers: {exc}") from None
    if A.dtype.kind not in "biuf":
        raise DomainError(f"expected real numbers, got {A.dtype} values")
    return A.astype(np.float64, copy=False)


def _checked_rows(X) -> np.ndarray:
    """``_as_floats(X)``, one row or a matrix of rows; a DomainError when
    it has another rank or holds a non-finite value."""
    A = _as_floats(X)
    if A.ndim not in (1, 2):
        raise DomainError(f"need one row or a matrix of rows, got {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("rows hold non-finite values")
    return A


def _real_arrays(*values) -> bool:
    """Whether each of ``values`` is a NumPy array of real numbers: bools,
    ints or floats, the kinds ``_as_floats`` takes."""
    return all(isinstance(v, np.ndarray) and v.dtype.kind in "biuf"
               for v in values)


class UndefinedMetricError(DomainError):
    """The requested metric is mathematically undefined on these inputs."""


class NumericalError(WorkbenchError):
    """A computation failed numerically."""


def check_overflow(what: str, *values) -> None:
    """NumericalError "``what`` overflows" unless every one of ``values`` is
    finite, as arithmetic run under ``np.errstate`` leaves an overflow."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalError(f"{what} overflows")


def _checked_file(check, value, path):
    """``check(value)``, with its errors naming the file at ``path`` that
    ``value`` was read from: a DomainError becomes a ConfigError, and a
    NumericalError stays one."""
    try:
        return check(value)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"{path}: {exc}") from exc


class TrainingDivergedError(NumericalError):
    """Loss or parameters became non-finite during training."""


class DegenerateVarianceError(NumericalError):
    """Total variation (or a variance) needed as a divisor is zero."""


class FitError(NumericalError):
    """A least-squares fit failed beyond what ridge conditioning can rescue."""
