"""Error taxonomy shared by every module.

Two broad families matter to callers: problems with what was asked
(configuration, file contents, violated preconditions) and problems that arise
numerically while computing. The CLI maps the first family to exit code 2 and
the second to exit code 3.
"""

import numbers


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


class UndefinedMetricError(DomainError):
    """The requested metric is mathematically undefined on these inputs."""


class NumericalError(WorkbenchError):
    """A computation failed numerically."""


class TrainingDivergedError(NumericalError):
    """Loss or parameters became non-finite during training."""


class DegenerateGradientError(NumericalError):
    """A gradient difference had (near-)zero norm where one was required."""


class DegenerateVarianceError(NumericalError):
    """Total variation (or a variance) needed as a divisor is zero."""


class UnreachableSubspaceError(NumericalError):
    """No decision boundary is reachable inside the restricted subspace.

    Raised where a constrained estimate would be infinite; the error itself is
    the infinite-margin sentinel.
    """


class FitError(NumericalError):
    """A least-squares fit failed beyond what ridge conditioning can rescue."""
