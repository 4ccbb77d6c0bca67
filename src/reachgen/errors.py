"""Exception types raised across the package, and the range checks that
settings and arguments share."""
import math
import numbers


class ReachGenError(Exception):
    """Base class for all package errors."""


class DegenerateRotationError(ReachGenError):
    """6D rotation input is collinear or near-zero and cannot be decoded."""


class InvalidRotationError(ReachGenError):
    """Matrix input is not orthonormal / right-handed within tolerance."""


class DimensionMismatchError(ReachGenError):
    """Pose, skeleton, or network dimensions disagree."""


class NumericFault(ReachGenError):
    """NaN/Inf appeared in a computation; carries a location hint. Both are
    its args, so a fault raised in a worker process unpickles."""

    def __init__(self, message, where):
        super().__init__(message, where)
        self.where = where

    def __str__(self):
        return f"{self.args[0]} (at {self.where})"


class TapeReuseError(ReachGenError):
    """A gradient tape was walked twice."""


class SkipWindow(ReachGenError):
    """The sequence is too short for the requested training window."""


class CorpusTooSmallError(ReachGenError, ValueError):
    """The corpus has fewer sequences than a train/val/test split needs, or
    no sequence can host a training window."""


class InvalidInputError(ReachGenError, ValueError):
    """A goal, goal schedule, objective or duration is malformed or out of
    range."""


class InfeasibleTargetError(ReachGenError):
    """A reach target could not be realized within the resample cap."""


class ModelMismatchError(ReachGenError):
    """Record/checkpoint hash does not match the supplied model."""


class CorruptFileError(ReachGenError):
    """Container file is truncated or fails validation."""


class WorkerDiedError(ReachGenError):
    """A worker process exited while computing its share of a step."""


class VersionMismatchError(ReachGenError):
    """Container file was written by an incompatible format version."""


def check_count(name: str, value, minimum: int = 1) -> None:
    """InvalidInputError unless `value` is an integer (not a bool) >= minimum."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _finite(value) -> bool:
    """A finite real number; a bool is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_positive(name: str, value) -> None:
    """InvalidInputError unless `value` is a finite real number above 0."""
    if not (_finite(value) and value > 0):
        raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """InvalidInputError unless `value` is a finite real number >= 0."""
    if not (_finite(value) and value >= 0):
        raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")


def check_fraction(name: str, value) -> None:
    """InvalidInputError unless `value` is a real number in [0, 1)."""
    if not (_finite(value) and 0 <= value < 1):
        raise InvalidInputError(f"{name} must be a number in [0, 1), got {value!r}")


def check_range(name: str, value) -> None:
    """InvalidInputError unless `value` is a (low, high) pair of finite real
    numbers with low <= high."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(map(_finite, value)) and value[0] <= value[1]):
        raise InvalidInputError(f"{name} must be two finite numbers, low <= high, "
                                f"got {value!r}")
