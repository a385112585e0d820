"""Exception types shared across the package, and the checks its containers and counts share."""

import numpy as np


class WentropyError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetricError(WentropyError):
    """Covariance matrix is not symmetric; the message names the offending entry."""


class NotPositiveDefiniteError(WentropyError):
    """Covariance matrix fails a positive-definiteness check; names the offending minor."""


class DimensionMismatchError(WentropyError):
    """Inputs that must share a dimension do not."""


class SingularGivenBlockError(WentropyError):
    """The covariance block of the conditioning coordinates is not invertible."""


class DomainError(WentropyError):
    """A parameter lies outside its documented validity region."""


class OrderCapError(WentropyError):
    """Requested moment order exceeds the enforced cap."""


class OddOrderError(WentropyError):
    """Matching counts are defined for even orders only."""


class SupportMismatchError(WentropyError):
    """The reference density vanishes where the weighted integrand does not."""


class OutOfSupportError(WentropyError):
    """A data point with positive weight has zero density under the model."""


class EmptyDrawsError(WentropyError):
    """Posterior-draw collection is empty."""


class ZeroAcceptanceError(WentropyError):
    """The random-walk sampler accepted (almost) no proposals after burn-in."""


def as_int(value, name: str, nonnegative: bool = False) -> int:
    """``value`` as an int; a non-integral one, or a negative one if ``nonnegative``, raises
    ``ValueError`` naming ``name``."""
    if int(value) != value:  # int() alone would truncate 1.5 to 1
        raise ValueError(f"{name} {value} is not an integer")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be non-negative, got {int(value)}")
    return int(value)


def as_float_array(value, name: str, ndim: int, copy: bool = True) -> np.ndarray:
    """``value`` as a read-only float array of ``ndim`` dimensions and finite entries, else a
    ``ValueError`` naming ``name``: a copy, so the caller's array is neither frozen nor shared,
    unless ``copy`` is False, which freezes a float array in place (a buffer handed over)."""
    arr = np.array(value, dtype=float) if copy else np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr
