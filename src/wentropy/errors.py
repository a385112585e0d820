"""Exception types shared across the package."""


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
