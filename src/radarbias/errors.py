"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """Valid input on which the mathematics fails; the CLI exits 2 on it."""


class ZeroVector(DomainError):
    """Cartesian-to-spherical conversion of the zero vector."""


class NonFiniteTransform(DomainError):
    """A coordinate transform's result is not finite, e.g. it overflows a double."""


class SingularGeometry(DomainError):
    """Sensor geometry makes the measurement matrix singular.

    Raised when a sensor-target distance is below registration.MIN_RANGE_M:
    the matrix's angle columns scale with the distance and vanish at zero.
    """


class SingularSystem(DomainError):
    """The bias solver's weighted constraint system cannot be solved in floating point.

    Raised when the weighted constraint matrix or the solution overflows,
    when the multiplier system is too ill-conditioned to invert, or when
    the solution misses the constraint beyond rounding.
    """


class DimensionMismatch(ValueError):
    """Filter model or state arrays have inconsistent shapes."""


class SingularInnovation(ValueError):
    """The innovation-covariance bracket of the gain equation is singular."""


class DegenerateDenominator(DomainError):
    """A gain condition that keeps a closed-form covariance denominator nonzero fails."""


class NonFiniteCovariance(DomainError):
    """A closed-form or Monte-Carlo covariance entry, or a relative error, overflows."""


class NoValidRoot(DomainError):
    """No real root of the gain cubic passes validation."""

    def __init__(self, msg: str, roots=()):
        self.roots = tuple(roots)
        if roots:
            msg += f" (roots found: {', '.join(format(r, '.6g') for r in roots)})"
        super().__init__(msg)


class InvalidGains(DomainError):
    """Filter gains fail validate_gains' denominator or stability conditions."""


class ConfigError(ValueError):
    """Malformed or schema-violating input document."""
