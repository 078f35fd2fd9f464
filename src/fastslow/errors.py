"""Exception types shared across the package."""


class FastslowError(Exception):
    """Base class for all package-specific failures."""


class NonFiniteCoefficient(FastslowError):
    """A user coefficient returned NaN or +/-inf at a sampled point."""


class BlowUp(FastslowError):
    """A simulated state left the configured norm cap.

    The true dynamics are non-explosive under the standing drift condition,
    so this always signals a bad coefficient or a too-coarse step.
    """


class NotCentered(FastslowError):
    """A Poisson right-hand side failed the centering gate.

    The gate asks, per call, that z = |mean| / SE <= 3 for every component
    on the sampled stationary cloud (see
    :func:`fastslow.ergodic.centering_residual`).  On a cloud of K chains
    the z of an exactly centered integrand is |t| with K - 1 degrees of
    freedom, so it trips the gate with probability about 0.39% at K = 64
    (0.27% for a normal z).
    """


class PSDFailure(FastslowError):
    """An estimated covariance had an eigenvalue below the negative tolerance."""


class GridTooCoarse(FastslowError):
    """Query grid spacing too large relative to the field's curvature."""


class ThetaOutOfRange(FastslowError):
    """Smoothness index outside the admissible range for the regime."""


class ConfigError(FastslowError):
    """Malformed or inconsistent experiment configuration."""
