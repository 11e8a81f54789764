"""Exception hierarchy shared by all virtlev modules."""


class VirtlevError(Exception):
    """Base class for all computational errors raised by this package."""


class DimensionMismatch(VirtlevError):
    """Sampled data does not match the grid it claims to live on."""


class InvalidOperator(VirtlevError):
    """Kernel or matrix entries are non-finite or otherwise unusable."""


class ThresholdSingularity(VirtlevError):
    """A kernel was requested at a spectral point where none exists."""


class BranchAmbiguity(VirtlevError):
    """sqrt(-z) is ambiguous: z sits on the branch cut with no approach side."""


class OnDiagonalSingularity(VirtlevError):
    """Pointwise kernel evaluation requested on its singular diagonal."""


class UnsupportedSpectralPoint(VirtlevError):
    """Spectral parameter outside the region an operation supports."""


class NearSpectrum(VirtlevError):
    """Resolvent solve too ill-conditioned: z is resolved as spectrum."""


class VirtualLevelError(VirtlevError):
    """Wronskian vanishes: the two-sided Green kernel is not defined."""


class DiscretizationFailure(VirtlevError):
    """A quantity that must be grid-independent drifted beyond tolerance."""


class NoBoundState(VirtlevError):
    """Root bracketing for a bound-state equation found no root."""


class OutsideResolventSet(VirtlevError):
    """Explicit resolvent formula evaluated outside its region of validity."""


class SamplingFailure(VirtlevError):
    """Randomized search did not reproduce a deterministic reference answer."""


class ClassificationConflict(VirtlevError):
    """Two independent classification routes disagree."""


class ModelViolation(VirtlevError):
    """A constructed model family fails its defining residual check."""


class FitError(VirtlevError):
    """Least-squares fit impossible (degenerate abscissae or bad data)."""


class ConfigError(VirtlevError):
    """Invalid experiment configuration."""
