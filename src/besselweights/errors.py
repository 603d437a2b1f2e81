"""Exception types shared across the package."""


class BesselWeightsError(Exception):
    """Base class for package errors."""


class DivergenceError(BesselWeightsError):
    """An integral is infinite (detected symbolically from exponents)."""


class RepresentationError(BesselWeightsError):
    """An operation would leave the representable power-log function family."""


class QuadratureError(BesselWeightsError):
    """Adaptive quadrature failed to reach the requested accuracy."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class DisjointnessError(BesselWeightsError):
    """Two designated major subsets of a sparse family overlap."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ZeroMassError(BesselWeightsError):
    """A weight or measure vanishes where a positive mass is required."""


class PostconditionError(BesselWeightsError):
    """A computed result fails the condition that defines it."""


class PreconditionError(BesselWeightsError):
    """A documented mathematical precondition fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptyFamilyError(BesselWeightsError):
    """An interval or cube family required to be nonempty is empty."""


class SupportError(BesselWeightsError):
    """Evaluation point touches the support of the integrand (or the diagonal)."""


class ConstructionError(BesselWeightsError):
    """A geometric construction (ball pair, enlarged interval) is infeasible."""


class UnboundedComplementaryError(BesselWeightsError):
    """The complementary Young function is not finite on all of [0, inf)."""


class ConfigError(BesselWeightsError):
    """An experiment configuration file is missing or malformed."""
