"""Exception types shared across the package."""


class MotionFieldsError(Exception):
    """Base class for all package errors."""


class UnknownInstance(MotionFieldsError):
    """Requested symmetric-pair instance is not in the catalog."""


class StratumMismatch(MotionFieldsError):
    """Irrep label does not belong to the stabilizer of the given point."""


class MixedInstance(MotionFieldsError):
    """Dual points from different instances mixed in one query."""


class EmptySequence(MotionFieldsError):
    """Convergence query on an empty sequence."""


class EmptyBasis(MotionFieldsError):
    """No K-type below the cutoff branches over the requested irrep."""


class NonRadialFlatFactor(MotionFieldsError, ValueError):
    """Flat factor declared radial whose polynomial is not one in |X|^2."""


class NonFiniteEntries(MotionFieldsError):
    """Operator entries overflow a float: f-hat is too large at the point.

    ``index`` is that point's place among the points of its family.
    """

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class SupBoundOverflow(MotionFieldsError):
    """The closed-form sup bound of |f-hat|, squared, is not a finite float."""


class PathCrossesStrata(MotionFieldsError):
    """Continuity path leaves the stratum it started in, or takes a step of length 0."""


class MissingGamma2Data(MotionFieldsError):
    """Operator-field sample lacks the K-dual entries needed here."""


class MissingSupBound(MotionFieldsError):
    """Operator-field sample lacks the ``fhat2_sup`` bound that condition 1 needs."""


class ConfigError(MotionFieldsError):
    """Scenario configuration failed validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
