"""Operator fields over the unitary dual of Cartan motion groups.

Desk-scale computational harmonic analysis for the semidirect products of a
compact rotation group with its flat tangent space: chamber and orbit
geometry, induced-representation Fourier transforms as truncated operator
matrices, Fell-topology convergence certificates, and numerical
certification of the operator-field conditions cutting out the group
C*-algebra inside the bounded fields over the dual.
"""

from .dual import (
    ConvergenceCertificate,
    DualPoint,
    converges,
    make_dual_point,
    transport_label,
)
from .errors import (
    ConfigError,
    EmptyBasis,
    EmptySequence,
    MixedInstance,
    MissingGamma2Data,
    MissingSupBound,
    MotionFieldsError,
    NonFiniteEntries,
    NonRadialFlatFactor,
    PathCrossesStrata,
    StratumMismatch,
    SupBoundOverflow,
    UnknownInstance,
)
from .fourier import (
    OperatorFieldSample,
    TruncatedOperator,
    hs_norm,
    operator_norm,
    pi_family,
    pi_matrix,
    pi_mu0_matrix,
    sample_field,
    tau_matrix,
)
from .induction import (
    PeterWeylBasis,
    peter_weyl_basis,
    restriction_multiplicity,
)
from .pairs import (
    StabilizerDescriptor,
    SymmetricPairDescriptor,
    WeylElement,
    build_instance,
    dominant_representative,
    stabilizer,
)
from .testfunctions import MatrixCoefficient, PolyGaussian, Term, TestFunction
from .verifier import (
    ConditionReport,
    MembershipReport,
    Thresholds,
    VerificationPlan,
    check_compactness_proxy,
    check_continuity,
    check_h_to_zero,
    check_lambda_decay,
    check_mu_decay,
    run_verification,
    verify_membership,
)

__version__ = "0.1.0"
