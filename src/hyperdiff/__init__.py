"""Desk-scale constructions and evidence checks for hypercyclicity of
sequences of finite-order differential operators on entire functions.

Everything operates on explicit finite data: truncated Taylor polynomials,
polynomial operators P(D), log-domain magnitudes. Result records are immutable
named tuples. Three objects cache work on first use: an ``OperatorSequence`` keeps
the operator it built last, and a ``PolynomialOperator`` or a right inverse's
``TaylorPolynomial`` reduces its terms when first read (the operator also keeps an
integer form); no thread safety is claimed for any of them.
"""

from .errors import (
    CapExhausted,
    ConfigError,
    HyperdiffError,
    InvariantViolation,
    PreconditionError,
)
from .families import (
    EvidenceReport,
    GrowthRule,
    OperatorSequence,
    UnicityEstimate,
    check_property_P,
    check_property_Q,
    check_property_R,
    circle_min,
    make_family,
    positive_rational,
    unicity_exponent,
)
from .criterion import CriterionConfig, CriterionReport, verify_hypotheses
from .inverses import (
    RightInverse,
    build_f_nk,
    fnk_decay,
    inverse_for_polynomial,
    solve_monic_system,
)
from .lacunary import (
    LacunaryBasis,
    decay_report,
    m0_member,
    select_indices,
    verify_ineq_ak,
)
from .scalars import QComplex
from .series import (
    PolynomialOperator,
    TaylorPolynomial,
    apply_operator,
    eigen_defect_bound,
    exp_truncate,
    read_coefficients,
    write_operator,
    write_taylor,
)
from .synthesis import (
    SynthesisTrace,
    augment,
    enumerate_targets,
    joint_family,
    perturb,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "CapExhausted",
    "ConfigError",
    "HyperdiffError",
    "InvariantViolation",
    "PreconditionError",
    "EvidenceReport",
    "GrowthRule",
    "OperatorSequence",
    "UnicityEstimate",
    "check_property_P",
    "check_property_Q",
    "check_property_R",
    "circle_min",
    "make_family",
    "positive_rational",
    "unicity_exponent",
    "CriterionConfig",
    "CriterionReport",
    "verify_hypotheses",
    "RightInverse",
    "build_f_nk",
    "fnk_decay",
    "inverse_for_polynomial",
    "solve_monic_system",
    "LacunaryBasis",
    "decay_report",
    "m0_member",
    "select_indices",
    "verify_ineq_ak",
    "QComplex",
    "PolynomialOperator",
    "TaylorPolynomial",
    "apply_operator",
    "eigen_defect_bound",
    "exp_truncate",
    "read_coefficients",
    "write_operator",
    "write_taylor",
    "SynthesisTrace",
    "augment",
    "enumerate_targets",
    "joint_family",
    "perturb",
    "synthesize",
]
