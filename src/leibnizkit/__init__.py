"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras given by
structure constants: identity checking, nilpotency invariants, characteristic
sequences, Z-gradations of maximum length, derivations and first cohomology,
plus a catalog of named algebra families and a batch CLI."""

from .catalog import FAMILIES, FamilyError, FamilySpec, admissible_param_check, build
from .cohomology import (
    DerivationSpace,
    derivation_space,
    h1_dimension,
    inner_derivation_space,
    is_derivation,
)
from .core import (
    Algebra,
    FormatError,
    NotLeibnizError,
    bracket,
    change_of_basis,
    direct_sum,
    from_terms,
    leibniz_residual,
    left_operator,
    right_operator,
)
from .gradations import (
    GradationReport,
    WeightAssignment,
    graded_derivation_split,
    search_diagonal_gradation,
    verify_gradation,
)
from .invariants import (
    CharSeq,
    Fingerprint,
    SeriesReport,
    center,
    central_series,
    characteristic_sequence,
    fingerprint,
    natural_graded,
    p_filiform_class,
    right_annihilator,
)
from .iso import CertificateReport, IsoCertificate, compare_fingerprints, verify_certificate
from .linalg import (
    Matrix,
    NotNilpotentError,
    SingularMatrixError,
    kernel_basis,
    nilpotent_partition,
    rank,
)
from .scalars import Scalar, ScalarParseError, parse_scalar

__version__ = "0.1.0"
