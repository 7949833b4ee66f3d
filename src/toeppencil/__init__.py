"""Exact-arithmetic toolkit for lower-triangular-banded Toeplitz matrix pencils.

Builds T(x) = M0 + x*M1 from a coefficient list, decides singularity over
exact fields (rationals or GF(p)), evaluates the power-condition and
minor-condition singularity tests, extracts minimal-degree kernel vector
polynomials, and hunts for counterexamples to the minor-space conjecture
over small prime fields.
"""

from .field import QQ, PrimeField, FieldMismatchError, GF
from .linalg import Mat, Poly, ShapeError
from .pencil import (
    PencilInstance,
    PencilError,
    build_pencil,
    build_M0,
    build_M1,
    is_singular,
    is_geometric,
)
from .minors import (
    MinorVector,
    SMObjects,
    principal_minors,
    q_inverse_closed_form,
    q_inv_v_closed_form,
    build_sm_objects,
    det_X,
    recover_c_from_minors,
)
from .criteria import CriterionReport, ConsistencyAlarm, check_S, check_SM, evaluate_instance
from .kronecker import BlockPencil, KroneckerResult, analyze
from .hunt import HuntConfig, HuntReport, exhaustive_scan, random_scan, verify_conjecture_smalln
