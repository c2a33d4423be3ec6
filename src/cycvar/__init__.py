"""cycvar: exact calculus on cyclic jet words.

Library for computations with necklace-like words over a graded jet
alphabet: normalization with parity signs, the averaged commutative product,
total and variational derivatives, adjoints of one-slot operators, the
graded bracket of multivector densities, Poisson brackets of functionals,
and a decision procedure for the Hamiltonian property of skew operators.
"""

from .errors import (
    BoundExceeded,
    CycvarError,
    IdentityFailure,
    ParseError,
    PreconditionError,
)
from .words import (
    Coefficient,
    FormalSum,
    Letter,
    close,
    concat,
    normalize,
    times,
)
from .jets import (
    GeneratingSection,
    JetContext,
    d_power,
    evolutionary_apply,
    graded_commutator,
    make_section,
    total_derivative,
)
from .operators import DifferentialOperator, from_derivative
from .variational import (
    Covector,
    Functional,
    coupling,
    covector_of,
    euler_derivative,
    is_trivial,
)
from .schouten import (
    Multivector,
    check_field_morphism,
    check_jacobi,
    check_skew,
    evaluate,
    multivector_from_operator,
    normalize_multivector,
    q_field,
    schouten_bracket,
    schouten_by_variations,
)
from .poisson import (
    HamiltonianCertificate,
    HarnessResult,
    TrialReport,
    involutivity_witness,
    is_hamiltonian,
    jacobi_defect,
    jacobi_defect_expanded,
    master_defect,
    poisson_bracket,
    substitution_harness,
)
from .lang import (
    coefficient_text,
    covector_text,
    operator_text,
    parse_covector,
    parse_cyclic,
    parse_open,
    parse_operator,
    parse_section_tuple,
    parse_value,
    section_text,
    sum_text,
    word_text,
)

__version__ = "0.1.0"
