"""Finite bounded lattices: congruences, compatible aggregation, Sugeno integrals."""

__version__ = "0.1.0"

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CyclicCovers,
    ForeignElement,
    InvalidArgument,
    LatcongError,
    NotAChain,
    NotAggregation,
    NotALattice,
    NotBounded,
    NotDistributive,
    NotMonotone,
    ParseError,
    SizeMismatch,
    TooLarge,
    UnknownName,
    ValidationError,
)
from .lattice import Lattice, build_from_covers, catalogue, is_isomorphic, \
    med_dual_check
from .congruences import (
    Congruence,
    all_congruences,
    all_congruences_bruteforce,
    congruence_join,
    formula_relation,
    formula_relation_is_congruence,
    is_congruence,
    principal_congruence,
    principal_congruence_oracle,
    principal_congruences,
)
from .tables import FunctionTable, all_inputs
from .polynomials import (
    Constant,
    Join,
    Meet,
    NormalForm,
    Projection,
    WeightedPolynomial,
    enumerate_monotone_normal_forms,
    eval_normal_form,
    evaluate,
    is_monotone,
    normal_form_to_polynomial,
    random_polynomial,
    to_normal_form,
    to_table,
)
from .sugeno import (
    Capacity,
    capacity_from_function,
    check_comonotone_maxitive,
    check_horizontally_maxitive,
    check_idempotent,
    check_min_homogeneous,
    compare_formulations,
    enumerate_capacities,
    sugeno_eval,
    sugeno_eval_levels,
    sugeno_eval_pointwise,
    sugeno_table,
)
from .compat import (
    EquivalenceReport,
    boolean_restriction,
    enumerate_monotone_tables,
    is_compatible,
    median_decomposition_check,
    synthesize,
    verify_equivalence_suite,
)
from .constructions import (
    HorizontalSumLattice,
    ProductLattice,
    direct_product,
    horizontal_sum,
    horizontal_sum_decomposition_check,
    product_decomposition_check,
    project_capacity,
    split_capacity,
)
from . import io
