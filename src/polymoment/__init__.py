"""Moment vanishing for complex polynomials on a segment.

Given P and endpoints a, b, the package computes the monodromy of P and its
planar tree, the invariant subspace of Q^n attached to the endpoints, its
decomposition into irreducible pieces indexed by admissible divisors, the
expansion of Q(P^-1) at infinity, and a constructive decomposition of any
solution of the moment equations into reducible summands.
"""

__version__ = "0.1.0"

from .errors import MomentProblemError
from .monodromy import (
    Cactus,
    ColoredVertex,
    MonodromyData,
    build_cactus,
    cactus_from_generators,
    choose_basepoint,
    circular_separation,
    continue_branches,
    critical_data,
    f_vectors,
    tree_path,
)
from .permgroup import (
    DivisorLattice,
    Permutation,
    SchurBasis,
    divisor_lattice,
    full_cycle,
    full_divisor_lattice,
    make_lattice,
    minimal_projectors,
    piece_of,
    rational_closure,
    schur_structure_constants,
    sigma_projector,
    stabilizer_orbits,
)
from .poly import (
    ComplexPoly,
    Tolerances,
    affine_equivalent,
    chebyshev,
    compose,
    decompose_right,
    derivative,
    eval_poly,
    poly_from_json,
    poly_to_json,
    roots,
)
from .rational import (
    RationalSubspace,
    contains,
    intersect,
    invariant_closure,
    orth_complement,
    span,
)
from .series import (
    MomentReport,
    PuiseuxSeries,
    brc_elements,
    extract_psi,
    h_series,
    puiseux_inverse,
    q_of_inverse,
    quadrature_moments,
    recover_polynomial,
    verify_vanishing,
)
from .solver import (
    ProblemInstance,
    ReducibleSummand,
    build_instance,
    decompose_solution,
    double_decompositions,
    exists_nonzero_solution,
    random_reducible_problem,
    reducible_generators,
    right_factor_for,
)

__all__ = [name for name in dir() if not name.startswith("_")]
