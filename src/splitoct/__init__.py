"""Exact arithmetic for the split octonions, their automorphism group,
and the separating and generating invariant families of several
octonions, with a trace-word normalizer, symbolic identity checks, and
a finite-field brute-force oracle.
"""

from .scalars import GF, QQ, PolynomialRing, Polynomial, coefficients_in_z_half
from .octonion import (Octonion, basis, identity, zero, unit_e, unit_u, unit_v,
                       from_coords, q_form)
from .words import (left_normed, evaluate, normalize_trace, multilinear_sign,
                    TraceExpr, DECOMPOSABLE)
from .group import (GroupElement, from_sl3, delta1, delta2, hbar, theta,
                    apply_tuple, is_automorphism, group_order_formula)
from .invariants import (Descriptor, enumerate_set, evaluate_family,
                         eval_descriptor, q_prime, psi, psi_hat, embed_matrix,
                         generic_octonion)
from .symbolic import (verify_identity, identity_table,
                       verify_skew_symmetrization, decomposability_check,
                       IDENTITY_NAMES)
from .orbits import (rank, algebra_closure, separate, limit,
                     nonclosedness_witnesses, gram_matrix, orbit_equal_oracle)

__version__ = "0.1.0"
