"""Exact Ringel-Hall algebra toolkit for nilpotent quiver representations.

The package builds isomorphism-class tables of nilpotent representations
over a prime field, the graded Hall Hopf algebras on both signs together
with their pairings and reduced Drinfeld double, the associated
Borcherds-Cartan data and root systems, the primitive-generator
enlargement of the index set, and executable suites that check the
structural identities tying all of this together.
"""

from .scalars import GroundField, Scalar, is_positive, q_binom, q_int, v_pow
from .repcat import (
    ClassTable,
    LimitExceeded,
    Quiver,
    Rep,
    RepClass,
    euler_form,
    ext_dim,
    hom_dim,
)
from .hallhopf import AlgElt, BasisSym, DoubleHall, TensorElt, TruncationError
from .gkm import (
    BorcherdsDatum,
    CartanMatrix,
    Root,
    cartan_from_datum,
    datum_from_table,
    fundamental_region,
    positive_roots,
    reflect,
    weyl_orbit,
)
from .primitives import (
    ExtendedDatum,
    GradedSubspace,
    decomposable_span,
    extend_datum,
    is_primitive,
    primitive_space,
)
from .verify import CheckReport, CheckResult, SUITES, run_suite

__version__ = "0.1.0"
