"""Primitive complements of decomposable degrees and the enlarged datum.

In each degree theta of the positive algebra the span of products of
strictly smaller degrees is computed by exact row reduction over
Q(sqrt(q)); its orthogonal complement under the diagonal pairing is the
space of new primitive generators, and every nonzero complement
contributes new imaginary indices to the Borcherds datum.  No
orthonormalization is performed: all downstream identities are checked on
arbitrary bases, which keeps every coefficient inside Q(sqrt(q)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gkm import BorcherdsDatum, CartanMatrix, cartan_from_datum, datum_from_table
from .hallhopf import AlgElt, BasisSym, DoubleHall, TensorElt
from .repcat import DimVec, dims_below, dim_sub
from .scalars import Scalar

__all__ = [
    "GradedSubspace",
    "ExtendedDatum",
    "decomposable_span",
    "extend_datum",
    "is_primitive",
    "primitive_space",
]


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace of one homogeneous degree, by a linearly independent basis."""

    theta: DimVec
    basis: tuple[AlgElt, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _scalar_rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], piv


def _from_vector(H: DoubleHall, vec: list[Scalar], order: list) -> AlgElt:
    return AlgElt(
        {
            BasisSym(H.zero_cid, H.zero_dim, cid): c
            for cid, c in zip(order, vec)
            if c
        }
    )


def _span_rows(H: DoubleHall, theta: DimVec):
    """The classes of theta, and the rref rows and pivots of the products
    u_a u_b over every split of theta into two nonzero degrees.

    The product of two basis monomials is exactly the structure constants
    of _u_product_terms, so each row is read off them directly.
    """
    _check_degree(H, theta)
    order = [c.cid for c in H.table.classes(theta)]
    pos = {cid: k for k, cid in enumerate(order)}
    rows = []
    for nu in dims_below(theta)[1:-1]:  # every 0 < nu < theta
        rest = dim_sub(theta, nu)
        for a in H.table.classes(nu):
            for b in H.table.classes(rest):
                row = [H.field.zero] * len(order)
                for g, c in H._u_product_terms(a.cid, b.cid):
                    row[pos[g]] = c
                rows.append(row)
    red, piv = _scalar_rref(rows)
    return order, red, piv


def decomposable_span(H: DoubleHall, theta) -> GradedSubspace:
    """Span of all two-factor products of strictly smaller positive degrees.

    Longer products are linear combinations of two-factor ones by
    associativity, so this is the whole degree-theta part of the subalgebra
    generated below theta.  The basis is the span's reduced row echelon form.
    """
    theta = tuple(theta)
    order, red, _ = _span_rows(H, theta)
    return GradedSubspace(theta, tuple(_from_vector(H, r, order) for r in red))


def primitive_space(H: DoubleHall, theta) -> GradedSubspace:
    """Orthogonal complement of the decomposable span under the diagonal
    pairing; its dimension is the class count minus the span's rank.

    The complement is the null space of R diag(1/aut), with R the span's
    reduced row echelon form.  Scaling columns keeps the pivots, and dividing
    row i by its pivot entry 1/aut(piv_i) makes R diag(1/aut) reduced again,
    with entries R[i][c] aut(piv_i) / aut(c).  So free column f has the null
    vector e_f - sum_i R[i][f] aut(piv_i) / aut(f) e_{piv_i}.
    """
    theta = tuple(theta)
    order, red, piv = _span_rows(H, theta)
    auts = [H.table.aut(cid) for cid in order]
    basis = []
    for f in range(len(order)):
        if f in piv:
            continue
        vec = [H.field.zero] * len(order)
        vec[f] = H.field.one
        for row, c in zip(red, piv):
            vec[c] = -(row[f] * Fraction(auts[c], auts[f]))
        basis.append(_from_vector(H, vec, order))
    return GradedSubspace(theta, tuple(basis))


def _check_degree(H: DoubleHall, theta: DimVec):
    if sum(theta) == 0:
        raise ValueError("degree zero has no decomposable span")
    if sum(theta) == 1:
        raise ValueError(f"degree {theta} is a vertex simple")


def is_primitive(H: DoubleHall, x: AlgElt, theta=None) -> bool:
    """Whether the comultiplication of x is exactly x (x) 1 + K_theta (x) x."""
    if not x:
        return True
    deg = x.degree()
    if deg is None or (theta is not None and tuple(theta) != deg):
        raise ValueError("input is not homogeneous of the stated degree")
    unit = BasisSym(H.zero_cid, H.zero_dim, H.zero_cid)
    ktheta = BasisSym(H.zero_cid, deg, H.zero_cid)
    expect = TensorElt({(sym, unit): c for sym, c in x.terms.items()})
    expect = expect + TensorElt({(ktheta, sym): c for sym, c in x.terms.items()})
    return H.comult_plus(x) == expect


@dataclass(frozen=True)
class ExtendedDatum:
    """The enlarged Borcherds datum together with its new generators.

    Labels are positions in the table's simple classes for the original
    indices and (theta, p) pairs, ordered by increasing total degree then
    lexicographic theta, for the adjoined ones.  degrees[k] is the dimension
    vector of label k: the simples' dimensions, then theta for each
    (theta, p).
    """

    base: BorcherdsDatum
    datum: BorcherdsDatum
    cartan: CartanMatrix
    degrees: tuple
    new_labels: tuple
    generators: dict
    records: tuple


def extend_datum(H: DoubleHall) -> ExtendedDatum:
    """Adjoin one imaginary index per primitive generator in every degree
    up to the table bound, with the pulled-back bilinear form."""
    table = H.table
    base = datum_from_table(table)
    new_labels = []
    generators: dict = {}
    records = []
    for theta in table.degrees():
        if sum(theta) < 2:
            continue
        lsp = primitive_space(H, theta)
        nclasses = table.class_count(theta)
        records.append((theta, nclasses, nclasses - lsp.dim, lsp))
        for p, gen in enumerate(lsp.basis, start=1):
            label = (theta, p)
            new_labels.append(label)
            generators[label] = gen
    degrees = tuple(cid[0] for cid in table.simple_ids()) + tuple(t for t, _ in new_labels)
    gram = tuple(tuple(table.sym(a, b) for b in degrees) for a in degrees)
    datum = BorcherdsDatum(base.labels + tuple(new_labels), gram)
    return ExtendedDatum(
        base=base,
        datum=datum,
        cartan=cartan_from_datum(datum),
        degrees=degrees,
        new_labels=tuple(new_labels),
        generators=generators,
        records=tuple(records),
    )
