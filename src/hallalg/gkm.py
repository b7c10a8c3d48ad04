"""Borcherds data, Cartan matrices, Weyl reflections, and height-bounded
root system enumeration.

The index set of a datum is an ordered tuple of opaque labels (positions
in the table's simple classes for the datum of a class table, (theta, p)
pairs after enlargement); the symmetric bilinear form is stored as an
integer Gram matrix over those labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .repcat import ClassTable

__all__ = [
    "BorcherdsDatum",
    "CartanMatrix",
    "Root",
    "cartan_from_datum",
    "datum_from_table",
    "fundamental_region",
    "positive_roots",
    "reflect",
    "weyl_orbit",
]

Vec = tuple[int, ...]


@dataclass(frozen=True)
class BorcherdsDatum:
    """An index set with a symmetric bilinear form satisfying the
    generalized Kac-Moody axioms."""

    labels: tuple
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        g = self.gram
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("Gram matrix shape does not match the index set")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError(f"form is not symmetric at ({i},{j})")
                if i != j and g[i][j] > 0:
                    raise ValueError(
                        f"off-diagonal form value {g[i][j]} > 0 at ({i},{j})"
                    )
                if g[i][i] > 0 and (2 * g[i][j]) % g[i][i]:
                    raise ValueError(
                        f"2(i,j)/(i,i) not integral at ({i},{j})"
                    )

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CartanMatrix:
    """A symmetrizable Borcherds-Cartan matrix with its symmetrizers."""

    datum: BorcherdsDatum
    entries: tuple[tuple[int, ...], ...]
    eps: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def real_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.entries[i][i] == 2)

    def imaginary_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.entries[i][i] != 2)


def datum_from_table(table: ClassTable) -> BorcherdsDatum:
    """The Borcherds datum of a class table: its simple classes
    (`ClassTable.simple_ids`), labelled by position, with the symmetric
    Euler form of their dimension vectors."""
    degrees = [cid[0] for cid in table.simple_ids()]
    gram = tuple(tuple(table.sym(a, b) for b in degrees) for a in degrees)
    return BorcherdsDatum(tuple(range(len(degrees))), gram)


def cartan_from_datum(d: BorcherdsDatum) -> CartanMatrix:
    """Entries 2(i,j)/(i,i) on rows with (i,i) > 0, (i,j) otherwise."""
    n = d.size
    entries = []
    eps = []
    for i in range(n):
        dii = d.gram[i][i]
        if dii > 0:
            row = tuple(2 * d.gram[i][j] // dii for j in range(n))
            eps.append(Fraction(dii, 2))
        else:
            row = tuple(d.gram[i][j] for j in range(n))
            eps.append(Fraction(1))
        entries.append(row)
    return CartanMatrix(d, tuple(entries), tuple(eps))


def reflect(c: CartanMatrix, i: int, mu: Vec) -> Vec:
    """Simple reflection at a real index: mu - (2(mu,i)/(i,i)) e_i."""
    if c.entries[i][i] != 2:
        raise ValueError(f"index {i} is imaginary; reflections need a real index")
    d = c.datum
    num = 2 * sum(m * d.gram[k][i] for k, m in enumerate(mu))
    den = d.gram[i][i]
    assert num % den == 0
    out = list(mu)
    out[i] -= num // den
    return tuple(out)


def _support_connected(d: BorcherdsDatum, mu: Vec) -> bool:
    supp = [i for i, m in enumerate(mu) if m]
    if not supp:
        return False
    seen = {supp[0]}
    frontier = [supp[0]]
    while frontier:
        i = frontier.pop()
        for j in supp:
            if j not in seen and d.gram[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(supp)


def _vectors_of_height(n: int, h: int):
    if n == 1:
        yield (h,)
        return
    for first in range(h + 1):
        for rest in _vectors_of_height(n - 1, h - first):
            yield (first,) + rest


def fundamental_region(c: CartanMatrix, height: int) -> set[Vec]:
    """Nonzero vectors with connected support pairing nonpositively against
    every real index, minus the multiples s*e_i (s >= 2) of imaginary ones."""
    d = c.datum
    n = d.size
    real = c.real_indices()
    imag = set(c.imaginary_indices())
    out: set[Vec] = set()
    for h in range(1, height + 1):
        for mu in _vectors_of_height(n, h):
            if not _support_connected(d, mu):
                continue
            unit = [i for i, m in enumerate(mu) if m]
            if len(unit) == 1 and mu[unit[0]] >= 2 and unit[0] in imag:
                continue
            if all(
                sum(m * d.gram[k][i] for k, m in enumerate(mu)) <= 0 for i in real
            ):
                out.add(mu)
    return out


@dataclass(frozen=True, order=True)
class Root:
    """A positive root vector tagged by its real or imaginary kind."""

    vector: Vec
    imaginary: bool


def weyl_orbit(c: CartanMatrix, seeds, height: int) -> set[Vec]:
    """Closure of the seed vectors under simple reflections, kept inside the
    nonnegative cone and the height bound."""
    real = c.real_indices()
    seen: set[Vec] = set()
    frontier = [
        tuple(s) for s in seeds if 0 < sum(s) <= height and all(x >= 0 for x in s)
    ]
    seen.update(frontier)
    while frontier:
        nxt = []
        for v in frontier:
            for i in real:
                w = reflect(c, i, v)
                if w in seen or any(x < 0 for x in w) or not 0 < sum(w) <= height:
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return seen


def positive_roots(c: CartanMatrix, height: int) -> tuple[Root, ...]:
    """All positive roots of height at most the bound.

    Real roots are the reflection closure of the real simples, imaginary
    ones the closure of the fundamental region; reflections from a vector
    of nonpositive pairing never lower the height, so the bounded closure
    is complete.
    """
    n = c.size
    real_simples = [
        tuple(1 if k == i else 0 for k in range(n)) for i in c.real_indices()
    ]
    reals = weyl_orbit(c, real_simples, height)
    imags = weyl_orbit(c, sorted(fundamental_region(c, height)), height)
    out = [Root(v, False) for v in reals] + [Root(v, True) for v in imags]
    return tuple(sorted(out))
