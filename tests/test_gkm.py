import random

import pytest

from hallalg import ClassTable, GroundField
from hallalg.gkm import (
    BorcherdsDatum,
    Root,
    cartan_from_datum,
    datum_from_table,
    fundamental_region,
    positive_roots,
    reflect,
    weyl_orbit,
)

from conftest import a2, jordan, kronecker


def _cartan(quiver):
    # The datum is read off the simple classes, so the bound must hold them.
    table = ClassTable(quiver, GroundField(2), (1,) * quiver.vertices)
    return cartan_from_datum(datum_from_table(table))


def test_datum_from_table_examples():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    assert datum_from_table(t).gram == ((2, -1), (-1, 2))
    t = ClassTable(jordan(), GroundField(2), (1,))
    assert datum_from_table(t).gram == ((0,),)
    t = ClassTable(kronecker(), GroundField(3), (1, 1))
    assert datum_from_table(t).gram == ((2, -2), (-2, 2))


def test_datum_validation():
    with pytest.raises(ValueError):
        BorcherdsDatum((0, 1), ((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        BorcherdsDatum((0, 1), ((2, -1), (-2, 2)))
    with pytest.raises(ValueError):
        BorcherdsDatum((0, 1), ((3, -2), (-2, 2)))


def test_cartan_from_datum_examples():
    c = _cartan(a2())
    assert c.entries == ((2, -1), (-1, 2))
    assert [str(e) for e in c.eps] == ["1", "1"]
    assert c.real_indices() == (0, 1)
    c = _cartan(jordan())
    assert c.entries == ((0,),)
    assert [str(e) for e in c.eps] == ["1"]
    assert c.imaginary_indices() == (0,)
    c = _cartan(kronecker())
    assert c.entries == ((2, -2), (-2, 2))


def test_reflect_examples():
    ca = _cartan(a2())
    assert reflect(ca, 0, (1, 0)) == (-1, 0)
    assert reflect(ca, 0, (0, 1)) == (1, 1)
    ck = _cartan(kronecker())
    assert reflect(ck, 0, (0, 1)) == (2, 1)
    cj = _cartan(jordan())
    with pytest.raises(ValueError):
        reflect(cj, 0, (1,))


def test_reflect_involutive():
    rng = random.Random(13)
    ck = _cartan(kronecker())
    ca = _cartan(a2())
    for c in (ck, ca):
        for _ in range(50):
            v = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            for i in c.real_indices():
                assert reflect(c, i, reflect(c, i, v)) == v


def test_fundamental_region_examples():
    assert fundamental_region(_cartan(a2()), 4) == set()
    assert fundamental_region(_cartan(jordan()), 3) == {(1,)}
    assert fundamental_region(_cartan(kronecker()), 4) == {(1, 1), (2, 2)}


def test_positive_roots_a2():
    roots = positive_roots(_cartan(a2()), 3)
    assert roots == (
        Root((0, 1), False),
        Root((1, 0), False),
        Root((1, 1), False),
    )


def test_positive_roots_kronecker():
    roots = positive_roots(_cartan(kronecker()), 5)
    real = {r.vector for r in roots if not r.imaginary}
    imag = {r.vector for r in roots if r.imaginary}
    assert real == {(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)}
    assert imag == {(1, 1), (2, 2)}


def test_positive_roots_jordan():
    roots = positive_roots(_cartan(jordan()), 3)
    assert roots == (Root((1,), True),)


def test_root_norms():
    for c in (_cartan(a2()), _cartan(kronecker())):
        g = c.datum.gram
        for r in positive_roots(c, 6):
            v = r.vector
            norm = sum(x * g[i][j] * v[j] for i, x in enumerate(v) for j in range(len(v)))
            if r.imaginary:
                assert norm <= 0
            else:
                assert norm > 0


def test_reflection_stability():
    c = _cartan(kronecker())
    height = 6
    vecs = {r.vector for r in positive_roots(c, height)}
    n = c.size
    simples = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    for v in vecs:
        for i in c.real_indices():
            w = reflect(c, i, v)
            if all(x >= 0 for x in w) and 0 < sum(w) <= height:
                assert w in vecs
            else:
                # A reflection may only exit through the negative of a simple.
                assert tuple(-x for x in w) in simples or sum(w) > height


def test_weyl_orbit():
    cj = _cartan(jordan())
    assert weyl_orbit(cj, [(s,) for s in range(2, 5)], 4) == {(2,), (3,), (4,)}
    assert weyl_orbit(cj, [], 4) == set()
    ck = _cartan(kronecker())
    assert weyl_orbit(ck, [], 5) == set()
