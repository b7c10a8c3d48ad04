"""End-to-end suite runs on quivers outside the three standard examples.

These guard the generic code paths: loops mixed with ordinary arrows,
longer orientations, reversed arrows, and a larger prime.
"""

import pytest

from hallalg import ClassTable, GroundField, Quiver
from hallalg.gkm import cartan_from_datum, datum_from_table
from hallalg.verify import (
    suite_character,
    suite_composition,
    suite_hopf,
    suite_kac,
    suite_pairing,
    suite_sv,
)


def loop_arrow():
    # a loop at vertex 0 and an arrow 0 -> 1
    return Quiver(2, [(0, 0), (0, 1)])


def a3():
    return Quiver(3, [(0, 1), (1, 2)])


def a2_reversed():
    return Quiver(2, [(1, 0)])


def _assert_pass(report):
    failures = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    assert report.overall == "pass", failures[:5]


@pytest.fixture(scope="module")
def loop_arrow_q2():
    return ClassTable(loop_arrow(), GroundField(2), (2, 2))


def test_loop_arrow_datum(loop_arrow_q2):
    datum = datum_from_table(loop_arrow_q2)
    assert datum.gram == ((0, -1), (-1, 2))
    cartan = cartan_from_datum(datum)
    assert cartan.entries == ((0, -1), (-1, 2))
    assert cartan.real_indices() == (1,)
    assert cartan.imaginary_indices() == (0,)


def test_loop_arrow_all_suites(loop_arrow_q2):
    _assert_pass(suite_hopf(loop_arrow_q2))
    _assert_pass(suite_pairing(loop_arrow_q2))
    _assert_pass(suite_composition(loop_arrow_q2))
    _assert_pass(suite_sv(loop_arrow_q2))
    _assert_pass(suite_character(loop_arrow_q2))


def test_loop_arrow_kac():
    table = ClassTable(loop_arrow(), GroundField(2), (3, 3))
    rep = suite_kac(table, 3)
    _assert_pass(rep)
    have = {
        mu
        for mu in [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (1, 2), (0, 2)]
        if table.indec_count(mu)
    }
    assert have == {(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)}


def test_a3_suites():
    table = ClassTable(a3(), GroundField(2), (1, 1, 1))
    _assert_pass(suite_hopf(table))
    _assert_pass(suite_composition(table))
    _assert_pass(suite_character(table))
    rep = suite_kac(table, 1)
    _assert_pass(rep)


def test_a3_kac_full_roots():
    table = ClassTable(a3(), GroundField(2), (3, 3, 3))
    rep = suite_kac(table, 3)
    _assert_pass(rep)
    expected = {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
    }
    have = set()
    for mu in expected | {(1, 0, 1), (2, 1, 0), (1, 2, 1)}:
        if table.indec_count(mu):
            have.add(mu)
    assert have == expected


def test_reversed_a2_suites():
    table = ClassTable(a2_reversed(), GroundField(2), (2, 2))
    _assert_pass(suite_hopf(table))
    _assert_pass(suite_composition(table))
    _assert_pass(suite_sv(table))
    _assert_pass(suite_character(table))
    # orientation flips the Euler form but not the class counts
    assert table.euler((0, 1), (1, 0)) == -1
    assert table.euler((1, 0), (0, 1)) == 0
    assert table.class_count((1, 1)) == 2


def test_kac_at_q3():
    rep = suite_kac(ClassTable(Quiver(2, [(0, 1)]), GroundField(3), (2, 2)), 2)
    _assert_pass(rep)
    rep = suite_kac(ClassTable(Quiver(1, [(0, 0)]), GroundField(3), (3,)), 3)
    _assert_pass(rep)
    rep = suite_kac(
        ClassTable(Quiver(2, [(0, 1), (0, 1)]), GroundField(3), (3, 3)), 3
    )
    _assert_pass(rep)


def test_q5_smoke():
    f5 = GroundField(5)
    assert ClassTable(Quiver(1, [(0, 0)]), f5, (2,)).class_count((2,)) == 2
    assert ClassTable(Quiver(2, [(0, 1), (0, 1)]), f5, (1, 1)).class_count((1, 1)) == 7
    table = ClassTable(Quiver(2, [(0, 1)]), f5, (1, 1))
    _assert_pass(suite_hopf(table))
    _assert_pass(suite_composition(table))
