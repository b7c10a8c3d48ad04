"""Error contracts: domain errors surface as ValueError with usable messages,
and resource limits as CLI exit code 3 with a message naming the knob."""

import dataclasses

import numpy as np
import pytest

from hallalg import ClassTable, DoubleHall, GroundField, LimitExceeded, Quiver, Rep, hom_dim
from hallalg import cli

from conftest import a2, jordan, kronecker, zero_rep


def test_rep_shape_validation():
    with pytest.raises(ValueError):
        Rep(a2(), 2, (1, 1), [np.zeros((2, 1), dtype=np.int64)])
    with pytest.raises(ValueError):
        Rep(a2(), 2, (1,), [np.zeros((1, 1), dtype=np.int64)])
    with pytest.raises(ValueError):
        Rep(a2(), 2, (1, -1), [np.zeros((0, 1), dtype=np.int64)])


def test_hom_requires_matching_context():
    m = zero_rep(a2(), 2, (1, 0))
    n = zero_rep(jordan(), 2, (1,))
    with pytest.raises(ValueError):
        hom_dim(m, n)
    n3 = zero_rep(a2(), 3, (1, 0))
    with pytest.raises(ValueError):
        hom_dim(m, n3)


def test_classify_rejects_non_nilpotent():
    t = ClassTable(jordan(), GroundField(2), (1,))
    bad = Rep(jordan(), 2, (1,), [np.array([[1]])])
    with pytest.raises(ValueError):
        t.classify(bad)


def test_classify_requires_the_tables_quiver_and_field():
    """A representation of another quiver or field is rejected before its
    digits are packed with the table's key width."""
    t = ClassTable(a2(), GroundField(2), (1, 1))
    reversed_a2 = Rep(Quiver(2, [(1, 0)]), 2, (1, 1), [[[1]]])
    over_f3 = Rep(a2(), 3, (1, 1), [[[2]]])
    for rep in (reversed_a2, over_f3):
        with pytest.raises(ValueError, match="same quiver and field"):
            t.classify(rep)


def test_class_index_outside_its_dimension_is_a_domain_error():
    t = ClassTable(kronecker(), GroundField(2), (2, 2))
    h = DoubleHall(t)
    assert t.class_count((1, 1)) == 4
    for bad in (((1, 1), -1), ((1, 1), 4), ((1, 1), 9)):
        with pytest.raises(ValueError, match="no class"):
            t.cls(bad)
        with pytest.raises(ValueError, match="no class"):
            t.rep(bad)
    with pytest.raises(ValueError, match="no class"):
        t.hall_distribution(((1, 1), -1), (0, 1))
    assert (((1, 1), -1), (0, 1)) not in t._hall_dist
    with pytest.raises(ValueError, match="no class"):
        h.phi(h.u_plus(((1, 1), -1)), h.u_minus(((1, 1), -1)))
    with pytest.raises(ValueError, match="no class"):
        h.mult_plus(h.u_plus(((1, 0), 0)), h.u_plus(((0, 1), 5)))
    with pytest.raises(ValueError, match="no class"):
        h.mult_plus(h.u_plus(((1, 0), 3)), h.u_plus(((0, 1), 0)))


def test_element_constructors_reject_what_names_no_basis_element():
    """u_plus and u_minus take a class id, torus one integer per vertex.
    Otherwise omega, phi, counit and mult would answer for a basis element
    that does not exist."""
    t = ClassTable(kronecker(), GroundField(2), (2, 2))
    h = DoubleHall(t)
    assert h.u_plus(((1, 0), 0)) == h.omega(h.u_minus(((1, 0), 0)))
    bad = ((1, 0), 3)
    for make in (h.u_plus, h.u_minus):
        with pytest.raises(ValueError, match="no class"):
            make(bad)
    for mu in ((1, 0, 5), (1,), (), (1.0, 0), ("1", 0)):
        with pytest.raises(ValueError, match="one integer per vertex"):
            h.torus(mu)
    assert h.mult(h.torus((1, 0)), h.torus((0, -1))) == h.torus((1, -1))


def test_hall_numbers_reject_class_ids_that_name_no_class():
    """Every id of a Hall number goes through cls, whatever the dimensions:
    an index outside its dimension is a domain error, not a count of 0."""
    t = ClassTable(kronecker(), GroundField(2), (2, 2))
    assert t.hall(((1, 0), 0), ((0, 1), 0), ((1, 1), 0)) == 1
    assert t.hall_multi(((1, 1), 0), [((1, 0), 0), ((0, 1), 0)]) == 1
    for quot, sub, gamma in (
        (((1, 0), 7), ((0, 1), 0), ((1, 1), 0)),
        (((1, 0), 0), ((0, 1), 3), ((1, 1), 0)),
        (((1, 0), 0), ((0, 1), 0), ((1, 1), 4)),
        (((1, 0), 7), ((1, 0), 0), ((1, 1), 0)),  # dimensions that do not add up
    ):
        with pytest.raises(ValueError, match="no class"):
            t.hall(quot, sub, gamma)
    for gamma, parts in (
        (((1, 1), 0), [((1, 0), 5), ((0, 1), 0)]),
        (((1, 1), 0), [((1, 0), 0), ((0, 1), -1)]),
        (((1, 1), 9), [((1, 0), 0), ((0, 1), 0)]),
        (((0, 0), 4), []),
    ):
        with pytest.raises(ValueError, match="no class"):
            t.hall_multi(gamma, parts)


def test_table_bound_validation():
    with pytest.raises(ValueError):
        ClassTable(a2(), GroundField(2), (2,))
    with pytest.raises(ValueError):
        ClassTable(a2(), GroundField(2), (2, -1))
    t = ClassTable(a2(), GroundField(2), (1, 1))
    with pytest.raises(ValueError):
        t.classes((2, 2))


def test_classes_rejects_malformed_dimension():
    """A wrong-length or negative vector is a domain error, not a numpy one."""
    t = ClassTable(jordan(), GroundField(2), (2,))
    for mu in ((1, 2), (-1,), ()):
        with pytest.raises(ValueError, match="outside table bound"):
            t.classes(mu)


def test_classify_outside_the_bound_is_a_domain_error():
    """A representation outside the bound is rejected before its dimension
    vector is enumerated."""
    t = ClassTable(a2(), GroundField(2), (1, 1))
    with pytest.raises(ValueError, match="outside table bound"):
        t.classify(zero_rep(a2(), 2, (2, 0)))
    assert (2, 0) not in t._mu


def test_hall_distribution_rejects_malformed_sub_dimension():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    gamma = t.classes((1, 1))[0].cid
    for sub_dim in ((1,), (-1, 1), (2, 0)):
        with pytest.raises(ValueError, match="outside table bound"):
            t.hall_distribution(gamma, sub_dim)


A2_BOUND_11 = """
[quiver]
vertices = 2
arrows = [[1, 2]]
[field]
q = 2
[limits]
bound = [1, 1]
"""


def test_truncation_is_a_resource_limit_naming_the_bound(monkeypatch, tmp_path, capsys):
    # The suites stop at the table bound, so no config reaches
    # TruncationError; this builder multiplies past the bound itself.
    def build(table, config, **options):
        h = DoubleHall(table)
        s = table.simple_ids()[0]
        return h.mult_plus(h.u_plus(s), h.u_plus(s))

    verify = dataclasses.replace(cli._COMMANDS["verify"], build=build)
    monkeypatch.setitem(cli._COMMANDS, "verify", verify)
    code, out = cli.run_command("verify", cli.parse_config(A2_BOUND_11))
    assert code == 3
    assert out.startswith("resource limit: ") and "[limits] bound" in out
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(A2_BOUND_11)
    assert cli.main(["verify", "--config", str(cfg)]) == 3
    assert "[limits] bound" in capsys.readouterr().out


def test_a_bound_with_more_degrees_than_max_classes_is_refused_first(tmp_path, capsys):
    # Each of the 4 dimension vectors within (1, 1) holds a class, so
    # max_classes = 3 can never list them; none is enumerated first.
    text = A2_BOUND_11 + "max_classes = 3\n"
    t = cli.parse_config(text).table()
    with pytest.raises(LimitExceeded, match=r"\[limits\] bound"):
        t.degrees()
    assert not t._mu
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(text)
    assert cli.main(["classify", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("resource limit: ")
    assert "[limits] bound" in out and "[limits] max_classes" in out
    # cartan and roots never list the degrees.
    for command in ("cartan", "roots"):
        assert cli.main([command, "--config", str(cfg)]) == 0
