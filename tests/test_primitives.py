import json

import pytest

from hallalg import ClassTable, DoubleHall, GroundField, Quiver
from hallalg.cli import main, parse_config
from hallalg.gkm import datum_from_table
from hallalg.primitives import (
    decomposable_span,
    extend_datum,
    is_primitive,
    primitive_space,
)

from conftest import CONFIGS, a2, jordan, kronecker


def _H(table):
    return DoubleHall(table)


def _proportional(H, x, y):
    """Whether two nonzero elements span the same line."""
    sx = sorted(x.terms.items())
    sy = sorted(y.terms.items())
    if [k for k, _ in sx] != [k for k, _ in sy]:
        return False
    ratio = sx[0][1] / sy[0][1]
    return all(cx == ratio * cy for (_, cx), (_, cy) in zip(sx, sy))


def test_decomposable_span_dims(a2_q2, kronecker_q2, jordan_q2):
    assert decomposable_span(_H(a2_q2), (1, 1)).dim == 2
    assert decomposable_span(_H(kronecker_q2), (1, 1)).dim == 2
    assert decomposable_span(_H(jordan_q2), (2,)).dim == 1


def test_jordan_decomposable_span_content(jordan_q2):
    H = _H(jordan_q2)
    span = decomposable_span(H, (2,))
    # u_1 * u_1 = 3 u_{semisimple} + u_{block} at q = 2.
    semi, block = [c.cid for c in jordan_q2.classes((2,))]
    assert jordan_q2.cls(semi).aut == 6 and jordan_q2.cls(block).aut == 2
    expect = H.u_plus(semi).scaled(3) + H.u_plus(block)
    assert span.dim == 1
    assert _proportional(H, span.basis[0], expect)


def test_primitive_space_dims(a2_q2, kronecker_q2, jordan_q2):
    assert primitive_space(_H(a2_q2), (1, 1)).dim == 0
    assert primitive_space(_H(kronecker_q2), (1, 1)).dim == 2
    assert primitive_space(_H(jordan_q2), (2,)).dim == 1
    assert primitive_space(_H(jordan_q2), (3,)).dim == 1


def test_jordan_primitive_vector(jordan_q2):
    H = _H(jordan_q2)
    semi, block = [c.cid for c in jordan_q2.classes((2,))]
    lsp = primitive_space(H, (2,))
    expect = H.u_plus(semi) - H.u_plus(block)
    assert lsp.dim == 1
    assert _proportional(H, lsp.basis[0], expect)


def test_is_primitive_examples(jordan_q2):
    H = _H(jordan_q2)
    s = jordan_q2.simple_ids()[0]
    assert is_primitive(H, H.u_plus(s))
    semi, block = [c.cid for c in jordan_q2.classes((2,))]
    assert is_primitive(H, H.u_plus(semi) - H.u_plus(block))
    assert not is_primitive(H, H.u_plus(semi))


def test_is_primitive_rejects_inhomogeneous(jordan_q2):
    H = _H(jordan_q2)
    s = jordan_q2.simple_ids()[0]
    semi = jordan_q2.classes((2,))[0].cid
    with pytest.raises(ValueError):
        is_primitive(H, H.u_plus(s) + H.u_plus(semi))
    with pytest.raises(ValueError):
        is_primitive(H, H.u_plus(s), (2,))


def test_degree_domain_errors(jordan_q2):
    H = _H(jordan_q2)
    for bad in ((0,), (1,), (5,)):
        with pytest.raises(ValueError):
            decomposable_span(H, bad)
        with pytest.raises(ValueError):
            primitive_space(H, bad)


def test_rank_nullity_everywhere(kronecker_q2):
    H = _H(kronecker_q2)
    t = kronecker_q2
    for theta in t.degrees():
        if sum(theta) < 2:
            continue
        xi = decomposable_span(H, theta)
        lsp = primitive_space(H, theta)
        assert xi.dim + lsp.dim == t.class_count(theta)
        for x in lsp.basis:
            assert is_primitive(H, x, theta)


@pytest.mark.parametrize(
    "quiver, q, bound",
    [
        (kronecker(), 2, (2, 2)),
        (jordan(), 2, (4,)),
        (Quiver(2, [(0, 1), (1, 0)]), 2, (2, 2)),
        (Quiver(3, [(0, 1), (1, 2), (0, 2)]), 2, (1, 1, 1)),
        (kronecker(), 3, (1, 1)),
    ],
    ids=["kronecker-q2", "jordan-q2", "c2-q2", "x2-q2", "kronecker-q3"],
)
def test_primitive_space_is_psi_orthogonal_to_the_decomposable_span(quiver, q, bound):
    """On the positive algebra psi is the diagonal pairing, so every
    primitive basis vector pairs to zero with every decomposable one, and
    the two dimensions add up to the class count."""
    H = _H(ClassTable(quiver, GroundField(q), bound))
    for theta in H.table.degrees():
        if sum(theta) < 2:
            continue
        xi = decomposable_span(H, theta)
        lsp = primitive_space(H, theta)
        assert xi.dim + lsp.dim == H.table.class_count(theta)
        for x in lsp.basis:
            for y in xi.basis:
                assert not H.psi(x, y)


def test_extend_datum_jordan():
    t = ClassTable(jordan(), GroundField(2), (3,))
    ext = extend_datum(_H(t))
    assert ext.new_labels == (((2,), 1), ((3,), 1))
    assert all(
        ext.datum.gram[i][j] == 0
        for i in range(ext.datum.size)
        for j in range(ext.datum.size)
    )


def test_extend_datum_a2(a2_q2):
    ext = extend_datum(_H(a2_q2))
    assert ext.new_labels == ()


def test_extend_datum_kronecker():
    ext = extend_datum(_H(ClassTable(kronecker(), GroundField(2), (1, 1))))
    assert ext.new_labels == (((1, 1), 1), ((1, 1), 2))
    for label in ext.new_labels:
        k = ext.datum.labels.index(label)
        assert ext.datum.gram[k][k] == 0
    # every adjoined index is imaginary
    assert set(ext.cartan.real_indices()) <= {0, 1}


def test_projection():
    """Each label's degree: the simples' dimensions, then theta per (theta, p)."""
    ext = extend_datum(_H(ClassTable(kronecker(), GroundField(2), (1, 1))))
    assert ext.degrees == ((1, 0), (0, 1), (1, 1), (1, 1))


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_datum_is_read_off_the_simple_classes(config):
    """The Gram matrix is the symmetric Euler form on the simples' dimensions,
    and the enlarged datum's degrees are those, then theta per new label."""
    t = parse_config((CONFIGS / f"{config}.cfg").read_text()).table()
    d = [cid[0] for cid in t.simple_ids()]
    gram = datum_from_table(t).gram
    assert all(gram[i][j] == t.sym(a, b) for i, a in enumerate(d) for j, b in enumerate(d))
    ext = extend_datum(_H(t))
    assert ext.degrees == tuple(d) + tuple(theta for theta, _ in ext.new_labels)


@pytest.mark.parametrize("q", [2, 3])
def test_tube_sv_has_one_new_index_per_multiple_of_delta(q, cli_json, tmp_path, capsys):
    """C2 is the rank-2 tube.  Its Hall algebra is U_v^+ of affine sl_2 times a
    polynomial ring with one central generator in each degree k*delta
    (Schiffmann 2000; Hubery 2005), so `sv` on the bound (2, 2) adjoins exactly
    one index at delta = (1, 1) and one at 2*delta = (2, 2), whatever q is."""
    if q == 2:
        code, out = cli_json("tube2", ["sv"])
    else:
        text = (CONFIGS / "tube2.cfg").read_text()
        assert "q = 2\n" in text
        cfg = tmp_path / "tube2-q3.cfg"
        cfg.write_text(text.replace("q = 2\n", f"q = {q}\n"))
        code = main(["sv", "--config", str(cfg), "--format", "json"])
        out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["new_indices"] == [[[1, 1], 1], [[2, 2], 1]]
