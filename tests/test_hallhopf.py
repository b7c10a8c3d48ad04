import itertools
import math
import random
from fractions import Fraction

import pytest

from hallalg import ClassTable, DoubleHall, GroundField, Quiver, TruncationError
from hallalg.hallhopf import AlgElt, BasisSym, TensorElt
from hallalg.repcat import dim_sub, dims_below

from conftest import a2, jordan, kronecker


def _H(table):
    return DoubleHall(table)


def _indec_11(table):
    return next(c.cid for c in table.classes((1, 1)) if c.indecomposable)


def _split_11(table):
    return next(c.cid for c in table.classes((1, 1)) if not c.indecomposable)


# ----- multiplication -------------------------------------------------------


def test_mult_plus_a2(a2_q2):
    H = _H(a2_q2)
    s1, s2 = a2_q2.simple_ids()
    x = _indec_11(a2_q2)
    sp = _split_11(a2_q2)
    v_inv = H.field.v_pow(-1)
    expect = (H.u_plus(sp) + H.u_plus(x)).scaled(v_inv)
    assert H.mult_plus(H.u_plus(s1), H.u_plus(s2)) == expect
    assert H.mult_plus(H.u_plus(s2), H.u_plus(s1)) == H.u_plus(sp)


def test_torus_multiplication(a2_q2):
    H = _H(a2_q2)
    assert H.mult(H.torus((1, 0)), H.torus((0, 1))) == H.torus((1, 1))
    assert H.mult(H.torus((1, -1)), H.torus((-1, 1))) == H.one()


def test_unit_laws(a2_q2):
    H = _H(a2_q2)
    x = H.u_plus(_indec_11(a2_q2)) + H.torus((1, 0)).scaled(Fraction(1, 2))
    assert H.mult(H.one(), x) == x
    assert H.mult(x, H.one()) == x


def test_torus_commutation_twists(kronecker_q2):
    H = _H(kronecker_q2)
    t = kronecker_q2
    s1, s2 = t.simple_ids()
    for i, cid in enumerate((s1, s2)):
        for mu in ((1, 0), (0, 1), (1, 1)):
            pair = t.sym(mu, t.quiver.unit_dim(i))
            lhs = H.mult(H.torus(mu), H.u_plus(cid))
            rhs = H.mult(H.u_plus(cid), H.torus(mu)).scaled(H.field.v_pow(pair))
            assert lhs == rhs
            lhs = H.mult(H.torus(mu), H.u_minus(cid))
            rhs = H.mult(H.u_minus(cid), H.torus(mu)).scaled(H.field.v_pow(-pair))
            assert lhs == rhs


def test_mult_grading(jordan_q2):
    H = _H(jordan_q2)
    t = jordan_q2
    s = t.simple_ids()[0]
    prod = H.mult_plus(H.u_plus(s), H.u_plus(s))
    assert prod.degree() == (2,)
    prod = H.mult(H.u_minus(s), H.u_plus(s))
    assert all(sym.degree() == (0,) for sym in prod.terms)


def test_truncation_error(jordan_q2):
    H = _H(jordan_q2)
    big = jordan_q2.classes((4,))[0].cid
    s = jordan_q2.simple_ids()[0]
    with pytest.raises(TruncationError):
        H.mult_plus(H.u_plus(big), H.u_plus(s))
    with pytest.raises(TruncationError):
        H.mult(H.u_minus(big), H.u_minus(s))
    # A mixed product that leaves the bound only after straightening:
    # (u_big^- u_s^+) u_s^- has the term u_big^- u_s^- of degree 5.
    mixed = H.mult(H.u_minus(big), H.u_plus(s))
    with pytest.raises(TruncationError):
        H.mult(mixed, H.u_minus(s))


# ----- comultiplication, counit, antipode ------------------------------------


def test_comult_simple(a2_q2):
    H = _H(a2_q2)
    s1 = a2_q2.simple_ids()[0]
    zero = a2_q2.zero_id()
    unit = BasisSym(zero, (0, 0), zero)
    x = BasisSym(zero, (0, 0), s1)
    k1 = BasisSym(zero, (1, 0), zero)
    expect = TensorElt({(x, unit): H.field.one, (k1, x): H.field.one})
    assert H.comult_plus(H.u_plus(s1)) == expect


def test_comult_torus_grouplike(a2_q2):
    H = _H(a2_q2)
    zero = a2_q2.zero_id()
    k = BasisSym(zero, (1, -1), zero)
    assert H.comult_plus(H.torus((1, -1))) == TensorElt({(k, k): H.field.one})


def test_comult_indecomposable_a2(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    zero = t.zero_id()
    s1, s2 = t.simple_ids()
    x = _indec_11(t)
    unit = BasisSym(zero, (0, 0), zero)
    xs = BasisSym(zero, (0, 0), x)
    # middle term in K-first form: K_{S2} u_{S1} (x) u_{S2} with coefficient 1
    middle = (BasisSym(zero, (0, 1), s1), BasisSym(zero, (0, 0), s2))
    expect = TensorElt(
        {
            (xs, unit): H.field.one,
            (BasisSym(zero, (1, 1), zero), xs): H.field.one,
            middle: H.field.one,
        }
    )
    assert H.comult_plus(H.u_plus(x)) == expect


def test_comult_minus_simple(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    zero = t.zero_id()
    s1 = t.simple_ids()[0]
    unit = BasisSym(zero, (0, 0), zero)
    y = BasisSym(s1, (0, 0), zero)
    kneg = BasisSym(zero, (-1, 0), zero)
    expect = TensorElt({(unit, y): H.field.one, (y, kneg): H.field.one})
    assert H.comult_minus(H.u_minus(s1)) == expect


def test_counit(a2_q2):
    H = _H(a2_q2)
    s1 = a2_q2.simple_ids()[0]
    assert H.counit(H.u_plus(s1)) == H.field.zero
    assert H.counit(H.torus((2, -1))) == H.field.one
    assert H.counit(H.one()) == H.field.one


def test_antipode_examples(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    zero = t.zero_id()
    s1 = t.simple_ids()[0]
    assert H.antipode_plus(H.torus((1, -2))) == H.torus((-1, 2))
    expect = AlgElt({BasisSym(zero, (-1, 0), s1): -H.field.one})
    assert H.antipode_plus(H.u_plus(s1)) == expect
    expect = AlgElt({BasisSym(s1, (1, 0), zero): -H.field.one})
    assert H.antipode_minus(H.u_minus(s1)) == expect
    assert H.antipode_plus(H.one()) == H.one()


def _class_sequences(t, mu):
    """Every tuple of nonzero classes whose dimension vectors sum to mu."""
    if not sum(mu):
        return [()]
    return [
        (c.cid,) + tail
        for nu in dims_below(mu)
        if sum(nu)
        for c in t.classes(nu)
        for tail in _class_sequences(t, dim_sub(mu, nu))
    ]


def _xiao_antipode(H, g, plus):
    """S(u_g) by Xiao's sum over filtrations of M_g (Xiao 1997).

    A sequence of factors s_1, ..., s_m, top first, weighs (-1)^m
    v^(2 sum_{i<j} <s_i, s_j>) prod |Aut s_i| / |Aut g| times the number of
    such filtrations of M_g, and reaches u_pi as often as M_pi has
    filtrations with the same factors.  The minus sign reverses the factors
    of M_pi and drops the v-twist.
    """
    t = H.table
    mu = tuple(-d for d in g[0]) if plus else g[0]
    out = AlgElt()
    for seq in _class_sequences(t, g[0]):
        n_g = t.hall_multi(g, seq)
        if not n_g:
            continue
        twist = sum(t.euler(a[0], b[0]) for a, b in itertools.combinations(seq, 2))
        weight = Fraction((-1) ** len(seq) * n_g * math.prod(t.aut(s) for s in seq), t.aut(g))
        c = H.field.v_pow(2 * twist if plus else 0) * weight
        for pi in t.classes(g[0]):
            n_pi = t.hall_multi(pi.cid, seq if plus else seq[::-1])
            if n_pi:
                out = out + H.sym_elt(H._monomial(pi.cid, mu, plus)).scaled(c * n_pi)
    return out


XIAO_TABLES = [
    (a2(), 2, (2, 2)),
    (jordan(), 2, (4,)),
    (jordan(), 3, (3,)),
    (kronecker(), 2, (2, 2)),
    (kronecker(), 3, (1, 2)),
    (Quiver(2, [(0, 1), (1, 0)]), 2, (2, 2)),
    (Quiver(3, [(0, 1), (1, 2)]), 2, (2, 1, 2)),
    (Quiver(1, [(0, 0), (0, 0)]), 2, (2,)),
]


def test_antipode_matches_xiaos_filtration_sum():
    for quiver, q, bound in XIAO_TABLES:
        t = ClassTable(quiver, GroundField(q), bound)
        H = _H(t)
        for mu in t.degrees():
            for c in t.classes(mu):
                assert H.antipode_plus(H.u_plus(c.cid)) == _xiao_antipode(H, c.cid, True)
                assert H.antipode_minus(H.u_minus(c.cid)) == _xiao_antipode(H, c.cid, False)


# ----- involution ------------------------------------------------------------


def test_omega_on_basis(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    x = _indec_11(t)
    lhs = H.omega(
        AlgElt({BasisSym(t.zero_id(), (1, -1), x): H.field.one})
    )
    rhs = H.mult(H.torus((-1, 1)), H.u_minus(x))
    assert lhs == rhs


def test_omega_linear_and_involutive(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    rng = random.Random(20240811)
    cids = [c.cid for mu in t.degrees() for c in t.classes(mu)]
    for _ in range(12):
        terms = {}
        for _ in range(3):
            sym = BasisSym(
                rng.choice(cids),
                (rng.randrange(-1, 2), rng.randrange(-1, 2)),
                rng.choice(cids),
            )
            terms[sym] = H.field.scalar(rng.randrange(1, 5), rng.randrange(-2, 3))
        x = AlgElt(terms)
        y = AlgElt({k: v for k, v in list(terms.items())[:1]})
        assert H.omega(x + y) == H.omega(x) + H.omega(y)
        assert H.omega(H.omega(x)) == x


# ----- pairings ---------------------------------------------------------------


def test_phi_examples(kronecker_q2):
    H = _H(kronecker_q2)
    t = kronecker_q2
    s1, s2 = t.simple_ids()
    one = H.field.one
    assert H.phi(H.u_plus(s1), H.u_minus(s1)) == one  # 1/(q-1) at q=2
    assert H.phi(H.u_plus(s1), H.u_minus(s2)) == H.field.zero
    for mu, nu in (((1, 0), (0, 1)), ((1, 1), (1, 1)), ((2, 0), (0, 1))):
        assert H.phi(H.torus(mu), H.torus(nu)) == H.field.v_pow(-t.sym(mu, nu))


def test_phi_rejects_mixed_inputs(a2_q2):
    H = _H(a2_q2)
    s1 = a2_q2.simple_ids()[0]
    with pytest.raises(ValueError, match="phi needs a pure plus left argument"):
        H.phi(H.u_minus(s1), H.u_minus(s1))
    with pytest.raises(ValueError, match="phi needs a pure minus right argument"):
        H.phi(H.u_plus(s1), H.u_plus(s1))


def test_psi_diagonal(jordan_q2):
    H = _H(jordan_q2)
    t = jordan_q2
    for mu in t.degrees():
        for a in t.classes(mu):
            for b in t.classes(mu):
                val = H.psi(H.u_plus(a.cid), H.u_plus(b.cid))
                if a.cid == b.cid:
                    assert val == H.field.scalar(Fraction(1, a.aut))
                else:
                    assert val == H.field.zero


# ----- the double -------------------------------------------------------------


def test_commutator_identity_all_quivers():
    for quiver, bound in ((a2(), (1, 1)), (jordan(), (2,)), (kronecker(), (1, 1))):
        for q in (2, 3):
            t = ClassTable(quiver, GroundField(q), bound)
            H = _H(t)
            simples = t.simple_ids()
            for i, si in enumerate(simples):
                for j, sj in enumerate(simples):
                    lhs = H.mult(H.u_plus(si), H.u_minus(sj)) - H.mult(
                        H.u_minus(sj), H.u_plus(si)
                    )
                    ei = t.quiver.unit_dim(i)
                    rhs = (
                        H.torus(ei) - H.torus(tuple(-x for x in ei))
                    ).scaled(-H.phi(H.u_plus(si), H.u_minus(sj)))
                    assert lhs == rhs


def test_double_normal_form(kronecker_q2):
    H = _H(kronecker_q2)
    t = kronecker_q2
    x = _indec_11(t)
    prod = H.mult(H.u_plus(x), H.u_minus(x))
    assert prod.terms  # nontrivial straightening happened
    for sym in prod.terms:
        assert isinstance(sym, BasisSym)


def test_double_associativity_random():
    t = ClassTable(a2(), GroundField(2), (3, 3))
    H = _H(t)
    rng = random.Random(515)
    cids = [c.cid for mu in ((0, 0), (1, 0), (0, 1), (1, 1)) for c in t.classes(mu)]
    elts = []
    for _ in range(8):
        sym = BasisSym(
            rng.choice(cids),
            (rng.randrange(-1, 2), rng.randrange(-1, 2)),
            rng.choice(cids),
        )
        elts.append(AlgElt({sym: H.field.scalar(rng.randrange(1, 4))}))
    for _ in range(15):
        x, y, z = rng.choice(elts), rng.choice(elts), rng.choice(elts)
        assert H.mult(H.mult(x, y), z) == H.mult(x, H.mult(y, z))


@pytest.mark.parametrize(
    "table, pairs", [("a2_q2", 57), ("kronecker_q2", 131), ("jordan_q2", 38)]
)
def test_sided_products_match_hall_numbers(table, pairs, request):
    # Both sided products against the Hall numbers and the forms of the table:
    #   K_mu u_a^+ * K_nu u_b^+ = v^(<a,b> - (nu,a)) sum_g hall(a,b,g) K_{mu+nu} u_g^+
    #   u_a^- K_mu * u_b^- K_nu = v^(<a,b> - (mu,b)) sum_g hall(a,b,g) u_g^- K_{mu+nu}
    # for every pair of classes inside the bound and mu, nu in {0, +-e_i}.
    t = request.getfixturevalue(table)
    H = _H(t)
    zero = t.zero_id()
    n = t.quiver.vertices
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    samples = [(0,) * n] + units + [tuple(-x for x in e) for e in units]
    classes = [c.cid for mu in t.degrees() for c in t.classes(mu)]
    checked = 0
    for a in classes:
        for b in classes:
            d = tuple(x + y for x, y in zip(a[0], b[0]))
            if any(x > y for x, y in zip(d, t.bound)):
                continue
            hall = [(g.cid, t.hall(a, b, g.cid)) for g in t.classes(d)]
            e = t.euler(a[0], b[0])
            for mu in samples:
                for nu in samples:
                    torus = tuple(x + y for x, y in zip(mu, nu))
                    v_plus = t.field.v_pow(e - t.sym(nu, a[0]))
                    v_minus = t.field.v_pow(e - t.sym(mu, b[0]))
                    want_plus = AlgElt({BasisSym(zero, torus, g): v_plus * m for g, m in hall})
                    want_minus = AlgElt({BasisSym(g, torus, zero): v_minus * m for g, m in hall})
                    x = AlgElt({BasisSym(zero, mu, a): t.field.one})
                    y = AlgElt({BasisSym(zero, nu, b): t.field.one})
                    assert H.mult_plus(x, y) == want_plus, (a, b, mu, nu)
                    x = AlgElt({BasisSym(a, mu, zero): t.field.one})
                    y = AlgElt({BasisSym(b, nu, zero): t.field.one})
                    assert H.mult_minus(x, y) == want_minus, (a, b, mu, nu)
                    checked += 1
    assert checked == pairs * len(samples) ** 2


def test_green_compatibility_with_torus_factors(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    zero = t.zero_id()
    s1, s2 = t.simple_ids()
    x = AlgElt({BasisSym(zero, (1, -1), s1): H.field.one})
    y = AlgElt({BasisSym(zero, (0, 1), s2): H.field.scalar(2, 1)})
    assert H.comult_plus(H.mult_plus(x, y)) == H.tensor_mult(
        H.comult_plus(x), H.comult_plus(y)
    )
    xm = AlgElt({BasisSym(s1, (1, 0), zero): H.field.one})
    ym = AlgElt({BasisSym(s2, (-1, 1), zero): H.field.one})
    assert H.comult_minus(H.mult_minus(xm, ym)) == H.tensor_mult(
        H.comult_minus(xm), H.comult_minus(ym)
    )


def test_algelt_degree_helpers(a2_q2):
    H = _H(a2_q2)
    t = a2_q2
    s1, s2 = t.simple_ids()
    hom = H.u_plus(s1)
    assert hom.degree() == (1, 0)
    mixed = H.u_plus(s1) + H.u_plus(s2)
    assert mixed.degree() is None


def test_reprs_name_classes_as_dim_colon_index(a2_q2):
    """The text of elements and classes, which failing checks print as witnesses."""
    H = _H(a2_q2)
    s1, s2 = a2_q2.simple_ids()
    x = _indec_11(a2_q2)
    mixed = H.mult(H.mult(H.u_plus(s1), H.torus((1, -1))), H.u_minus(s2))
    assert repr(mixed) == "(1+0*v)*u-[(0, 1):0]*K(1, -1)*u+[(1, 0):0]"
    assert repr(H.mult(H.u_plus(x), H.u_minus(s1))) == (
        "(0+1/2*v)*K(-1, 0)*u+[(0, 1):0] + (1+0*v)*u-[(1, 0):0]*u+[(1, 1):1]"
    )
    assert repr(H.comult_plus(H.u_plus(x))) == (
        "(1+0*v)*u+[(1, 1):1] (x) 1 + (1+0*v)*K(0, 1)*u+[(1, 0):0] (x) u+[(0, 1):0]"
        " + (1+0*v)*K(1, 1) (x) u+[(1, 1):1]"
    )
    assert repr(H.one()) == "(1+0*v)*1"
    assert repr(H.one() - H.one()) == "0"
    assert repr(a2_q2.cls(x)) == "RepClass((1, 1):1)"
    assert repr(a2_q2.cls(((2, 1), 1))) == "RepClass((2, 1):1)"
