import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hallalg import (
    ClassTable,
    GroundField,
    LimitExceeded,
    Quiver,
    Rep,
    euler_form,
    ext_dim,
    hom_dim,
)
from hallalg import repcat
from hallalg.repcat import _KeyCodec, aut_count, is_indecomposable
from hallalg.modlin import gl_order

from conftest import a2, jordan, kronecker, zero_rep


# ----- independent brute-force machinery (no package linear algebra) -------


def _vec_add(u, v, q):
    return tuple((a + b) % q for a, b in zip(u, v))


def _vec_scale(c, v, q):
    return tuple((c * a) % q for a in v)


def _span(rows, q):
    n = len(rows[0]) if rows else 0
    out = {(0,) * n}
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = (0,) * n
        for c, r in zip(coeffs, rows):
            v = _vec_add(v, _vec_scale(c, r, q), q)
        out.add(v)
    return frozenset(out)


def _subspaces(n, k, q):
    """All k-dimensional subspaces of F_q^n as frozensets of vectors."""
    vecs = [v for v in itertools.product(range(q), repeat=n)]
    seen = set()
    if k == 0:
        return [frozenset({(0,) * n})]
    for rows in itertools.combinations(vecs, k):
        s = _span(list(rows), q)
        if len(s) == q**k:
            seen.add(s)
    return sorted(seen, key=sorted)


def _apply(mat, v, q):
    return tuple(int(sum(r[j] * v[j] for j in range(len(v))) % q) for r in mat)


def _basis_of(space_set, n, q):
    basis = []
    span = {(0,) * n}
    for v in sorted(space_set):
        if v not in span:
            basis.append(v)
            span = set(_span(basis, q))
    return basis


def _coords(basis, target, q):
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        v = (0,) * len(target)
        for c, b in zip(coeffs, basis):
            v = _vec_add(v, _vec_scale(c, b, q), q)
        if v == target:
            return coeffs
    raise AssertionError("target not in span")


def _invertible_tuples(dims, q):
    per_vertex = []
    for d in dims:
        mats = []
        for entries in itertools.product(range(q), repeat=d * d):
            m = tuple(tuple(entries[i * d + j] for j in range(d)) for i in range(d))
            if _is_invertible(m, q):
                mats.append(m)
        per_vertex.append(mats)
    return itertools.product(*per_vertex)


def _is_invertible(m, q):
    d = len(m)
    if d == 0:
        return True
    images = set()
    for coeffs in itertools.product(range(q), repeat=d):
        v = tuple(int(sum(m[i][j] * coeffs[j] for j in range(d)) % q) for i in range(d))
        images.add(v)
    return len(images) == q**d


def _mat_mul(a, b, q):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(int(sum(a[i][k] * b[k][j] for k in range(inner)) % q) for j in range(cols))
        for i in range(rows)
    )


def _mat_inv_brute(m, q):
    d = len(m)
    ident = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    for entries in itertools.product(range(q), repeat=d * d):
        c = tuple(tuple(entries[i * d + j] for j in range(d)) for i in range(d))
        if _mat_mul(m, c, q) == ident:
            return c
    raise AssertionError("not invertible")


def _reps_isomorphic(quiver, q, dims_a, mats_a, dims_b, mats_b):
    if dims_a != dims_b:
        return False
    for g in _invertible_tuples(dims_a, q):
        ok = True
        for (s, t), ma, mb in zip(quiver.arrows, mats_a, mats_b):
            gi = _mat_inv_brute(g[s], q)
            if _mat_mul(_mat_mul(g[t], ma, q), gi, q) != mb:
                ok = False
                break
        if ok:
            return True
    return False


def _as_tuples(mats):
    return [tuple(tuple(int(x) for x in row) for row in m) for m in mats]


def oracle_hall(quiver, q, gamma_rep, quot_rep, sub_rep):
    """Count subrepresentations by raw subspace-set enumeration and
    brute-force isomorphism search."""
    gdim = gamma_rep.dim
    sdim = sub_rep.dim
    qdim = quot_rep.dim
    gmats = _as_tuples(gamma_rep.mats)
    count = 0
    per_vertex = [_subspaces(gdim[i], sdim[i], q) for i in range(quiver.vertices)]
    for choice in itertools.product(*per_vertex):
        closed = True
        for (s, t), m in zip(quiver.arrows, gmats):
            for w in choice[s]:
                if _apply(m, w, q) not in choice[t]:
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        bases = [_basis_of(choice[i], gdim[i], q) for i in range(quiver.vertices)]
        sub_mats = []
        for (s, t), m in zip(quiver.arrows, gmats):
            cols = []
            for b in bases[s]:
                cols.append(_coords(bases[t], _apply(m, b, q), q))
            sub_mats.append(
                tuple(tuple(col[i] for col in cols) for i in range(sdim[t]))
            )
        if not _reps_isomorphic(quiver, q, sdim, sub_mats, sdim, _as_tuples(sub_rep.mats)):
            continue
        comp = []
        for i in range(quiver.vertices):
            cbasis = []
            span = set(choice[i])
            for v in itertools.product(range(q), repeat=gdim[i]):
                if v not in span:
                    cbasis.append(v)
                    span = set(_span(bases[i] + cbasis, q))
            comp.append(cbasis)
        quot_mats = []
        for (s, t), m in zip(quiver.arrows, gmats):
            cols = []
            for b in comp[s]:
                img = _apply(m, b, q)
                found = None
                for coeffs in itertools.product(range(q), repeat=qdim[t]):
                    v = (0,) * gdim[t]
                    for c, cb in zip(coeffs, comp[t]):
                        v = _vec_add(v, _vec_scale(c, cb, q), q)
                    diff = _vec_add(img, _vec_scale(q - 1, v, q), q)
                    if diff in choice[t]:
                        found = coeffs
                        break
                cols.append(found)
            quot_mats.append(
                tuple(tuple(col[i] for col in cols) for i in range(qdim[t]))
            )
        if _reps_isomorphic(quiver, q, qdim, quot_mats, qdim, _as_tuples(quot_rep.mats)):
            count += 1
    return count


# ----- basics ---------------------------------------------------------------


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 2)])
    with pytest.raises(ValueError):
        Quiver(0, [])


def test_euler_form_examples():
    assert euler_form(a2(), (1, 0), (0, 1)) == -1
    assert euler_form(jordan(), (3,), (2,)) == 0
    assert euler_form(kronecker(), (1, 0), (0, 1)) == -2
    assert ClassTable(a2(), GroundField(2), (1, 1)).sym((1, 0), (0, 1)) == -1
    assert ClassTable(jordan(), GroundField(2), (1,)).sym((1,), (1,)) == 0
    assert ClassTable(kronecker(), GroundField(2), (1, 1)).sym((1, 0), (0, 1)) == -2


# ----- enumeration ----------------------------------------------------------


def test_enumeration_examples():
    assert ClassTable(jordan(), GroundField(2), (2,)).class_count((2,)) == 2
    assert ClassTable(kronecker(), GroundField(2), (1, 1)).class_count((1, 1)) == 4
    assert ClassTable(kronecker(), GroundField(3), (1, 1)).class_count((1, 1)) == 5
    assert ClassTable(a2(), GroundField(2), (0, 0)).class_count((0, 0)) == 1


def test_jordan_class_counts_are_partition_numbers():
    partitions = [1, 1, 2, 3, 5, 7]
    t2 = ClassTable(jordan(), GroundField(2), (5,))
    for n in range(6):
        assert t2.class_count((n,)) == partitions[n]
    t3 = ClassTable(jordan(), GroundField(3), (4,))
    for n in range(5):
        assert t3.class_count((n,)) == partitions[n]


def test_classes_keep_their_least_keys_not_their_matrices():
    # The 10-loop quiver over F_2 at (2,): 1024 classes of 40-bit keys.  Each
    # class keeps its invariants and its least key in the table's mins
    # array, about 0.2 KB; matrices are decoded by ClassTable.rep on demand.
    t = ClassTable(Quiver(1, [(0, 0)] * 10), GroundField(2), (2,))
    tracemalloc.start()
    try:
        assert t.class_count((2,)) == 1024
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.5e6


def test_two_loop_quiver_single_simple():
    two_loops = Quiver(1, [(0, 0), (0, 0)])
    assert ClassTable(two_loops, GroundField(2), (1,)).class_count((1,)) == 1


@pytest.mark.parametrize(
    "g, q",
    [(3, 2), (7, 2), (10, 2), (4, 3)],
    ids=["12-bit-bitmap", "28-bit-sorted", "40-bit-sorted", "32-bit-digits"],
)
def test_loop_quiver_at_dimension_two_matches_closed_form(g, q):
    """The g-loop quiver at dimension (2,), counted without the orbit walk.

    A nonzero nilpotent representation V has one invariant line L, the
    common image and kernel of its maps, and its g maps are a nonzero vector
    of Hom(V/L, L)^g = F_q^g, determined up to scalars by the class.  So
    there are 1 + (q^g - 1)/(q - 1) classes, all but the zero class
    indecomposable, and 1 + (q^g - 1)(q + 1) states: q + 1 lines L, each
    with q^g - 1 nonzero vectors.  Keys have 4g entries of (q - 1).bit_length()
    bits, so the four cases take the bitmap walk, the sorted walk with
    uint32 and with uint64 keys, and the digit-major path (q = 3).
    """
    t = ClassTable(Quiver(1, [(0, 0)] * g), GroundField(q), (2,))
    lines = (q**g - 1) // (q - 1)
    assert t.class_count((2,)) == 1 + lines
    assert t.indec_count((2,)) == lines
    assert sum(c.orbit_size for c in t.classes((2,))) == 1 + (q**g - 1) * (q + 1)


def test_quiver_without_arrows_has_one_class_per_degree():
    t = ClassTable(Quiver(2, []), GroundField(2), (2, 2))
    for mu in t.degrees():
        (c,) = t.classes(mu)
        assert c.aut == gl_order(mu[0], 2) * gl_order(mu[1], 2)
        assert c.indecomposable == (sum(mu) == 1)
        assert t.classify(zero_rep(t.quiver, 2, mu)) == c.cid


def test_orbit_stabilizer_grid():
    for quiver, bound in ((jordan(), (2,)), (a2(), (2, 2)), (kronecker(), (2, 2))):
        for q in (2, 3):
            t = ClassTable(quiver, GroundField(q), bound)
            for mu in t.degrees():
                group = 1
                for d in mu:
                    group *= gl_order(d, q)
                for c in t.classes(mu):
                    assert c.orbit_size * c.aut == group


def test_table_aut_matches_enumerated_aut():
    for quiver, bound in ((jordan(), (2,)), (a2(), (2, 2)), (kronecker(), (1, 1))):
        for q in (2, 3):
            t = ClassTable(quiver, GroundField(q), bound)
            for mu in t.degrees():
                for c in t.classes(mu):
                    assert c.aut == aut_count(t.rep(c.cid))


def test_aut_examples():
    jq, f2 = jordan(), GroundField(2)
    t = ClassTable(jq, f2, (2,))
    simple = t.classes((1,))[0]
    assert simple.aut == 1
    by_aut = {c.aut: c for c in t.classes((2,))}
    assert set(by_aut) == {6, 2}
    assert not by_aut[6].indecomposable  # S + S
    assert by_aut[2].indecomposable  # single nilpotent block


def test_determinism():
    a = ClassTable(kronecker(), GroundField(2), (2, 2))
    b = ClassTable(kronecker(), GroundField(2), (2, 2))
    for mu in a.degrees():
        ca, cb = a.classes(mu), b.classes(mu)
        assert [c.cid for c in ca] == [c.cid for c in cb]
        assert [[m.tolist() for m in a.rep(c.cid).mats] for c in ca] == [
            [m.tolist() for m in b.rep(c.cid).mats] for c in cb
        ]
        assert [c.aut for c in ca] == [c.aut for c in cb]


def test_canonical_rep_is_lex_min_in_orbit():
    # Brute-force every base change with the independent GL machinery and
    # compare against the stored canonical representative.
    cases = [
        (jordan(), 2, (3,)),
        (jordan(), 3, (2,)),
        (kronecker(), 3, (1, 1)),
        (a2(), 2, (1, 1)),
    ]
    for quiver, q, mu in cases:
        t = ClassTable(quiver, GroundField(q), mu)
        for c in t.classes(mu):
            mats = _as_tuples(t.rep(c.cid).mats)
            best = None
            count = 0
            for g in _invertible_tuples(mu, q):
                moved = []
                for (s, tt), m in zip(quiver.arrows, mats):
                    gi = _mat_inv_brute(g[s], q)
                    moved.append(_mat_mul(_mat_mul(g[tt], m, q), gi, q))
                flat = tuple(x for m in moved for row in m for x in row)
                if best is None or flat < best:
                    best = flat
            assert best == tuple(
                int(x) for m in t.rep(c.cid).mats for row in m for x in row
            )


def test_limits():
    with pytest.raises(LimitExceeded) as exc:
        ClassTable(jordan(), GroundField(2), (3,), max_states=5).classes((3,))
    assert "(3,)" in str(exc.value) and "[limits] max_states" in str(exc.value)
    with pytest.raises(LimitExceeded) as exc:
        ClassTable(jordan(), GroundField(2), (3,), max_classes=2).classes((3,))
    assert "[limits] max_classes" in str(exc.value)


@pytest.mark.parametrize("native_bits", [64, 0], ids=["native", "void"])
def test_max_states_bound_is_exact(monkeypatch, native_bits):
    # Jordan q=2 (4) has 2^12 = 4096 states: the limit admits exactly that many,
    # on the bitmap walk of native keys and on the sorted walk of void keys.
    monkeypatch.setattr(repcat, "_NATIVE_KEY_BITS", native_bits)
    t = ClassTable(jordan(), GroundField(2), (4,), max_states=4096)
    assert sum(c.orbit_size for c in t.classes((4,))) == 4096
    assert t._mu[(4,)].codec.bitmapped == (native_bits > 0)
    with pytest.raises(LimitExceeded) as exc:
        ClassTable(jordan(), GroundField(2), (4,), max_states=4095).classes((4,))
    assert "(4,)" in str(exc.value)


def test_state_counts_match_closed_forms():
    # Fine-Herstein: there are q^(n^2 - n) nilpotent n x n matrices over F_q.
    # Every representation of an acyclic quiver is nilpotent.
    for q in (2, 3):
        t = ClassTable(jordan(), GroundField(q), (4,))
        for n in range(5):
            assert sum(c.orbit_size for c in t.classes((n,))) == q ** (n * n - n)
        for quiver in (a2(), kronecker()):
            t = ClassTable(quiver, GroundField(q), (2, 2))
            for mu in t.degrees():
                entries = sum(mu[s] * mu[tt] for s, tt in quiver.arrows)
                assert sum(c.orbit_size for c in t.classes(mu)) == q**entries


def test_classify_every_point_by_brute_force_orbit_minimum():
    # Every representation of dimension mu, nilpotent or not, against the
    # least point of its orbit under the independent GL machinery.
    cases = [(jordan(), 2, (3,)), (kronecker(), 3, (1, 1))]
    for quiver, q, mu in cases:
        t = ClassTable(quiver, GroundField(q), mu)
        by_rep = {
            tuple(int(x) for m in t.rep(c.cid).mats for x in m.flat): c.cid
            for c in t.classes(mu)
        }
        group = [(g, [_mat_inv_brute(x, q) for x in g]) for g in _invertible_tuples(mu, q)]
        shapes = [(mu[tt], mu[s]) for s, tt in quiver.arrows]
        least_of = {}
        for flat in itertools.product(range(q), repeat=sum(r * c for r, c in shapes)):
            mats = []
            off = 0
            for r, c in shapes:
                mats.append(tuple(tuple(flat[off + i * c : off + (i + 1) * c]) for i in range(r)))
                off += r * c
            if flat not in least_of:
                orbit = set()
                for g, gi in group:
                    moved = [
                        _mat_mul(_mat_mul(g[tt], m, q), gi[s], q)
                        for (s, tt), m in zip(quiver.arrows, mats)
                    ]
                    orbit.add(tuple(x for m in moved for row in m for x in row))
                least = min(orbit)
                least_of.update(dict.fromkeys(orbit, least))
            arrays = [np.array(m, dtype=np.int64).reshape(r, c) for m, (r, c) in zip(mats, shapes)]
            rep = Rep(quiver, q, mu, arrays)
            if least_of[flat] in by_rep:
                assert t.classify(rep) == by_rep[least_of[flat]]
            else:
                with pytest.raises(ValueError):
                    t.classify(rep)


@st.composite
def _state_rows(draw):
    q = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.integers(0, 70))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, n, draw(st.lists(row, min_size=1, max_size=20))


def _edge_rows(q, n):
    return (q, n, [[q - 1] * n, [0] * (n - 1) + [q - 1], [q - 1] + [0] * (n - 1)])


@given(_state_rows())
@example(_edge_rows(2, 8))
@example(_edge_rows(2, 9))
@example(_edge_rows(2, 16))
@example(_edge_rows(2, 17))
@example(_edge_rows(2, 32))
@example(_edge_rows(2, 33))
@example(_edge_rows(2, 64))
@example(_edge_rows(2, 65))
@example(_edge_rows(251, 9))
def test_key_packing_preserves_order_and_round_trips(case):
    q, n, rows = case
    codec = _KeyCodec(q, n)
    width = max(1, (q - 1).bit_length())
    bits = n * width
    assert codec.native == (bits <= 64)
    if codec.native:
        # The narrowest unsigned integer dtype that holds the key.
        assert codec.dtype == np.dtype(f"u{next(b for b in (1, 2, 4, 8) if 8 * b >= bits)}")
    # Digit-major: one row per matrix entry, one column per state.
    digits = np.array(rows, dtype=np.uint8).reshape(len(rows), n).T
    keys = codec.pack(digits)
    assert keys.dtype == codec.dtype
    assert np.array_equal(codec.unpack(keys), digits)
    in_key_order = digits[:, np.argsort(keys, kind="stable")]
    assert [tuple(r) for r in in_key_order.T.tolist()] == sorted(map(tuple, rows))
    # Each key is the big-endian integer of its row, width bits per entry.
    for row, key in zip(rows, keys):
        expect = 0
        for x in row:
            expect = (expect << width) | x
        assert (int(key) if codec.native else int.from_bytes(key.tobytes(), "big")) == expect


@pytest.mark.parametrize(
    "quiver,mu,width",
    [
        pytest.param(kronecker(), (2, 2), 8, id="kronecker-8"),
        pytest.param(Quiver(3, [(0, 1), (1, 2), (0, 2)]), (2, 2, 2), 12, id="x2-12"),
        pytest.param(Quiver(2, [(0, 1), (1, 0)]), (3, 3), 18, id="c2-18"),
        pytest.param(jordan(), (5,), 25, id="jordan-25"),
        pytest.param(jordan(), (6,), 36, id="jordan-36"),
    ],
)
def test_byte_tables_match_the_digit_path(quiver, mu, width):
    # Over F_2 the image of a native key under every base-change map (and
    # inverse) is the XOR of one table row per key byte; it must equal the
    # image computed on the unpacked digits, map after map.
    t = ClassTable(quiver, GroundField(2), mu)
    codec = _KeyCodec(2, width)
    maps = t._state_maps(mu, inverses=True)
    tables = t._byte_tables(codec, maps)
    assert tables.shape == (codec.nbytes, 256, maps[0])
    rng = np.random.default_rng(width)
    keys = rng.integers(0, 1 << width, 2000, dtype=np.uint64).astype(codec.dtype)
    keys = np.concatenate([keys, np.array([0, (1 << width) - 1], dtype=codec.dtype)])
    fast = t._images(codec, (*maps, tables), keys)
    slow = t._images(codec, (*maps, None), keys)
    assert fast.dtype == slow.dtype == codec.dtype
    assert fast.shape == slow.shape == (maps[0] * keys.size,)
    assert np.array_equal(fast, slow)
    # Only F_2 and native keys take the tables.
    assert ClassTable(quiver, GroundField(3), mu)._byte_tables(_KeyCodec(3, width), maps) is None
    assert t._byte_tables(_KeyCodec(2, 65), maps) is None


def _full_table(monkeypatch, quiver, q, bound, **patch):
    with monkeypatch.context() as m:
        for name, value in patch.items():
            m.setattr(repcat, name, value)
        t = ClassTable(quiver, GroundField(q), bound)
        for mu in t.degrees():
            t.classes(mu)
    return t


def _class_rows(t, mu):
    return [
        (c.cid, [m.tolist() for m in t.rep(c.cid).mats], c.aut, c.orbit_size, c.indecomposable)
        for c in t.classes(mu)
    ]


@pytest.mark.parametrize(
    "quiver,q,bound",
    [
        pytest.param(kronecker(), 3, (2, 2), id="3-bound0"),
        pytest.param(kronecker(), 17, (1, 1), id="17-bound1"),
        pytest.param(jordan(), 2, (4,), id="jordan-2"),
        pytest.param(Quiver(2, [(0, 1), (1, 0)]), 3, (2, 2), id="c2-3"),
        pytest.param(Quiver(1, [(0, 0), (0, 0)]), 3, (2,), id="two-loops-3"),
        pytest.param(Quiver(3, [(0, 1), (1, 2), (0, 2)]), 2, (2, 2, 2), id="x2-2"),
        pytest.param(Quiver(2, [(0, 1), (1, 0)]), 2, (3, 3), id="c2-2-3bytes"),
    ],
)
def test_void_keys_give_the_same_table(monkeypatch, quiver, q, bound):
    # Native keys take the bitmap walk over the generators alone; the same
    # native keys forced onto the sorted walk, and void keys, take the walk
    # over the generators and their inverses.  Over F_2 both native walks map
    # keys through byte tables and the void walk through digits.  The tables
    # must agree.
    bitmap = _full_table(monkeypatch, quiver, q, bound)
    levels = _full_table(monkeypatch, quiver, q, bound, _BITMAP_KEY_BITS=0)
    wide = _full_table(monkeypatch, quiver, q, bound, _NATIVE_KEY_BITS=0)
    assert bitmap._mu[bound].codec.bitmapped
    assert not levels._mu[bound].codec.bitmapped
    assert wide._mu[bound].keys.dtype.kind == "V"
    for mu in bitmap.degrees():
        a, b, c = bitmap._mu[mu], levels._mu[mu], wide._mu[mu]
        assert _class_rows(bitmap, mu) == _class_rows(levels, mu) == _class_rows(wide, mu)
        assert a.keys.dtype == b.keys.dtype and a.keys.tobytes() == b.keys.tobytes()
        # A void key is the big-endian bytes of the native key.
        nbytes = c.keys.dtype.itemsize
        assert a.keys.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes :].tobytes() == (
            c.keys.tobytes()
        )
        for other in (b, c):
            assert a.labels.dtype == other.labels.dtype
            assert a.labels.tobytes() == other.labels.tobytes()
    for g in bitmap.classes(bound):
        for sub in bitmap.degrees():
            dist = bitmap.hall_distribution(g.cid, sub)
            assert dist == levels.hall_distribution(g.cid, sub) == wide.hall_distribution(g.cid, sub)
    # Each walk's representative is decoded from its least key on every call
    # and classifies back to its class.
    for t in (bitmap, levels, wide):
        for mu in t.degrees():
            for c in t.classes(mu):
                rep = t.rep(c.cid)
                assert t.classify(rep) == c.cid
                assert all(np.array_equal(x, y) for x, y in zip(rep.mats, t.rep(c.cid).mats))


@pytest.mark.parametrize(
    "quiver,q,bound",
    [
        pytest.param(kronecker(), 3, (2, 2), id="kronecker-3"),
        pytest.param(Quiver(1, [(0, 0), (0, 0)]), 3, (2,), id="two-loops-3"),
        pytest.param(Quiver(2, [(0, 1), (1, 0)]), 3, (2, 2), id="c2-3"),
        pytest.param(Quiver(3, [(0, 1), (1, 2), (0, 2)]), 2, (2, 2, 2), id="x2-2"),
    ],
)
def test_extension_blocks_may_split_anywhere(monkeypatch, quiver, q, bound):
    # With blocks of a few states, one pair's extensions span several blocks
    # and one block spans several pairs; with 3 a boundary also falls inside
    # a pair off the multiples of q^free.  Orbit seeds and Hall numbers come
    # from the same blocks; neither the table nor any distribution may change.
    default = ClassTable(quiver, GroundField(q), bound)
    for chunk in (4, 3):
        with monkeypatch.context() as m:
            m.setattr(repcat, "_CHUNK", chunk)
            small = ClassTable(quiver, GroundField(q), bound)
            dists = {
                (g.cid, sub): small.hall_distribution(g.cid, sub)
                for mu in small.degrees()
                for g in small.classes(mu)
                for sub in small.degrees()
            }
        for mu in default.degrees():
            assert _class_rows(default, mu) == _class_rows(small, mu)
            a, b = default._mu[mu], small._mu[mu]
            assert a.keys.tobytes() == b.keys.tobytes() and a.labels.tobytes() == b.labels.tobytes()
        for (cid, sub), dist in dists.items():
            assert default.hall_distribution(cid, sub) == dist


@pytest.mark.parametrize(
    "quiver,q,bound",
    [
        pytest.param(kronecker(), 3, (2, 2), id="kronecker-3"),
        pytest.param(Quiver(1, [(0, 0), (0, 0)]), 2, (3,), id="two-loops-2"),
    ],
)
def test_direct_sums_pair_every_column_b_after_b(quiver, q, bound):
    # Column j of the block is rep(a, j % len(A)) + rep(b, j // len(A)),
    # block-diagonal on every arrow, flattened arrow after arrow; the free
    # rows are the top-right blocks.  Each extension state k is column
    # k // q^free with the free rows in itertools.product order.
    t = ClassTable(quiver, GroundField(q), bound)
    for a in t.degrees():
        for b in t.degrees():
            mu = repcat.dim_add(a, b)
            if not repcat.dim_leq(mu, bound):
                continue
            left, right = t._digit_columns(a), t._digit_columns(b)
            sums, free = t._direct_sums(a, b, left, right)
            pairs = [(y, x) for y in t.classes(b) for x in t.classes(a)]
            assert sums.shape == (sum(mu[s] * mu[r] for s, r in quiver.arrows), len(pairs))
            for j, (y, x) in enumerate(pairs):
                ma, mb = t.rep(x.cid).mats, t.rep(y.cid).mats
                flat = []
                for (s, r), u, v in zip(quiver.arrows, ma, mb):
                    m = np.zeros((mu[r], mu[s]), dtype=np.int64)
                    m[: a[r], : a[s]] = u
                    m[a[r] :, a[s] :] = v
                    flat += m.ravel().tolist()
                assert sums[:, j].tolist() == flat
            corner = []
            for s, r in quiver.arrows:
                m = np.zeros((mu[r], mu[s]), dtype=bool)
                m[: a[r], a[s] :] = True
                corner += m.ravel().tolist()
            assert free == np.flatnonzero(corner).tolist()
            index, digits = (np.concatenate(x, axis=-1) for x in zip(*t._extensions(a, b, left, right)))
            xs = list(itertools.product(range(q), repeat=len(free)))
            assert index.tolist() == [j for j in range(len(pairs)) for _ in xs]
            expect = np.repeat(sums, len(xs), axis=1)
            expect[free] = np.tile(np.array(xs, dtype=np.uint8).reshape(len(xs), -1).T, len(pairs))
            assert np.array_equal(digits, expect)


def test_stored_states_cost_at_most_3_bytes_each():
    t = ClassTable(jordan(), GroundField(2), (4,))
    t.classes((4,))
    data = t._mu[(4,)]
    assert data.keys.size == 2**12
    # 12-bit keys fit uint16 and the 5 class labels fit uint8.
    assert data.keys.dtype == np.uint16 and data.labels.dtype == np.uint8
    assert data.keys.nbytes + data.labels.nbytes <= 3 * data.keys.size


@pytest.mark.parametrize("width", [7, 8, 12, 16, 25, 26])
def test_bitmap_kernels_match_a_set_oracle(width):
    # Key widths of every dtype the bitmap walk meets: uint8, uint16, uint32.
    # Whole bytes of keys (8k ... 8k+7) are visited in two halves, so keys
    # that share a byte arrive together and on top of bits already set.
    codec = _KeyCodec(2, width)
    assert codec.bitmapped
    top = (1 << width) - 1
    rng = np.random.default_rng(width)
    runs = [k for lo in (0, 40, top - 7) for k in range(lo, lo + 8)]
    sample = rng.integers(0, top, 300, endpoint=True).tolist()
    first = sorted(set(sample[:150] + runs[::2]))
    second = sorted(set(sample[150:] + runs[1::2]) - set(first))
    bitmap = np.zeros(((1 << width) + 7) // 8, dtype=np.uint8)
    visited = set()
    for keys in ([], first, [], second):
        repcat._visit(bitmap, np.array(keys, dtype=codec.dtype))
        visited.update(keys)
        nonzero = np.flatnonzero(bitmap)
        rows, bits = np.nonzero(np.unpackbits(bitmap[nonzero], bitorder="little").reshape(-1, 8))
        assert sorted((nonzero[rows] * 8 + bits).tolist()) == sorted(visited)
    probe = sample + runs + [k ^ 1 for k in sample] + [0, top, top]
    seen = repcat._visited(bitmap, np.array(probe, dtype=codec.dtype))
    assert seen.dtype == bool
    assert seen.tolist() == [k in visited for k in probe]
    distinct = repcat._unique(np.array(probe, dtype=codec.dtype))
    assert distinct.dtype == codec.dtype
    assert distinct.tolist() == sorted(set(probe))
    empty = np.array([], dtype=codec.dtype)
    assert repcat._visited(bitmap, empty).shape == repcat._unique(empty).shape == (0,)


# Jordan q=2 up to (5): per degree, the dtype and sha256 of the stored keys and
# of their labels, then (aut, orbit size, indecomposable) of each class in id order.
JORDAN_Q2_5 = {
    (0,): ("uint8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
           "uint8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
           [(1, 1, False)]),
    (1,): ("uint8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
           "uint8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
           [(1, 1, True)]),
    (2,): ("uint8", "52e067d52fe8127730d21f8b7bcc3b0c7ed5d38a1eb3e468cc349150ab412b20",
           "uint8", "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
           [(6, 1, False), (2, 3, True)]),
    (3,): ("uint16", "9be0383fd8c0f0daed9bdfd2285bfa1c50f8ec2082d2d3e8dc0359a79f41d76e",
           "uint8", "cd21634c075471ac4299cee3ac3fa29371dd6529b89930b79afcffe008e27a74",
           [(168, 1, False), (8, 21, False), (4, 42, True)]),
    (4,): ("uint16", "6e3458a359e5a96f37f581137bcb8a832189cf691fdd794f07f5d8a439eb828e",
           "uint8", "d70a68f02bd90def5e38cb16932af7eb67a6115a8b4f7c838570c3a1bf7fefd2",
           [(20160, 1, False), (192, 105, False), (16, 1260, False), (96, 210, False),
            (8, 2520, True)]),
    (5,): ("uint32", "74d542288c2f434458e651bda71237e1cf173725cee5324f2a6ccb3fb74440ae",
           "uint8", "a0dbc9d2252c0bf8481abb48e21aabc61c91629e8e89af333574eecfac8244d8",
           [(9999360, 1, False), (21504, 465, False), (384, 26040, False), (1536, 6510, False),
            (32, 312480, False), (128, 78120, False), (16, 624960, True)]),
}


def test_jordan_q2_table_at_5_is_pinned():
    # The bitmap walk over 2^20 states with 25-bit uint32 keys, the largest
    # table tier-1 builds; the benchmark's classify-jordan5 workload runs it.
    t = ClassTable(jordan(), GroundField(2), (5,))
    for mu, (keys_dtype, keys_sha, labels_dtype, labels_sha, rows) in JORDAN_Q2_5.items():
        classes = t.classes(mu)
        data = t._mu[mu]
        assert (str(data.keys.dtype), str(data.labels.dtype)) == (keys_dtype, labels_dtype)
        assert hashlib.sha256(data.keys.tobytes()).hexdigest() == keys_sha
        assert hashlib.sha256(data.labels.tobytes()).hexdigest() == labels_sha
        assert [c.cid for c in classes] == [(mu, i) for i in range(len(rows))]
        assert [(c.aut, c.orbit_size, bool(c.indecomposable)) for c in classes] == rows


# ----- hom / ext ------------------------------------------------------------


def test_hom_simples_delta():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    s1, s2 = [t.rep(c) for c in t.simple_ids()]
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s2) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0


def test_hom_with_indecomposable():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    s1, s2 = [t.rep(c) for c in t.simple_ids()]
    x = next(t.rep(c.cid) for c in t.classes((1, 1)) if c.indecomposable)
    assert hom_dim(x, s1) == 1
    assert hom_dim(s1, x) == 0


def test_ext_orientation():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    s1, s2 = [t.rep(c) for c in t.simple_ids()]
    # The one-dimensional extension group sits on the side realized by the
    # nonsplit subobject count below.
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0
    sid1, sid2 = t.simple_ids()
    x = next(c for c in t.classes((1, 1)) if c.indecomposable)
    split = next(c for c in t.classes((1, 1)) if not c.indecomposable)
    assert t.hall(sid1, sid2, x.cid) == 1
    assert t.hall(sid2, sid1, x.cid) == 0
    assert t.hall(sid2, sid1, split.cid) == 1


def test_ext_examples():
    jq = jordan()
    t = ClassTable(jq, GroundField(2), (1,))
    s = t.rep(t.classes((1,))[0].cid)
    assert ext_dim(s, s) == 1
    zero = zero_rep(jq, 2, (0,))
    assert ext_dim(s, zero) == 0


def test_end_basis_of_zero_and_of_an_empty_hom_system():
    assert repcat.end_basis(zero_rep(kronecker(), 2, (0, 0))) == []
    # Both arrows of the simple at the source have a zero-sized matrix, so
    # the Hom system has no equations and End is the one scalar at vertex 1.
    ((e1, e2),) = repcat.end_basis(zero_rep(kronecker(), 2, (1, 0)))
    assert np.array_equal(e1, np.eye(1, dtype=np.int64)) and e2.shape == (0, 0)


def _intertwines(quiver, q, m, n, f):
    """Whether the vertex maps f[i]: M_i -> N_i satisfy N_a f_s = f_t M_a."""
    for (s, t), ma, na in zip(quiver.arrows, m.mats, n.mats):
        for r in range(n.dim[t]):
            for c in range(m.dim[s]):
                left = sum(int(na[r][k]) * int(f[s][k][c]) for k in range(n.dim[s]))
                right = sum(int(f[t][r][k]) * int(ma[k][c]) for k in range(m.dim[t]))
                if (left - right) % q:
                    return False
    return True


def _brute_hom_count(quiver, q, m, n):
    """|Hom(M, N)|, by enumerating every tuple of vertex maps."""
    shapes = [(b, a) for a, b in zip(m.dim, n.dim)]
    count = 0
    for entries in itertools.product(range(q), repeat=sum(r * c for r, c in shapes)):
        it = iter(entries)
        f = [[[next(it) for _ in range(c)] for _ in range(r)] for r, c in shapes]
        count += _intertwines(quiver, q, m, n, f)
    return count


@pytest.mark.parametrize(
    "quiver, q, bound",
    [
        (jordan(), 2, (2,)),
        (jordan(), 3, (2,)),
        (kronecker(), 2, (1, 1)),
        (Quiver(2, [(0, 1), (1, 0)]), 2, (1, 1)),
        (Quiver(2, [(0, 0), (0, 1)]), 2, (1, 1)),
        (Quiver(3, [(0, 1), (1, 2), (0, 2)]), 2, (1, 1, 1)),
    ],
    ids=["jordan-q2", "jordan-q3", "kronecker-q2", "c2-q2", "loop-arrow-q2", "x2-q2"],
)
def test_hom_dim_and_end_basis_match_brute_force_intertwiners(quiver, q, bound):
    t = ClassTable(quiver, GroundField(q), bound)
    reps = [t.rep(c.cid) for mu in t.degrees() for c in t.classes(mu)]
    for m in reps:
        for f in repcat.end_basis(m):
            assert _intertwines(quiver, q, m, m, f)
        for n in reps:
            assert _brute_hom_count(quiver, q, m, n) == q ** hom_dim(m, n)


def test_euler_equals_hom_minus_ext():
    for quiver, bound in ((jordan(), (2,)), (a2(), (2, 2)), (kronecker(), (1, 1))):
        t = ClassTable(quiver, GroundField(2), bound)
        reps = [t.rep(c.cid) for mu in t.degrees() for c in t.classes(mu)]
        for m in reps:
            for n in reps:
                assert euler_form(quiver, m.dim, n.dim) == hom_dim(m, n) - ext_dim(m, n)


# ----- indecomposability ----------------------------------------------------


def test_indecomposable_examples():
    t = ClassTable(a2(), GroundField(2), (1, 1))
    s1 = t.rep(t.simple_ids()[0])
    assert is_indecomposable(s1)
    split = next(t.rep(c.cid) for c in t.classes((1, 1)) if not c.indecomposable)
    assert not is_indecomposable(split)
    tj = ClassTable(jordan(), GroundField(2), (2,))
    block = next(tj.rep(c.cid) for c in tj.classes((2,)) if c.indecomposable)
    assert is_indecomposable(block)


def test_table_flags_match_idempotent_scan():
    cases = [
        (quiver, q, bound)
        for quiver, bound in ((jordan(), (3,)), (a2(), (2, 2)), (kronecker(), (1, 1)))
        for q in (2, 3)
    ]
    # The table looks up only direct sums whose first summand is
    # indecomposable; a larger Kronecker bound, a cycle and a Euclidean quiver.
    cases += [
        (kronecker(), 2, (2, 2)),
        (Quiver(2, [(0, 1), (1, 0)]), 2, (2, 2)),
        (Quiver(3, [(0, 1), (1, 2), (0, 2)]), 2, (1, 1, 1)),
    ]
    for quiver, q, bound in cases:
        t = ClassTable(quiver, GroundField(q), bound)
        for mu in t.degrees():
            if sum(mu) == 0:
                continue
            for c in t.classes(mu):
                assert c.indecomposable == is_indecomposable(t.rep(c.cid))


def test_kronecker_indecomposables_at_11():
    t2 = ClassTable(kronecker(), GroundField(2), (1, 1))
    assert t2.indec_count((1, 1)) == 3
    t3 = ClassTable(kronecker(), GroundField(3), (1, 1))
    assert t3.indec_count((1, 1)) == 4


# ----- Hall numbers ---------------------------------------------------------


def test_hall_examples():
    t = ClassTable(jordan(), GroundField(2), (2,))
    s = t.simple_ids()[0]
    semisimple = next(c.cid for c in t.classes((2,)) if not t.cls(c.cid).indecomposable)
    assert t.hall(s, s, semisimple) == 3
    # whole object as its own subobject
    zero = t.zero_id()
    assert t.hall(zero, semisimple, semisimple) == 1


def test_hall_multi(jordan_q2, jordan_q3):
    # Pairs (complete flag of F_q^n, nilpotent matrix lowering it) counted two
    # ways: sum_c |orbit c| F^c_{s,...,s} = [n]_q! q^(n(n-1)/2).
    for table, n, pairs in ((jordan_q2, 3, 168), (jordan_q2, 4, 20160), (jordan_q3, 3, 1404)):
        q, s = table.q, table.simple_ids()[0]
        total = sum(c.orbit_size * table.hall_multi(c.cid, (s,) * n) for c in table.classes((n,)))
        q_factorial = math.prod((q**k - 1) // (q - 1) for k in range(1, n + 1))
        assert total == q_factorial * q ** (n * (n - 1) // 2) == pairs
    t = ClassTable(jordan(), GroundField(2), (3,))
    s = t.simple_ids()[0]
    flags = {c.cid: t.hall_multi(c.cid, (s, s, s)) for c in t.classes((3,))}
    zero_class3 = next(
        c.cid for c in t.classes((3,)) if not np.concatenate(t.rep(c.cid).mats, axis=None).any()
    )
    assert flags[zero_class3] == 21
    for g in t.classes((2,)):
        assert t.hall_multi(g.cid, (g.cid,)) == 1
        two_step = t.hall_multi(g.cid, (s, s))
        assert two_step == t.hall(s, s, g.cid)


def test_hall_against_independent_oracle():
    cases = []
    jq = jordan()
    f2 = GroundField(2)
    tj = ClassTable(jq, f2, (3,))
    for gamma_mu, sub_mu in (((2,), (1,)), ((3,), (1,)), ((3,), (2,))):
        quot_mu = tuple(g - s for g, s in zip(gamma_mu, sub_mu))
        for g in tj.classes(gamma_mu):
            for a in tj.classes(quot_mu):
                for b in tj.classes(sub_mu):
                    cases.append((jq, 2, tj, g, a, b))
    tk = ClassTable(kronecker(), f2, (1, 1))
    for g in tk.classes((1, 1)):
        for a in tk.classes((1, 0)):
            for b in tk.classes((0, 1)):
                cases.append((kronecker(), 2, tk, g, a, b))
        for a in tk.classes((0, 1)):
            for b in tk.classes((1, 0)):
                cases.append((kronecker(), 2, tk, g, a, b))
    ta = ClassTable(a2(), f2, (1, 1))
    for g in ta.classes((1, 1)):
        for a in ta.classes((1, 0)):
            for b in ta.classes((0, 1)):
                cases.append((a2(), 2, ta, g, a, b))
    # Every triple at the bound: q > 2, and extensions over two arrows.
    for quiver, q, bound in ((kronecker(), 3, (1, 2)), (Quiver(1, [(0, 0), (0, 0)]), 2, (2,))):
        t = ClassTable(quiver, GroundField(q), bound)
        for g in t.classes(bound):
            for sub_mu in t.degrees():
                for a in t.classes(tuple(x - y for x, y in zip(bound, sub_mu))):
                    for b in t.classes(sub_mu):
                        cases.append((quiver, q, t, g, a, b))
    for quiver, q, table, g, a, b in cases:
        expected = oracle_hall(quiver, q, table.rep(g.cid), table.rep(a.cid), table.rep(b.cid))
        assert table.hall(a.cid, b.cid, g.cid) == expected


RIEDTMANN_TABLES = [
    (a2(), 2, (2, 2)),
    (jordan(), 2, (4,)),
    (jordan(), 3, (3,)),
    (kronecker(), 2, (2, 2)),
    (kronecker(), 3, (1, 2)),
    (Quiver(2, [(0, 1), (1, 0)]), 2, (2, 2)),
    (Quiver(1, [(0, 0), (0, 0)]), 2, (2,)),
]


def test_hall_numbers_satisfy_riedtmanns_sum_rule():
    # Riedtmann's formula (Riedtmann 1994; Ringel 1990) summed over the middle
    # term: sum_L F^L_{MN} |Aut M| |Aut N| |Hom(M, N)| / |Aut L| = |Ext^1(M, N)|,
    # where F^L_{MN} counts the subobjects of L isomorphic to N with quotient
    # isomorphic to M.  Hom and Ext come from the intertwiner equations and the
    # Euler form, not from the subobject counts.
    pairs = 0
    for quiver, q, bound in RIEDTMANN_TABLES:
        t = ClassTable(quiver, GroundField(q), bound)
        nonzero = [c for mu in t.degrees() if sum(mu) for c in t.classes(mu)]
        for m in nonzero:
            for n in nonzero:
                total = tuple(a + b for a, b in zip(m.dim, n.dim))
                if any(x > b for x, b in zip(total, bound)):
                    continue
                lhs = sum(Fraction(t.hall(m.cid, n.cid, g.cid), g.aut) for g in t.classes(total))
                lhs *= m.aut * n.aut * q ** hom_dim(t.rep(m.cid), t.rep(n.cid))
                assert lhs == q ** ext_dim(t.rep(m.cid), t.rep(n.cid)), (quiver, q, m, n)
                pairs += 1
    assert pairs == 175


def _rank_mod_p(rows, p):
    """Rank over F_p by Gaussian elimination on lists of ints."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _jordan_type_conjugate(rep, p):
    """The conjugate λ' of the Jordan type of a nilpotent matrix:
    λ'_k = rank N^(k-1) - rank N^k."""
    n = rep.dim[0]
    m = _as_tuples(rep.mats)[0]
    power = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    ranks = [n]
    while ranks[-1]:
        power = _mat_mul(power, m, p)
        ranks.append(_rank_mod_p(power, p))
    return [a - b for a, b in zip(ranks, ranks[1:])]


def _q_binom_at(a, b, t):
    """The Gaussian binomial [a choose b] evaluated at t."""
    return math.prod((1 - t ** (a - b + j)) / (1 - t**j) for j in range(1, b + 1))


def _macdonald_vertical_strip(lam_c, mu_c, q):
    """g^λ_{μ,(1^m)}(q) from conjugates (Macdonald, Symmetric Functions and
    Hall Polynomials, II (4.6)): q^(n(λ)-n(μ)-n(1^m)) prod_i [λ'_i - λ'_{i+1}
    choose λ'_i - μ'_i] at 1/q when λ/μ is a vertical m-strip, else 0."""
    width = len(lam_c)
    if len(mu_c) > width:
        return 0
    lam_c = list(lam_c) + [0]
    mu_c = list(mu_c) + [0] * (width + 1 - len(mu_c))
    # A vertical strip: λ'_i >= μ'_i >= λ'_{i+1} for every column i.
    if any(not lam_c[i] >= mu_c[i] >= lam_c[i + 1] for i in range(width)):
        return 0
    m = sum(lam_c) - sum(mu_c)
    n_lam = sum(c * (c - 1) // 2 for c in lam_c)
    n_mu = sum(c * (c - 1) // 2 for c in mu_c)
    t = Fraction(1, q)
    value = Fraction(q) ** (n_lam - n_mu - m * (m - 1) // 2) * math.prod(
        _q_binom_at(lam_c[i] - lam_c[i + 1], lam_c[i] - mu_c[i], t) for i in range(width)
    )
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize("q, n, triples", [(2, 4, 52), (2, 5, 136), (3, 3, 17), (5, 3, 17)])
def test_jordan_hall_numbers_match_macdonalds_vertical_strip_formula(q, n, triples):
    # Every Hall number g^λ_{μ,(1^m)} of the Jordan quiver against the closed
    # form; partitions come from ranks of powers, not from the table's lookup.
    # The Jordan Hall algebra is commutative, so either slot may hold (1^m).
    t = ClassTable(jordan(), GroundField(q), (n,))
    conj = {c.cid: _jordan_type_conjugate(t.rep(c.cid), q) for mu in t.degrees() for c in t.classes(mu)}
    checked = 0
    for lam in (c for d in range(1, n + 1) for c in t.classes((d,))):
        for m in range(1, lam.dim[0] + 1):
            ones = next(cid for cid in conj if cid[0] == (m,) and len(conj[cid]) <= 1)
            for mu in t.classes((lam.dim[0] - m,)):
                expected = _macdonald_vertical_strip(conj[lam.cid], conj[mu.cid], q)
                assert t.hall(mu.cid, ones, lam.cid) == expected, (lam, mu, m)
                assert t.hall(ones, mu.cid, lam.cid) == expected, (lam, mu, m)
                checked += 1
    assert checked == triples


def test_kronecker_rational_tube_matches_jordan_hall_numbers():
    # The Kronecker modules (A, B) of dimension (k, k) with A invertible and
    # A^-1 B nilpotent form the tube at one rational point of P^1, and
    # (A, B) -> A^-1 B is an equivalence with the nilpotent Jordan modules.
    # So Hall numbers inside the tube equal Jordan Hall numbers.  The class
    # map goes through the Jordan table's classify, never through a Hall
    # table, and the tube is closed under the subobjects of dimension (k, k).
    q, n = 2, 3
    kr = ClassTable(kronecker(), GroundField(q), (n, n))
    jo = ClassTable(jordan(), GroundField(q), (n,))
    tube = {kr.zero_id(): jo.zero_id()}
    counts = []
    for k in range(1, n + 1):
        found = 0
        for c in kr.classes((k, k)):
            a, b = _as_tuples(kr.rep(c.cid).mats)
            if not _is_invertible(a, q):
                continue
            nil = _mat_mul(_mat_inv_brute(a, q), b, q)
            power = nil
            for _ in range(k - 1):
                power = _mat_mul(power, nil, q)
            if any(any(row) for row in power):
                continue
            tube[c.cid] = jo.classify(Rep(jordan(), q, (k,), [nil]))
            found += 1
        counts.append(found)
    assert counts == [1, 2, 3]  # at (1, 1) through (3, 3), after the zero class
    assert sorted(tube.values()) == sorted(c.cid for mu in jo.degrees() for c in jo.classes(mu))
    triples = 0
    for g, jg in tube.items():
        d = g[0][0]
        for k in range(d + 1):
            dist = kr.hall_distribution(g, (k, k))
            got = {(tube[quot], tube[sub]): m for (quot, sub), m in dist.items()}
            assert got == jo.hall_distribution(jg, (k,)), (g, k)
            triples += len(got)
    assert triples == 23


def test_hall_zero_on_dimension_mismatch():
    t = ClassTable(jordan(), GroundField(2), (2,))
    s = t.simple_ids()[0]
    assert t.hall(s, s, s) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_x2_exceptional_tube_matches_c2_hall_numbers(q):
    # The modules X1 -A12-> X2 -A23-> X3 <-A13- X1 of the Euclidean quiver
    # A~_{2,1} with A13 invertible are, identifying X3 with X1 through A13,
    # the modules of the oriented 2-cycle with V1 = X2, V2 = X1, arrow 1->2
    # A13^-1 A23 and arrow 2->1 A12; the nilpotent ones are the exceptional
    # tube of rank 2.  So its Hall numbers equal those of configs/tube2.cfg.
    # Subobjects of dimension (s2, s1, s2) stay in the tube, and the class map
    # goes through the C2 table's classify, never through a Hall table.
    x2 = Quiver(3, [(0, 1), (1, 2), (0, 2)])
    c2 = Quiver(2, [(0, 1), (1, 0)])
    ax = ClassTable(x2, GroundField(q), (2, 2, 2))
    cy = ClassTable(c2, GroundField(q), (2, 2))
    tube = {ax.zero_id(): cy.zero_id()}
    for v1, v2 in itertools.product(range(3), repeat=2):
        if v1 + v2 == 0:
            continue
        for c in ax.classes((v2, v1, v2)):
            a12, a23, a13 = _as_tuples(ax.rep(c.cid).mats)
            if not _is_invertible(a13, q):
                continue
            b = _mat_mul(_mat_inv_brute(a13, q), a23, q)
            # The cycle on V1 + V2 as one block matrix, nilpotent when its
            # (v1 + v2)-th power vanishes.
            cycle = tuple(
                tuple(a12[i][j - v1] if j >= v1 else 0 for j in range(v1 + v2)) for i in range(v1)
            ) + tuple(tuple(b[i][j] if j < v1 else 0 for j in range(v1 + v2)) for i in range(v2))
            power = cycle
            for _ in range(v1 + v2 - 1):
                power = _mat_mul(power, cycle, q)
            if any(any(row) for row in power):
                continue
            mats = [np.array(b, dtype=np.int64).reshape(v2, v1), np.array(a12).reshape(v1, v2)]
            tube[c.cid] = cy.classify(Rep(c2, q, (v1, v2), mats))
    assert sorted(tube.values()) == sorted(c.cid for mu in cy.degrees() for c in cy.classes(mu))
    assert len(tube) == 26
    checked = 0
    for g, jg in tube.items():
        v2, v1, _ = g[0]
        for s1, s2 in itertools.product(range(v1 + 1), range(v2 + 1)):
            dist = ax.hall_distribution(g, (s2, s1, s2))
            got = {(tube[quot], tube[sub]): m for (quot, sub), m in dist.items()}
            assert got == cy.hall_distribution(jg, (s1, s2)), (g, s1, s2)
            checked += len(got)
    assert checked == 147  # the same support at every q: Hall polynomials
