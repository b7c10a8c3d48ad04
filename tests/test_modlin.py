import itertools

import numpy as np
import pytest

from hallalg import modlin


def _random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def test_rref_idempotent_and_rank():
    import random

    rng = random.Random(20240 + 7)
    for p in (2, 3, 5):
        for _ in range(40):
            a = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), p)
            r, piv = modlin.rref(a, p)
            r2, piv2 = modlin.rref(r, p)
            assert np.array_equal(r[: len(piv)], r2[: len(piv2)])
            assert piv == piv2
            assert modlin.rank(a, p) == len(piv)


def test_nullspace_is_kernel():
    import random

    rng = random.Random(99)
    for p in (2, 3):
        for _ in range(30):
            a = _random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5), p)
            ns = modlin.nullspace(a, p)
            assert ns.shape[0] == a.shape[1] - modlin.rank(a, p)
            if ns.shape[0]:
                assert not ((a @ ns.T) % p).any()
            assert modlin.rank(ns, p) == ns.shape[0]


def test_inverse():
    import random

    rng = random.Random(7)
    for p in (2, 3):
        count = 0
        while count < 20:
            a = _random_matrix(rng, 3, 3, p)
            if not modlin.is_invertible(a, p):
                continue
            count += 1
            inv = modlin.inverse(a, p)
            assert np.array_equal((a @ inv) % p, np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        modlin.inverse(np.zeros((2, 2), dtype=np.int64), 2)
    for shape in ((3, 0), (2, 3)):
        with pytest.raises(ValueError):
            modlin.inverse(np.zeros(shape, dtype=np.int64), 2)


def test_gl_order_by_enumeration():
    for p in (2, 3):
        for d in (1, 2):
            count = sum(
                1
                for entries in itertools.product(range(p), repeat=d * d)
                if modlin.is_invertible(
                    np.array(entries, dtype=np.int64).reshape(d, d), p
                )
            )
            assert count == modlin.gl_order(d, p)


def test_gl_generators_generate():
    for p in (2, 3):
        for d in (1, 2, 3):
            gens = [g for g, _ in modlin.gl_generators(d, p)]
            if not gens:
                assert modlin.gl_order(d, p) == 1
                continue
            seen = {np.eye(d, dtype=np.int64).tobytes()}
            frontier = [np.eye(d, dtype=np.int64)]
            while frontier:
                nxt = []
                for m in frontier:
                    for g in gens:
                        w = (g @ m) % p
                        k = w.tobytes()
                        if k not in seen:
                            seen.add(k)
                            nxt.append(w)
                frontier = nxt
            assert len(seen) == modlin.gl_order(d, p)


def test_subspace_bases_count_and_distinct():
    for p in (2, 3):
        for n in range(4):
            for k in range(n + 1):
                bases = list(modlin.subspace_bases(n, k, p))
                assert len(bases) == modlin.gaussian_binomial(n, k, p)
                spans = set()
                for b, piv in bases:
                    assert modlin.rank(b, p) == k
                    span = frozenset(
                        tuple(int(x) for x in (np.array(c) @ b) % p)
                        for c in itertools.product(range(p), repeat=k)
                    )
                    spans.add(span)
                assert len(spans) == len(bases)


def test_subspace_bases_edge_dimensions():
    for p in (2, 3):
        assert list(modlin.subspace_bases(2, 3, p)) == []
        for n in range(3):
            ((b, piv),) = modlin.subspace_bases(n, 0, p)
            assert b.shape == (0, n) and b.dtype == np.int64 and piv == ()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrices(shape):
    a = np.zeros(shape, dtype=np.int64)
    for p in (2, 3):
        assert modlin.rank(a, p) == 0
        # Every column is free: the null space is all of F_p^cols.
        assert np.array_equal(modlin.nullspace(a, p), np.eye(shape[1], dtype=np.int64))
        assert modlin.is_invertible(a, p) == (shape[0] == 0)
    # inverse is defined on square matrices only.
    inv = modlin.inverse(np.zeros((0, 0), dtype=np.int64), 2)
    assert inv.shape == (0, 0) and inv.dtype == np.int64


def test_reduce_vector_membership():
    b, piv = modlin.rref(np.array([[1, 1, 0], [0, 1, 1]]), 2)
    inside = modlin.reduce_vector(b, piv, np.array([1, 0, 1]), 2)
    assert not inside.any()
    outside = modlin.reduce_vector(b, piv, np.array([0, 0, 1]), 2)
    assert outside.any()


def test_primitive_root():
    assert modlin.primitive_root(2) == 1
    assert modlin.primitive_root(3) == 2
    assert modlin.primitive_root(5) == 2
    assert modlin.primitive_root(7) == 3
