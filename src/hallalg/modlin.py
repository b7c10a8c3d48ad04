"""Dense exact linear algebra over prime fields F_p on numpy integer arrays.

All matrices are numpy int64 arrays with entries reduced mod p.  Shapes are
tiny (representation dimensions), so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "inverse",
    "is_invertible",
    "reduce_vector",
    "gl_order",
    "gl_generators",
    "primitive_root",
    "subspace_bases",
    "gaussian_binomial",
]


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    piv: list[int] = []
    r = 0
    for c in range(cols):
        pr = -1
        for i in range(r, rows):
            if a[i, c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        piv.append(c)
        r += 1
        if r == rows:
            break
    return a, tuple(piv)


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Row basis of the right null space of a mod p, in canonical order."""
    a = np.asarray(a, dtype=np.int64)
    _, cols = a.shape
    r, piv = rref(a, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(piv):
            basis[k, c] = (-r[i, f]) % p
    return basis


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises ValueError if it is not
    square or is singular."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix is not square")
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    r, piv = rref(aug, p)
    if piv[:n] != tuple(range(n)):
        raise ValueError("matrix is singular mod p")
    return r[:, n:]


def is_invertible(a: np.ndarray, p: int) -> bool:
    return rank(a, p) == np.shape(a)[0]


def reduce_vector(basis: np.ndarray, piv: tuple[int, ...], v: np.ndarray, p: int) -> np.ndarray:
    """Residual of v after eliminating against an rref row basis."""
    w = np.array(v, dtype=np.int64) % p
    for i, c in enumerate(piv):
        if w[c]:
            w = (w - w[c] * basis[i]) % p
    return w


def gl_order(d: int, q: int) -> int:
    out = 1
    for k in range(d):
        out *= q**d - q**k
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group F_p^*."""
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = (x * g) % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def gl_generators(d: int, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """A small generating set of GL(d, p) as (g, g_inverse) pairs."""
    gens: list[np.ndarray] = []
    if d >= 2:
        e = np.eye(d, dtype=np.int64)
        e[0, 1] = 1
        gens.append(e)
        c = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            c[i, (i + 1) % d] = 1
        gens.append(c)
    if d >= 1 and p > 2:
        z = np.eye(d, dtype=np.int64)
        z[0, 0] = primitive_root(p)
        gens.append(z)
    return [(g, inverse(g, p)) for g in gens]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_bases(n: int, k: int, p: int):
    """Yield (basis, pivots) for every k-dimensional subspace of F_p^n.

    Bases are k x n rref matrices, produced in a fixed deterministic order
    (pivot set lexicographic, then free entries lexicographic).
    """
    for piv in combinations(range(n), k):
        pivset = set(piv)
        slots = [
            (i, j)
            for i in range(k)
            for j in range(piv[i] + 1, n)
            if j not in pivset
        ]
        for vals in product(range(p), repeat=len(slots)):
            b = np.zeros((k, n), dtype=np.int64)
            for i, c in enumerate(piv):
                b[i, c] = 1
            for (i, j), x in zip(slots, vals):
                b[i, j] = x
            yield b, piv
