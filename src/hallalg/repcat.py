"""Nilpotent representations of a finite quiver over a prime field.

Isomorphism classes are materialized per dimension vector by closing
candidate representations under the base-change group with a breadth-first
orbit search; the canonical representative of a class is the
lexicographically least representation in its orbit under the one
flattening of a representation into digit rows (arrow matrices in
arrow-list order, each row-major).  Every state of the variety is kept as
one order-preserving packed key with its class label, in two parallel
sorted arrays per dimension vector, and a block of states is classified by
one batch lookup.  A class is stored as its least key, unpacked into
matrices on demand; direct sums and extensions are laid out on digit rows.
Over F_2 the orbit walk maps native keys through per-byte XOR tables of the
base-change generators; otherwise it maps unpacked digit rows.
Automorphism counts come from the orbit-stabilizer identity, Hall numbers
from Riedtmann's count of the classified extensions of all class pairs.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import modlin
from .scalars import GroundField

__all__ = [
    "LimitExceeded",
    "Quiver",
    "Rep",
    "RepClass",
    "ClassTable",
    "cid_str",
    "euler_form",
    "hom_dim",
    "ext_dim",
    "end_basis",
    "aut_count",
    "is_indecomposable",
]

DimVec = tuple[int, ...]
ClassId = tuple[DimVec, int]

DEFAULT_MAX_STATES = 10**7
DEFAULT_MAX_CLASSES = 10**6
# Digit rows hold one matrix entry per byte.
MAX_FIELD_SIZE = 251
# Packed keys up to this many bits are native unsigned integers, longer ones void bytes.
_NATIVE_KEY_BITS = 64
# Orbit states are expanded and labelled, and extensions generated, this many rows at a time.
_CHUNK = 1 << 15
# Native keys of at most this many bits are walked against a visited bitmap (8 MiB at most).
_BITMAP_KEY_BITS = 26


class LimitExceeded(RuntimeError):
    """An enumeration outgrew its configured resource limit."""


class Quiver:
    """A finite quiver; loops and parallel arrows are allowed.

    Vertices are 0-based; the arrow list order is part of the identity and
    fixes the matrix slot order of representations.
    """

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: int, arrows):
        vertices = int(vertices)
        if vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < vertices and 0 <= t < vertices):
                raise ValueError(f"arrow ({s},{t}) out of range for {vertices} vertices")
        self.vertices = vertices
        self.arrows = arrows

    def zero_dim(self) -> DimVec:
        return (0,) * self.vertices

    def unit_dim(self, i: int) -> DimVec:
        return tuple(1 if k == i else 0 for k in range(self.vertices))

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and other.vertices == self.vertices
            and other.arrows == self.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({self.vertices}, {list(self.arrows)})"


def dim_add(a: DimVec, b: DimVec) -> DimVec:
    return tuple(x + y for x, y in zip(a, b))


def dim_sub(a: DimVec, b: DimVec) -> DimVec:
    return tuple(x - y for x, y in zip(a, b))


def dim_leq(a: DimVec, b: DimVec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def dims_below(bound: DimVec):
    """All dimension vectors <= bound componentwise, sorted by (total, lex)."""
    vecs = [tuple(v) for v in itertools.product(*(range(b + 1) for b in bound))]
    vecs.sort(key=lambda v: (sum(v), v))
    return vecs


def cid_str(cid: ClassId) -> str:
    """The text of a class id: `(1, 0):0`."""
    return f"{cid[0]}:{cid[1]}"


def euler_form(quiver: Quiver, a: DimVec, b: DimVec) -> int:
    """<a, b> = sum_i a_i b_i - sum_{arrows s->t} a_s b_t."""
    out = sum(x * y for x, y in zip(a, b))
    for s, t in quiver.arrows:
        out -= a[s] * b[t]
    return out


class Rep:
    """A concrete representation: one matrix over F_q per arrow.

    The matrix of an arrow s -> t has shape dim[t] x dim[s] and acts on
    column coordinate vectors.
    """

    __slots__ = ("quiver", "q", "dim", "mats")

    def __init__(self, quiver: Quiver, q: int, dim, mats):
        self.quiver = quiver
        self.q = int(q)
        self.dim = tuple(int(d) for d in dim)
        if len(self.dim) != quiver.vertices or any(d < 0 for d in self.dim):
            raise ValueError(f"bad dimension vector {dim}")
        mats = tuple(np.array(m, dtype=np.int64) % self.q for m in mats)
        if len(mats) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(quiver.arrows, mats):
            if m.shape != (self.dim[t], self.dim[s]):
                raise ValueError(
                    f"matrix shape {m.shape} does not match arrow ({s},{t}) "
                    f"for dimensions {self.dim}"
                )
        self.mats = mats

    def __repr__(self):
        return f"Rep(dim={self.dim}, q={self.q})"


def _hom_system(m: Rep, n: Rep) -> np.ndarray:
    """Coefficient matrix of the intertwiner equations N_a f_s = f_t M_a.

    The unknowns are the entries of the maps f_i: M_i -> N_i, each row-major,
    in vertex order.  An arrow s -> t gives one block row: the entries (r, c)
    of N_a f_s - f_t M_a are (N_a kron I) f_s - (I kron M_a^T) f_t.
    """
    cuts = np.cumsum([0] + [a * b for a, b in zip(n.dim, m.dim)])
    blocks = [np.zeros((0, cuts[-1]), dtype=np.int64)]
    for (s, t), ma, na in zip(m.quiver.arrows, m.mats, n.mats):
        block = np.zeros((n.dim[t] * m.dim[s], cuts[-1]), dtype=np.int64)
        block[:, cuts[s] : cuts[s + 1]] += np.kron(na, np.eye(m.dim[s], dtype=np.int64))
        block[:, cuts[t] : cuts[t + 1]] -= np.kron(np.eye(n.dim[t], dtype=np.int64), ma.T)
        blocks.append(block)
    return np.concatenate(blocks) % m.q


def hom_dim(m: Rep, n: Rep) -> int:
    """dim_k Hom(M, N), by solving the intertwiner equations."""
    if m.quiver != n.quiver or m.q != n.q:
        raise ValueError("hom requires the same quiver and field")
    sysmat = _hom_system(m, n)
    return sysmat.shape[1] - modlin.rank(sysmat, m.q)


def ext_dim(m: Rep, n: Rep) -> int:
    """dim_k Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N>."""
    out = hom_dim(m, n) - euler_form(m.quiver, m.dim, n.dim)
    assert out >= 0, "negative Ext dimension: Euler form inconsistency"
    return out


def end_basis(m: Rep) -> list[tuple[np.ndarray, ...]]:
    """A basis of End(M) as tuples of per-vertex matrices."""
    cuts = np.cumsum([d * d for d in m.dim])[:-1]
    return [
        tuple(b.reshape(d, d) for b, d in zip(np.split(vec, cuts), m.dim))
        for vec in modlin.nullspace(_hom_system(m, m), m.q)
    ]


def _end_elements(m: Rep, max_states: int):
    basis = end_basis(m)
    h = len(basis)
    if m.q**h > max_states:
        raise LimitExceeded(
            f"End space has {m.q}^{h} elements, above the limit {max_states}"
        )
    p = m.q
    for coeffs in itertools.product(range(p), repeat=h):
        blocks = [np.zeros((d, d), dtype=np.int64) for d in m.dim]
        for c, b in zip(coeffs, basis):
            if c:
                for i in range(len(blocks)):
                    blocks[i] = (blocks[i] + c * b[i]) % p
        yield blocks


def aut_count(m: Rep, max_states: int = DEFAULT_MAX_STATES) -> int:
    """|Aut(M)|, by enumerating End(M) and counting invertible elements."""
    count = 0
    for blocks in _end_elements(m, max_states):
        if all(modlin.is_invertible(b, m.q) for b in blocks):
            count += 1
    return count


def is_indecomposable(m: Rep, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Whether the only idempotent endomorphisms of M are 0 and the identity."""
    if sum(m.dim) == 0:
        return False
    p = m.q
    for blocks in _end_elements(m, max_states):
        trivial = all(not b.any() for b in blocks) or all(
            np.array_equal(b % p, np.eye(b.shape[0], dtype=np.int64)) for b in blocks
        )
        if trivial:
            continue
        if all(np.array_equal((b @ b) % p, b % p) for b in blocks):
            return False
    return True


@dataclass(frozen=True)
class RepClass:
    """An isomorphism class and its invariants; `ClassTable.rep` decodes its representative."""

    cid: ClassId
    aut: int
    orbit_size: int
    indecomposable: bool

    @property
    def dim(self) -> DimVec:
        return self.cid[0]

    def __repr__(self):
        return f"RepClass({cid_str(self.cid)})"


class _KeyCodec:
    """Order-preserving packing of states into fixed-width keys.

    A state is its n matrix entries, arrow after arrow, each matrix
    row-major.  Each entry takes `bits` bits, big-endian, so keys compare
    exactly as the entry tuples do lexicographically.  Keys of at most
    _NATIVE_KEY_BITS bits are the narrowest unsigned integer dtype that holds
    n * bits bits (uint32 for the 25 bits of a 5x5 matrix over F_2); longer
    keys are the big-endian bytes of the same integer as a void dtype, which
    numpy sorts and compares bytewise.  Only this class knows which.  Blocks of states are
    digit-major: an (n, rows) uint8 array with one row per matrix entry.
    """

    def __init__(self, q: int, n: int):
        self.n = n
        self.bits = max(1, (q - 1).bit_length())
        self.width = n * self.bits
        self.nbytes = (self.width + 7) // 8
        self.pad = 8 * self.nbytes - self.width
        self.native = self.width <= _NATIVE_KEY_BITS
        # Orbits of narrow native keys are walked against a bitmap with a bit per key.
        self.bitmapped = self.native and self.width <= _BITMAP_KEY_BITS
        if self.native:
            self.dtype = np.min_scalar_type((1 << self.width) - 1)
            self.shifts = np.arange(n - 1, -1, -1, dtype=self.dtype) * self.dtype.type(self.bits)
        else:
            self.dtype = np.dtype(f"V{self.nbytes}")

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Keys of an (n, rows) uint8 block of states."""
        rows = digits.shape[1]
        if self.native:
            # Horner over the entries, most significant first.
            keys = np.zeros(rows, dtype=self.dtype)
            for row in digits:
                keys <<= self.bits
                keys |= row
            return keys
        bits = np.unpackbits(digits.T[:, :, None], axis=2)[:, :, 8 - self.bits :]
        bits = np.concatenate(
            [np.zeros((rows, self.pad), dtype=np.uint8), bits.reshape(rows, -1)], axis=1
        )
        return np.packbits(bits, axis=1).view(self.dtype).reshape(rows)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The (n, rows) uint8 block of states of an array of keys."""
        rows = keys.shape[0]
        if self.native:
            mask = self.dtype.type((1 << self.bits) - 1)
            digits = np.empty((self.n, rows), dtype=np.uint8)
            for part in _slices(self.n, rows):
                digits[part] = keys >> self.shifts[part, None] & mask
            return digits
        bits = np.unpackbits(keys.view(np.uint8).reshape(rows, self.nbytes), axis=1)
        full = np.zeros((rows, self.n, 8), dtype=np.uint8)
        full[:, :, 8 - self.bits :] = bits[:, self.pad :].reshape(rows, self.n, self.bits)
        return np.packbits(full, axis=2).reshape(rows, self.n).T


def _slices(rows: int, cols: int) -> list[slice]:
    """Slices of the rows of a (rows, cols) block, each of at most _CHUNK entries
    unless one row is longer, so that the temporaries of a batch stay small."""
    step = max(1, _CHUNK // max(cols, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where keys would sit in the sorted array sorted_keys, and which occur there."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=np.intp), np.zeros(keys.shape, dtype=bool)
    idx = sorted_keys.searchsorted(keys)
    np.minimum(idx, sorted_keys.size - 1, out=idx)
    return idx, sorted_keys[idx] == keys


def _unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys; sorting beats np.unique's hash table here."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    # An operator, not np.not_equal(..., out=...): void keys have no ufunc loop.
    keep[1:] = keys[1:] != keys[:-1]
    return keys.compress(keep)


def _mark(seen: np.ndarray, cand: np.ndarray, keys: np.ndarray):
    """Set seen where the sorted distinct cand occur in keys, _CHUNK keys at a time."""
    for start in range(0, keys.size, _CHUNK):
        idx, found = _find(cand, keys[start : start + _CHUNK])
        seen[idx[found]] = True


def _visited(bitmap: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which native keys have their bit set: bit k & 7 of byte k >> 3.

    The gathered bytes stay uint8, never widened to the key dtype: they are
    shifted and masked in place and returned as a bool view of themselves.
    """
    shift = keys.astype(np.uint8)  # the low byte; its low 3 bits are k & 7
    shift &= 7
    bits = bitmap.take(keys >> 3)
    bits >>= shift
    bits &= 1
    return bits.view(bool)


def _visit(bitmap: np.ndarray, keys: np.ndarray):
    """Set the bits of the native keys.

    ufunc.at ORs every key's uint8 bit into its byte unbuffered, so keys
    that share a byte keep all their bits, with no mask of byte runs; a
    fancy `bitmap[keys >> 3] |= bits` would keep one bit per byte.
    """
    shift = keys.astype(np.uint8)
    shift &= 7
    np.bitwise_or.at(bitmap, keys >> 3, np.left_shift(1, shift, out=shift))


def _append(states: np.ndarray, count: int, new: np.ndarray) -> int:
    """Write new after the first count keys of states, growing it in place; the new count."""
    end = count + new.size
    if end > states.size:
        # A reallocation in place: no view of states outlives the statement that made it.
        states.resize(end + _CHUNK, refcheck=False)
    states[count:end] = new
    return end


def _labelled(codec: _KeyCodec, states: np.ndarray, starts: list[int]):
    """The sorted keys of states with their class labels, then each class's
    least key and orbit size, in label order.

    Orbit i is states[starts[i]:starts[i+1]], sorted; its label is the rank
    of its least key.  When the labels fit in the bits that the key dtype
    leaves spare, each key becomes key << lbits | label in place and one
    sort orders keys and labels together.  Otherwise the keys are a sorted
    copy and each orbit is labelled by searchsorted in slices of at most
    _CHUNK.
    """
    ends = starts[1:] + [states.size]
    mins = states[starts]
    order = np.argsort(mins, kind="stable")
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    labels_dtype = np.min_scalar_type(len(starts) - 1)
    lbits = (len(starts) - 1).bit_length()
    if codec.native and codec.width + lbits <= 8 * states.itemsize:
        keys = states
        keys <<= lbits
        for label, a, b in zip(rank.tolist(), starts, ends):
            keys[a:b] |= label
        keys.sort()
        labels = keys.astype(labels_dtype)
        labels &= (1 << lbits) - 1
        keys >>= lbits
    else:
        keys = np.sort(states, kind="stable")
        labels = np.empty(keys.size, dtype=labels_dtype)
        for label, a, b in zip(rank.tolist(), starts, ends):
            for start in range(a, b, _CHUNK):
                labels[keys.searchsorted(states[start : min(start + _CHUNK, b)])] = label
    return keys, labels, mins[order], np.subtract(ends, starts)[order].tolist()


@dataclass
class _MuData:
    """The classes of one dimension vector and every state of its variety.

    keys is sorted; labels[i] is the class index of the state keys[i].  Both
    arrays use the narrowest unsigned dtype that holds their values (for
    Jordan q=2 at (5,): uint32 keys and uint8 labels, 5 bytes per state).
    mins[c] is the least key of class c, its canonical representative.
    """

    classes: tuple[RepClass, ...]
    codec: _KeyCodec
    keys: np.ndarray
    labels: np.ndarray
    mins: np.ndarray

    def lookup(self, digits: np.ndarray) -> np.ndarray:
        """The class labels of an (n, rows) uint8 block of states."""
        idx, found = _find(self.keys, self.codec.pack(digits))
        if not found.all():
            raise ValueError("representation is not nilpotent or not in the table")
        return self.labels[idx]


class ClassTable:
    """All isomorphism classes with dimension vector inside a componentwise bound.

    Classes are enumerated lazily per dimension vector and cached together
    with the class label of every state of the variety, so classifying a
    block of representations inside the bound is one batch lookup.  Identical
    inputs give identical class ids and orderings.

    Table protocol: `DoubleHall`, `verify`, `primitives` and `gkm` read a table only
    through `field` (`field.q` is the one field size), `bound` (the grading rank is
    `len(bound)`), `degrees()` ((total, lex) order, zero first), `classes(mu)` (objects
    with `cid`, `dim` and `aut`), `cls(cid)` (a label is a position in `classes(mu)`;
    an id naming no class raises `ValueError`), `aut`, `class_count`, `indec_count`,
    `euler`, `sym`, `zero_id()`, `simple_ids()`, `hall` and `hall_distribution`, which
    maps (gamma, nu) to `{(quot_cid, sub_cid): count}`, `{}` unless nu <= dim gamma.
    """

    def __init__(
        self,
        quiver: Quiver,
        fld: GroundField,
        bound,
        *,
        max_states: int = DEFAULT_MAX_STATES,
        max_classes: int = DEFAULT_MAX_CLASSES,
    ):
        if fld.q > MAX_FIELD_SIZE:
            raise ValueError(
                f"field sizes above {MAX_FIELD_SIZE} are not supported by the state encoding"
            )
        self.quiver = quiver
        self.field = fld
        self.q = fld.q
        self.bound = tuple(int(b) for b in bound)
        if len(self.bound) != quiver.vertices or any(b < 0 for b in self.bound):
            raise ValueError(f"bad bound {bound}")
        self.max_states = int(max_states)
        self.max_classes = int(max_classes)
        self._mu: dict[DimVec, _MuData] = {}
        self._hall_dist: dict = {}
        self._euler: dict = {}
        self._nclasses = 0

    # ----- enumeration ---------------------------------------------------

    def degrees(self) -> list[DimVec]:
        """Every dimension vector within the bound.  Each holds a class, so a
        bound with more of them than max_classes is refused before any is built."""
        count = math.prod(b + 1 for b in self.bound)
        if count > self.max_classes:
            raise LimitExceeded(
                f"bound {self.bound} has {count} dimension vectors, above max_classes="
                f"{self.max_classes}; lower [limits] bound or raise [limits] max_classes"
            )
        return dims_below(self.bound)

    def _bounded(self, mu) -> DimVec:
        """mu as a tuple of ints, if it is a dimension vector within the bound."""
        mu = tuple(int(x) for x in mu)
        if len(mu) != len(self.bound) or min(mu) < 0 or not dim_leq(mu, self.bound):
            raise ValueError(f"dimension {mu} outside table bound {self.bound}")
        return mu

    def classes(self, mu) -> tuple[RepClass, ...]:
        mu = self._bounded(mu)
        self._ensure(mu)
        return self._mu[mu].classes

    def zero_id(self) -> ClassId:
        return (self.quiver.zero_dim(), 0)

    def simple_ids(self) -> list[ClassId]:
        out = []
        for i in range(self.quiver.vertices):
            cl = self.classes(self.quiver.unit_dim(i))
            assert len(cl) == 1
            out.append(cl[0].cid)
        return out

    def cls(self, cid: ClassId) -> RepClass:
        classes = self.classes(cid[0])
        if not 0 <= cid[1] < len(classes):
            raise ValueError(f"no class {cid_str(cid)}: {cid[0]} has {len(classes)} classes")
        return classes[cid[1]]

    def rep(self, cid: ClassId) -> Rep:
        """The canonical representative of a class: its least key, unpacked."""
        mu, label = self.cls(cid).cid
        shapes = self._shapes(mu)
        row = self._digit_columns(mu, [label])[:, 0]
        parts = np.split(row, np.cumsum([r * c for r, c in shapes])[:-1])
        return Rep(self.quiver, self.q, mu, [m.reshape(shape) for m, shape in zip(parts, shapes)])

    def _digit_columns(self, mu: DimVec, labels=slice(None)) -> np.ndarray:
        """The digit-major block of the canonical representatives of the
        classes of mu with the given labels, all by default, in that order."""
        self._ensure(mu)
        data = self._mu[mu]
        return data.codec.unpack(data.mins[labels])

    def aut(self, cid: ClassId) -> int:
        return self.cls(cid).aut

    def class_count(self, mu) -> int:
        return len(self.classes(mu))

    def indec_count(self, mu) -> int:
        return sum(1 for c in self.classes(mu) if c.indecomposable)

    def classify(self, rep: Rep) -> ClassId:
        if rep.quiver != self.quiver or rep.q != self.q:
            raise ValueError("classify requires the same quiver and field")
        mu = self._bounded(rep.dim)
        self._ensure(mu)
        row = np.array([x for m in rep.mats for x in m.flat], dtype=np.uint8)
        return (mu, int(self._mu[mu].lookup(row[:, None])[0]))

    def euler(self, a, b) -> int:
        key = (tuple(a), tuple(b))
        out = self._euler.get(key)
        if out is None:
            out = euler_form(self.quiver, key[0], key[1])
            self._euler[key] = out
        return out

    def sym(self, a, b) -> int:
        return self.euler(a, b) + self.euler(b, a)

    def _shapes(self, mu: DimVec):
        return [(mu[t], mu[s]) for s, t in self.quiver.arrows]

    def _state_maps(self, mu: DimVec, inverses: bool) -> tuple[int, list]:
        """The base-change generators, and their inverses if asked, as sparse
        maps on states.

        Returns (nmaps, terms).  The images of a digit-major block of states
        under all maps are a block of n * nmaps rows, row j * nmaps + m being
        entry j of the images under map m.  That row is the sum over the
        terms (dst, src, coef) of coef[i] * digits[src[i]] mod q, where dst[i]
        is the row; term 0 covers every row in order, later terms only the
        rows with more nonzero coefficients.  The sorted walk asks for the
        inverses, which make its orbit graph undirected.  Duplicate maps are
        dropped.
        """
        p = self.q
        n = sum(nt * ns for nt, ns in self._shapes(mu))
        eye = [np.eye(d, dtype=np.int64) for d in mu]
        linears: dict[bytes, np.ndarray] = {}
        for v, d in enumerate(mu):
            for g, gi in modlin.gl_generators(d, p):
                for a, ai in ((g, gi), (gi, g))[: 2 if inverses else 1]:
                    # Row j holds the coefficients of entry j of the image: the
                    # block diagonal of (A kron B^T) per arrow, which maps a
                    # row-major M to A M B.
                    linear = np.zeros((n, n), dtype=np.int64)
                    off = 0
                    for s, t in self.quiver.arrows:
                        size = mu[t] * mu[s]
                        left = a if t == v else eye[t]
                        right = ai if s == v else eye[s]
                        linear[off : off + size, off : off + size] = np.kron(left, right.T) % p
                        off += size
                    linears.setdefault(linear.tobytes(), linear)
        # Entry j of map m, in image row order; an invertible map has no zero row.
        entries = [linear[j] for j in range(n) for linear in linears.values()]
        cols = [np.flatnonzero(e) for e in entries]
        width = max((c.size for c in cols), default=0)
        peak = width * (p - 1) ** 2
        dtype = np.uint8 if peak < 2**8 else np.uint16 if peak < 2**16 else np.uint32
        terms = []
        for t in range(width):
            dst = [r for r, c in enumerate(cols) if c.size > t]
            src = np.array([cols[r][t] for r in dst], dtype=np.intp)
            coef = np.array([entries[r][cols[r][t]] for r in dst], dtype=dtype)[:, None]
            terms.append((np.array(dst, dtype=np.intp), src, coef))
        return len(linears), terms

    def _byte_tables(self, codec: _KeyCodec, maps) -> np.ndarray | None:
        """Over F_2, the (nbytes, 256, nmaps) tables of the maps on native keys.

        Over F_2 each base-change map is linear on the bits of a packed key,
        so the image of a key under map m is the XOR over its bytes b of
        tables[b, (key >> 8b) & 0xFF, m], the image of that byte alone.  The
        tables are the digit-major images of the 256 values of each byte;
        values above the key width in a partial top byte never occur.  None
        for q > 2, void keys, or no maps.
        """
        nmaps, terms = maps
        if self.q != 2 or not codec.native or not terms:
            return None
        values = np.arange(256, dtype=codec.dtype)
        keys = np.concatenate([values << codec.dtype.type(8 * b) for b in range(codec.nbytes)])
        images = self._images(codec, (nmaps, terms, None), keys)
        return np.ascontiguousarray(images.reshape(nmaps, codec.nbytes, 256).transpose(1, 2, 0))

    def _images(self, codec: _KeyCodec, maps, keys: np.ndarray) -> np.ndarray:
        """The keys of the images of the states keys under every map, map after map.

        maps is (nmaps, terms, tables).  With tables (q == 2 and native keys,
        see _byte_tables) the images of a key are one table row per key
        byte, XORed.  Otherwise the keys are unpacked into a digit-major
        block, mapped by the terms of _state_maps, reduced mod q and packed.
        """
        _, terms, tables = maps
        if tables is not None:
            # Row r of images holds the images of keys[r] under every map.
            images = np.empty(keys.shape + tables.shape[2:], dtype=keys.dtype)
            part = np.empty_like(images)
            # Column b is byte b of every key: a strided uint8 view of the
            # little-endian keys, which are the keys themselves on most hosts.
            little = keys.astype(keys.dtype.newbyteorder("<"), copy=False)
            key_bytes = little.view(np.uint8).reshape(keys.size, keys.itemsize)
            for b, table in enumerate(tables):
                table.take(key_bytes[:, b], axis=0, out=part if b else images)
                if b:
                    images ^= part
            return images.T.reshape(-1)
        digits = codec.unpack(keys)
        (_, first_src, first_coef), *later = terms
        images = digits[first_src].astype(first_coef.dtype, copy=False)
        images *= first_coef
        for dst, src, coef in later:
            images[dst] += digits[src] * coef
        del digits
        # In place; numpy divides by a scalar far faster than it takes remainders.
        for part in _slices(*images.shape):
            images[part] -= images[part] // self.q * self.q
        return codec.pack(images.astype(np.uint8, copy=False).reshape(codec.n, -1))

    def _orbit(self, mu: DimVec, codec: _KeyCodec, maps, seed: np.ndarray,
               states: np.ndarray, count: int, bitmap: np.ndarray | None) -> int:
        """Append the orbit of the one-key array seed to states[count:]; the new count.

        count is the number of states of mu found before.  Breadth-first:
        states are expanded in the order they were found, a batch of at most
        _CHUNK images at a time.  The bitmap walk tests each image against
        bitmap, the visited set of every orbit of mu, and needs only the
        generators, because in a finite group they generate every element;
        its batches run across levels.  In the sorted walk (bitmap None)
        every generator comes with its inverse, so the orbit graph is
        undirected and a new state can only repeat one of the previous,
        current or next level, each kept sorted; its batches stay within a
        level.  Either walk leaves the orbit sorted.
        """
        nmaps, terms, _ = maps
        start = count
        count = _append(states, count, seed)
        if bitmap is not None:
            _visit(bitmap, seed)
        if not terms:  # no generators, or no matrix entries: one state
            return count
        step = max(1, _CHUNK // nmaps)
        # The levels of the sorted walk, as ranges of states.
        prev, cur = (start, start), (start, count)
        head = start
        while head < count:
            if head == cur[1]:
                prev, cur = cur, (cur[1], count)
            end = min(head + step, cur[1] if bitmap is None else count)
            keys = self._images(codec, maps, states[head:end])
            head = end
            if bitmap is None:
                new = _unique(keys)
                # Each search takes only the survivors of the one before.
                for a, b in (cur, prev, (cur[1], count)):
                    new = new[~_find(states[a:b], new)[1]]
            else:
                fresh = _visited(bitmap, keys)
                np.logical_not(fresh, out=fresh)
                new = _unique(keys.compress(fresh))
            if count + new.size > self.max_states:
                raise LimitExceeded(
                    f"orbit states at dimension {mu} exceed max_states={self.max_states}; "
                    "raise [limits] max_states"
                )
            count = _append(states, count, new)
            if bitmap is None:
                # Both parts are sorted, so the stable sort is a linear merge.
                states[cur[1] : count].sort(kind="stable")
            else:
                _visit(bitmap, new)
        states[start:count].sort()
        return count

    def _direct_sums(self, a: DimVec, b: DimVec, left: np.ndarray, right: np.ndarray):
        """The digit-major block of the direct sums of every column A of left
        (states of dimension a) with every column B of right (dimension b),
        B after B with A varying fastest, and the rows of the free block X of
        [[A, X], [0, B]], the matrix of each arrow in the basis of A ⊕ B.
        This is the one pair order of the Hall layers."""
        mu = dim_add(a, b)
        rows_a, rows_b, free = [], [], []
        n = 0
        for s, t in self.quiver.arrows:
            cells = np.arange(n, n + mu[t] * mu[s]).reshape(mu[t], mu[s])
            rows_a += cells[: a[t], : a[s]].ravel().tolist()
            rows_b += cells[a[t] :, a[s] :].ravel().tolist()
            free += cells[: a[t], a[s] :].ravel().tolist()
            n += mu[t] * mu[s]
        sums = np.zeros((n, left.shape[1] * right.shape[1]), dtype=np.uint8)
        sums[rows_a] = np.tile(left, right.shape[1])
        sums[rows_b] = np.repeat(right, left.shape[1], axis=1)
        return sums, free

    def _extensions(self, a: DimVec, b: DimVec, left: np.ndarray, right: np.ndarray):
        """Every extension [[A, X], [0, B]] of each pair of columns (A, B) of
        left and right (see _direct_sums): (pair index per state, block).

        State k is pair k // q^f, with the f entries of X the base-q digits of
        k % q^f, last entry fastest, in blocks of at most _CHUNK states.
        """
        sums, free = self._direct_sums(a, b, left, right)
        size = self.q ** len(free)
        total = sums.shape[1] * size
        for lo in range(0, total, _CHUNK):
            ext = np.arange(lo, min(lo + _CHUNK, total))
            pair = ext // size
            digits = sums.take(pair, axis=1)
            ext %= size
            for row in reversed(free):
                digits[row] = ext % self.q
                ext //= self.q
            yield pair, digits

    def _candidates(self, mu: DimVec):
        """Digit-major blocks of states covering every class of dimension mu.

        Every nilpotent representation is an extension of a vertex simple
        (a top composition factor) by a smaller class, so the extensions of
        the vertex simple S_i, zero on the loops at i, by each class of
        mu - e_i hit every orbit.  The zero dimension has the one empty state.
        """
        if not any(mu):
            yield np.zeros((0, 1), dtype=np.uint8)
        for i in range(self.quiver.vertices):
            if mu[i]:
                unit = self.quiver.unit_dim(i)
                rest = dim_sub(mu, unit)
                simple = np.zeros((self.quiver.arrows.count((i, i)), 1), np.uint8)
                for _, digits in self._extensions(rest, unit, self._digit_columns(rest), simple):
                    yield digits

    def _walk(self, mu: DimVec, codec: _KeyCodec) -> tuple[np.ndarray, list[int]]:
        """Every state of dimension mu, orbit after orbit, and where each orbit starts.

        Each candidate not yet visited seeds the walk of its orbit.  With
        codec.bitmapped the visited set is one bitmap, a bit per key, shared by
        all orbits and freed on return.  Otherwise each block of candidates is
        sorted and deduplicated, and the states found before it, then those of
        each orbit it seeds, are searched in it: a search per state, not one
        per orbit.  The maps, and over F_2 their byte tables, are built once.
        """
        bitmap = np.zeros(((1 << codec.width) + 7) // 8, dtype=np.uint8) if codec.bitmapped else None
        maps = self._state_maps(mu, inverses=bitmap is None)
        maps = (*maps, self._byte_tables(codec, maps))
        states = np.empty(_CHUNK, dtype=codec.dtype)
        starts: list[int] = []
        count = 0
        for digits in self._candidates(mu):
            cand = codec.pack(digits)
            if bitmap is None:
                cand = _unique(cand)
                seen = np.zeros(cand.size, dtype=bool)
                _mark(seen, cand, states[:count])
            else:
                seen = _visited(bitmap, cand)
            for r in range(cand.size):
                if seen[r]:
                    continue
                starts.append(count)
                count = self._orbit(mu, codec, maps, cand[r : r + 1], states, count, bitmap)
                if bitmap is None:
                    _mark(seen, cand, states[starts[-1] : count])
                else:
                    seen = _visited(bitmap, cand)
        states.resize(count, refcheck=False)
        return states, starts

    def _ensure(self, mu: DimVec):
        if mu in self._mu:
            return
        codec = _KeyCodec(self.q, sum(nt * ns for nt, ns in self._shapes(mu)))
        keys, labels, mins, sizes = _labelled(codec, *self._walk(mu, codec))
        self._nclasses += len(sizes)
        if self._nclasses > self.max_classes:
            raise LimitExceeded(
                f"class count exceeds max_classes={self.max_classes} at dimension {mu}; "
                "lower [limits] bound or raise [limits] max_classes"
            )
        data = _MuData((), codec, keys, labels, mins)
        # Krull-Schmidt: a class is decomposable exactly when it has an
        # indecomposable summand of a smaller nonzero dimension.
        decomposable = set()
        for nu in dims_below(mu)[1:-1]:
            summands = [x.cid[1] for x in self.classes(nu) if x.indecomposable]
            if summands:
                rest = dim_sub(mu, nu)
                left, right = self._digit_columns(nu, summands), self._digit_columns(rest)
                sums, _ = self._direct_sums(nu, rest, left, right)
                decomposable.update(data.lookup(sums).tolist())
        group_order = math.prod(modlin.gl_order(d, self.q) for d in mu)
        assert all(group_order % size == 0 for size in sizes)
        data.classes = tuple(
            RepClass((mu, new), group_order // size, size, any(mu) and new not in decomposable)
            for new, size in enumerate(sizes)
        )
        self._mu[mu] = data

    # ----- Hall numbers ---------------------------------------------------

    def hall_distribution(self, gamma: ClassId, sub_dim) -> dict:
        """Counts of subrepresentations of M_gamma by (quotient, sub) class.

        Maps (quotient_cid, sub_cid) to the number of subrepresentations of
        the canonical representative of gamma with dimension vector sub_dim
        lying in that pair of classes.  By Riedtmann's count that number F is
        |Gr(sub_dim, dim gamma)| |O_quot| |O_sub| z / |O_gamma|, where z is
        the number of extensions of the pair's representatives in the class
        gamma.  One miss fills the distributions of every class of dim gamma.
        """
        cache_key = (gamma, tuple(sub_dim))
        if cache_key in self._hall_dist:
            return self._hall_dist[cache_key]
        sub_dim = self._bounded(sub_dim)
        mu = self.cls(gamma).dim
        data = self._mu[mu]
        dists = [{} for _ in data.classes]
        if dim_leq(sub_dim, mu):
            grass = math.prod(modlin.gaussian_binomial(d, k, self.q) for d, k in zip(mu, sub_dim))
            quot_dim = dim_sub(mu, sub_dim)
            quots, subs = self.classes(quot_dim), self.classes(sub_dim)
            nc = len(data.classes)
            z = collections.Counter()  # by pair * nc + label; np.unique's sort costs 0.9 MB of peak RSS
            left, right = self._digit_columns(sub_dim), self._digit_columns(quot_dim)
            for index, digits in self._extensions(sub_dim, quot_dim, left, right):
                z.update((index * nc + data.lookup(digits)).tolist())
            for code in sorted(z):  # in (quot, sub) order
                pair, label = divmod(code, nc)
                quot, sub, g = quots[pair // len(subs)], subs[pair % len(subs)], data.classes[label]
                f, rem = divmod(grass * quot.orbit_size * sub.orbit_size * z[code], g.orbit_size)
                assert rem == 0
                dists[label][(quot.cid, sub.cid)] = f
        self._hall_dist.update(((g.cid, sub_dim), dist) for g, dist in zip(data.classes, dists))
        return dists[gamma[1]]

    def hall(self, quot: ClassId, sub: ClassId, gamma: ClassId) -> int:
        """The Hall number: subobjects of M_gamma isomorphic to M_sub with
        quotient isomorphic to M_quot.  Every id must name a class."""
        for cid in (quot, sub, gamma):
            self.cls(cid)
        if dim_add(quot[0], sub[0]) != gamma[0]:
            return 0
        return self.hall_distribution(gamma, sub[0]).get((quot, sub), 0)

    def hall_multi(self, gamma: ClassId, parts) -> int:
        """Iterated Hall number: filtrations with quotients parts[0], parts[1], ...

        Counts chains M_gamma = X_0 >= X_1 >= ... >= X_m = 0 with
        X_{k-1}/X_k isomorphic to M_{parts[k-1]}.  Every id must name a class.
        """
        parts = tuple(parts)
        for cid in (gamma, *parts):
            self.cls(cid)
        total = self.quiver.zero_dim()
        for p in parts:
            total = dim_add(total, p[0])
        if total != gamma[0]:
            return 0
        if not parts:
            return 1
        first, rest = parts[0], parts[1:]
        dist = self.hall_distribution(gamma, dim_sub(gamma[0], first[0]))
        return sum(g * self.hall_multi(sub_cid, rest)
                   for (quot_cid, sub_cid), g in dist.items() if quot_cid == first)

    def hom(self, a: ClassId, b: ClassId) -> int:
        return hom_dim(self.rep(a), self.rep(b))

    def __repr__(self):
        return (
            f"ClassTable({self.quiver!r}, q={self.q}, bound={self.bound})"
        )

