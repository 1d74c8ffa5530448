"""Exact rational geometry: fraction-free integer elimination (rank, spans,
nullspaces), central hyperplane-arrangement faces, and the maximal-subset /
Super-chain primitives used by classification and jets; also a
fraction-free simplex for strict feasibility that nothing in crnkit calls.

Every result is exact.  Elimination and the simplex run on Python-int
rows with one row operation (_eliminate).  enumerate_faces, the one face
kernel, keeps its faces as integer arrays from the cocircuits to the
sorted sign rows and representatives it returns (Faces).  Each integer
stage is int64 when a stated bound on its values is below 2**63 and
Python ints otherwise; the conformal sums run first in float64, a BLAS
matmul, when their bound is below 2**53, so that every value is an
integer float64 holds exactly (float64 -> int64 -> Python ints), and no
other floating point is used.  The closure, the representatives and the
face incidence work on sign rows packed 32 hyperplanes to a uint64 word
(positive set in the low half, negative set in the high half), one word
per row up to 32 hyperplanes: the cocircuits are packed once and their
words, and the closure's, carried to the representatives.  Every pass
works in blocks of at most _BLOCK bytes per temporary.
Fractions are built only for rational results (nullspace and row-space
vectors, LP points)."""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RationalVector = tuple[Fraction, ...]

DEFAULT_HYPERPLANE_LIMIT = 20


class LimitExceeded(Exception):
    """Raised when an arrangement has more distinct hyperplanes than allowed."""


def vec(entries) -> RationalVector:
    """Coerce a sequence of numbers/strings to a tuple of Fractions."""
    return tuple(Fraction(e) for e in entries)


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vsub(u, v) -> RationalVector:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vadd(u, v) -> RationalVector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def vscale(c, u) -> RationalVector:
    c = Fraction(c)
    return tuple(c * Fraction(a) for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def primitive(u) -> tuple[int, ...]:
    """Scale a rational vector to integer entries with gcd 1, preserving
    direction (Python ints are not turned into Fractions on the way).  The
    zero vector maps to itself."""
    u = tuple(u)
    if not all(type(a) is int for a in u):
        q = [Fraction(a) for a in u]
        den = math.lcm(*(a.denominator for a in q))
        u = tuple(int(a.numerator) * (den // a.denominator) for a in q)
    g = math.gcd(*u)
    return tuple(a // g for a in u) if g > 1 else u


def _oriented(p: tuple[int, ...]) -> tuple[int, ...]:
    # p or -p, whichever has its first nonzero entry positive: a primitive
    # p's canonical form, which keys a hyperplane forgetting orientation
    return p if next((a for a in p if a), 0) >= 0 else tuple(-x for x in p)


def _eliminate(row, a, c: int) -> tuple[int, ...]:
    """The primitive integer row row * a[c] - a * row[c] (a[c] > 0), zero in
    column c: a positive multiple of what Gauss-Jordan leaves in row."""
    g = math.gcd(a[c], row[c])
    return primitive(a[c] // g * x - row[c] // g * y for x, y in zip(row, a))


def _echelon(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form, fraction-free (Bareiss 1968): each row is
    made primitive once, then eliminated by cross-multiplication and one gcd
    per updated row.  Returns its nonzero rows, each primitive with a
    positive pivot and zeros in the other pivot columns, and their pivots."""
    return _reduce([primitive(row) for row in rows])


def _reduce(M: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """_echelon of a list of primitive integer rows, reduced in place."""
    pivots: list[int] = []
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        a = M[p] if M[p][c] > 0 else tuple(-x for x in M[p])
        M[p], M[r] = M[r], a
        for i, row in enumerate(M):
            if i != r and row[c]:
                M[i] = _eliminate(row, a, c)
        pivots.append(c)
        if len(pivots) == len(M):
            break
    return M[:len(pivots)], pivots


def _null_generators(R, pivots, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer generators of the nullspace of a reduced echelon
    form R, one per free column, positive there; that column is the
    generator's last nonzero entry (each row is zero before its pivot)."""
    gens = []
    for f in (c for c in range(ncols) if c not in pivots):
        d = math.lcm(*(row[p] for row, p in zip(R, pivots) if row[f]))
        v = [d if c == f else 0 for c in range(ncols)]
        for row, p in zip(R, pivots):
            v[p] = -row[f] * (d // row[p])
        gens.append(primitive(v))
    return gens


def _subspaces(rows, ncols: int) -> tuple[list[RationalVector], list[RationalVector]]:
    """row_space_basis and nullspace of the rows from one reduction."""
    R, pivots = _echelon(rows)
    null = [tuple(Fraction(x, next(y for y in reversed(v) if y)) for x in v)
            for v in _null_generators(R, pivots, ncols)]
    return [vec(row) for row in R], null


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows, ncols: int) -> list[RationalVector]:
    """Exact basis of {x : M x = 0} for the matrix with the given rows: one
    vector per free column, 1 there."""
    return _subspaces(rows, ncols)[1]


def row_space_basis(rows, ncols: int) -> list[RationalVector]:
    """Basis of the row space, as gcd-reduced integer vectors (the rows of
    the reduced echelon form)."""
    return [vec(row) for row in _echelon(rows)[0]]


def gram_schmidt(vectors) -> list[RationalVector]:
    """Orthogonalize over the rationals without normalizing.

    Zero vectors and linearly dependent inputs are dropped, so the output is
    an orthogonal basis of the span.
    """
    basis: list[RationalVector] = []
    for v in vectors:
        w = tuple(Fraction(a) for a in v)
        for b in basis:
            coeff = dot(w, b) / dot(b, b)
            w = vsub(w, vscale(coeff, b))
        if not is_zero(w):
            basis.append(w)
    return basis


# ---------------------------------------------------------------------------
# maximal subsets


def max_subset(Y, w):
    """Elements of Y attaining the maximum of <w, y>, compared exactly
    (floats tie only on equal dot products).  With w = 0 all are maximal.

    Raises:
        ValueError: if Y is empty.
    """
    Y = list(Y)
    if not Y:
        raise ValueError("max_subset of an empty set")
    values = [sum(a * b for a, b in zip(w, y)) for y in Y]
    best = max(values)
    return [y for y, v in zip(Y, values) if v == best]


def super_chain(Q, frame):
    """Nested maximal subsets Super_1 >= ... >= Super_l along a frame.

    Super_0 = Q and Super_j = max_subset(Super_{j-1}, w_j), compared exactly.

    Raises:
        ValueError: if Q is empty or a frame vector is zero.
    """
    Q = list(Q)
    if not Q:
        raise ValueError("super_chain of an empty set")
    chain = []
    current = Q
    for w in frame:
        if all(not x for x in w):
            raise ValueError("zero vector in frame")
        current = max_subset(current, w)
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# exact simplex and strict feasibility, uncalled in crnkit: kept only while
# perfbench/tracing.py binds the LP names


def _simplex(A, b, c):
    """min c.z  s.t.  A z = b, z >= 0, for rational A, b, c.

    Two-phase simplex with Bland's rule (no cycling) on integer rows, the
    objective row included: each is a positive multiple of its Gauss-Jordan
    row, so every sign and ratio is the same.  Returns (status, z, value)
    with status in {"optimal", "unbounded", "infeasible"}.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # rows [A_i | e_i | b_i], negated but for e_i where b_i < 0; artificial
    # variables n..n+m-1 start in the basis
    T = []
    for i in range(m):
        p = primitive([*A[i], 1, b[i]])
        s = -1 if p[-1] < 0 else 1
        T.append([s * x for x in p[:n]] + [p[n] if j == i else 0 for j in range(m)] + [s * p[-1]])
    basis = list(range(n, n + m))

    def pivot(r, col):
        basis[r] = col
        for i, row in enumerate(T):
            if i != r and row[col]:
                T[i] = _eliminate(row, T[r], col)

    def run_phase(cost) -> bool:
        # the objective row ends the tableau; Bland's rule: smallest entering
        # index, ties on the ratio broken by the smallest basic index
        T.append(primitive([*cost, 0]))
        for i, bi in enumerate(basis):
            if T[-1][bi]:
                T[-1] = _eliminate(T[-1], T[i], bi)
        while (e := next((j for j, x in enumerate(T[-1][:-1]) if x < 0), None)) is not None:
            rows = [i for i, row in enumerate(T[:-1]) if row[e] > 0]
            if not rows:
                break
            leave = rows[0]
            for i in rows[1:]:
                if (T[i][-1] * T[leave][e], basis[i]) < (T[leave][-1] * T[i][e], basis[leave]):
                    leave = i
            pivot(leave, e)
        T.pop()
        return e is None

    run_phase([0] * n + [1] * m)
    if any(bi >= n and row[-1] for row, bi in zip(T, basis)):
        return "infeasible", None, None
    # drive artificials out of the basis; rows where none of the original
    # columns can pivot are redundant and dropped
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j]), None)
            if col is not None:
                if T[i][col] < 0:  # the row's rhs is 0
                    T[i] = [-x for x in T[i]]
                pivot(i, col)
    keep = [i for i in range(m) if basis[i] < n]
    T[:] = [T[i][:n] + T[i][-1:] for i in keep]
    basis[:] = [basis[i] for i in keep]
    bounded = run_phase(c)
    z = [Fraction(0)] * n
    for row, bi in zip(T, basis):
        z[bi] = Fraction(row[-1], row[bi])
    if not bounded:
        return "unbounded", z, None
    return "optimal", z, sum(Fraction(c[bi]) * z[bi] for bi in basis)


def lp_feasible_nonneg(A, b) -> tuple[bool, list[Fraction] | None]:
    """Feasibility of {A z = b, z >= 0} by phase-1 simplex (exact)."""
    if not A:
        return True, []
    status, z, _ = _simplex(A, b, [0] * len(A[0]))
    if status == "infeasible":
        return False, None
    return True, z


def lp_strict_feasible(equalities, strict):
    """Decide a system of rational equalities and *strict* inequalities.

    Each constraint is a pair (a, rhs) meaning <a, x> = rhs (equalities) or
    <a, x> > rhs (strict).  Strictness is handled by maximizing an auxiliary
    slack t (capped at 1) with <a, x> - t >= rhs; the system is feasible iff
    the optimum has t > 0.

    Returns:
        (feasible, witness) with witness an exact rational point or None.
    """
    equalities = [(vec(a), Fraction(r)) for a, r in equalities]
    strict = [(vec(a), Fraction(r)) for a, r in strict]
    n = len(equalities[0][0]) if equalities else (len(strict[0][0]) if strict else 0)
    if n == 0:
        return (not strict and all(r == 0 for _, r in equalities)), ()
    # variables: x = u - v with u, v >= 0 (2n), t, surplus per strict row,
    # slack for the cap t <= 1
    ns = len(strict)
    A, b = [], []
    for a, r in equalities:
        A.append([*a, *(-x for x in a)] + [0] * (ns + 2))
        b.append(r)
    for i, (a, r) in enumerate(strict):
        A.append([*a, *(-x for x in a), -1, *(-int(i == j) for j in range(ns)), 0])
        b.append(r)
    A.append([0] * (2 * n) + [1] + [0] * ns + [1])
    b.append(1)
    cost = [0] * (2 * n) + [-1] + [0] * (ns + 1)  # maximize t
    status, z, _ = _simplex(A, b, cost)
    if status == "infeasible":
        return False, None
    x = tuple(z[j] - z[n + j] for j in range(n))
    if status == "unbounded":  # cannot happen with the cap; kept defensive
        return True, x
    t = z[2 * n]
    if t > 0:
        return True, x
    return False, None


# ---------------------------------------------------------------------------
# central hyperplane arrangement


@dataclass(frozen=True, eq=False)  # arrays compare elementwise, not to one bool
class Faces:
    """The faces of a central arrangement, sorted by sign vector: signs
    (int8, faces x normals) holds each face's signs over the input normals,
    representatives (faces x n, int64 or Python ints) a primitive nonzero
    integer vector realizing them.  len() is the face count."""

    signs: np.ndarray
    representatives: np.ndarray

    def __len__(self) -> int:
        return len(self.signs)


# bytes per block temporary: the cocircuit pass eliminates as many
# (r-1) x r subsets at once as fit in 8 bytes an entry, the closure pairs
# and the representative pass masks as many rows with every cocircuit at
# once as fit one (rows, cocircuits) uint64 array per word (32
# hyperplanes), the incidence pass as many rows with all as fit one (rows,
# rows, words) array
_BLOCK = 1 << 18


def _int_dtype(bound: int):
    # a stage's dtype from a bound on every value it forms: int64 below
    # 2**63, else Python ints (object), with the same code either way
    return np.int64 if bound < 2**63 else object


def _keys(words: np.ndarray) -> np.ndarray:
    # one key per row of bit words, so rows sort, unique and set-compare
    # whole: the word itself when a row is one word, else one np.void
    return words[:, 0] if words.shape[1] == 1 else \
        np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]


def _cross_products(A: np.ndarray) -> np.ndarray:
    """The primitive generalised cross product (the signed maximal minors,
    up to sign) of each (r-1) x r matrix A[i] of rank r - 1; the others are
    dropped.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968), batched over the
    matrices: each step pivots, per matrix, on the first row with a nonzero
    in a column not yet pivoted, at its first such column, and clears that
    column from every other row, dividing exactly by the previous pivot.
    Every entry stays a minor of A[i]; at the end each pivot equals the
    minor d on the pivot columns, so the nullspace is spanned by z with
    z_f = d in the free column f and z_c = -A[i][t, f] where row t pivots
    on column c (Cramer's rule)."""
    A = A.copy()
    B, k, r = A.shape
    b = np.arange(B)
    free = np.ones((B, r), dtype=bool)
    full = np.ones(B, dtype=bool)  # rank r - 1 so far
    prev = np.ones(B, dtype=A.dtype)
    cols = []
    for t in range(k):
        cand = (A[:, t:] != 0) & free[:, None]
        has = cand.any(axis=2)
        full &= has.any(axis=1)
        row = t + has.argmax(axis=1)
        col = cand[b, row - t].argmax(axis=1)
        A[b, t], A[b, row] = A[b, row], A[b, t]
        pivot_row = A[b, t]
        p = np.where(full, pivot_row[b, col], 1)
        A = (p[:, None, None] * A - A[b, :, col][:, :, None] * pivot_row[:, None]) \
            // prev[:, None, None]
        A[b, t] = pivot_row
        prev, free[b, col] = p, False
        cols.append(col)
    f = free.argmax(axis=1)
    z = np.zeros((B, r), dtype=A.dtype)
    z[b, f] = prev
    if k:
        z[b[:, None], np.stack(cols, axis=1)] = -A[b, :, f]
    z = z[full]
    return z // np.gcd.reduce(z, axis=1, initial=0)[:, None]


def _cocircuits(H: np.ndarray):
    """Cocircuits of an essential arrangement (K x r integer normals of
    rank r) in both orientations, from the cross products of the
    rank-(r-1) subsets of normals: distinct sign rows (int8), their
    primitive generators, and the sign rows as bit words (_words), sorted
    by key (_keys), the one packing the closure and the representatives
    read.  int64 when Hadamard's bound on the elimination's
    differences of products of two minors, 2 max|h|^(2(r-1)), is below
    2**63 (it also bounds each sign product |<z, h>| <= |z| |h|), else
    Python ints."""
    K, r = H.shape
    norm2 = max(sum(x * x for x in h) for h in H.tolist())
    H = H.astype(_int_dtype(2 * norm2 ** max(r - 1, 1)))
    subsets = np.array(list(itertools.combinations(range(K), r - 1)), dtype=np.intp)
    step = max(1, _BLOCK // (8 * r * r))
    Z = np.concatenate([_cross_products(H[subsets[i:i + step]])
                        for i in range(0, len(subsets), step)])
    Z = np.vstack([Z, -Z])
    C = np.sign(Z @ H.T).astype(np.int8)
    Cw = _words(C)
    _, first = np.unique(_keys(Cw), return_index=True)
    return C[first], Z[first], Cw[first]


_LOW = np.uint64(0xFFFFFFFF)  # a word's positive half


def _words(X: np.ndarray) -> np.ndarray:
    """Sign rows as bit words, ceil(K/32) uint64 per row (one for K <=
    32): word j holds hyperplanes 32j..32j+31, their positive set in its
    low 32 bits and their negative set in its high 32 bits.  So a rotation
    by 32 swaps the signs and (w | w >> 32) & _LOW is the support."""
    n, K = X.shape
    W = -(-K // 32)
    Y = np.zeros((n, W, 1, 32), dtype=np.int8)
    Y.reshape(n, 32 * W)[:, :K] = X
    bits = Y == np.array([[1], [-1]], dtype=np.int8)  # (rows, words, sign, bit)
    return np.packbits(bits, bitorder="little").view("<u8").reshape(n, W)


def _signs(words: np.ndarray, K: int) -> np.ndarray:
    """The int8 sign rows over K hyperplanes of bit words: the inverse of
    _words."""
    n, W = words.shape
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         bitorder="little").view(np.int8).reshape(n, W, 2, 32)
    return (bits[:, :, 0] - bits[:, :, 1]).reshape(n, 32 * W)[:, :K]


def _canonical(words: np.ndarray) -> np.ndarray:
    """Which rows of bit words (_words) are canonical, their first nonzero
    sign +: the lowest support bit of the first nonzero word lies in the
    positive half.  Of X and -X exactly one is canonical (rows are
    nonzero)."""
    w = words[:, 0] if words.shape[1] == 1 else \
        words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    s = (w | w >> 32) & _LOW
    return w & s & -s != 0


def _closure(Cw: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero covector over K hyperplanes, composed from the distinct
    cocircuit sign rows Cw, as bit words (_words).  Returns (faces, half):
    faces the distinct int8 rows, the canonical half (first nonzero sign +,
    _canonical), closed alone, followed by that half negated, since -X is
    a covector iff X is; half the canonical half's bit words, in order.

    A row is held as bit words, one word when K <= 32.  A face F
    of dimension above 1 is G o c for a facet G of it and a cocircuit c
    conformal to F: c opposes no sign of G and is nonzero somewhere G is
    zero, that is, has a bit outside G's.  So each round pairs the new rows
    with a zero only with such cocircuits, and G o c is the bitwise or of
    the two rows.  Every other pair gives G itself or a face that some
    facet of it reaches with a conformal cocircuit, so no face is lost.
    Only canonical rows are kept: a canonical F has a facet G nonzero at
    F's first nonzero hyperplane (else so would be F, the cone its facets
    span), and that G is canonical, so the frontier starts at the canonical
    cocircuits, is composed with all of them, and drops the non-canonical
    compositions.  A round's compositions are deduplicated by one sort of
    their _keys, the distinct keys read back as the new rows' words, and
    looked up among the sorted keys seen before."""
    # word planes, (words, cocircuits): the block tests or over the words
    Ct = Cw.T
    Cx = Ct << 32 | Ct >> 32  # signs swapped
    # every hyperplane: an essential arrangement has no hyperplane holding all cocircuits
    full = np.bitwise_or.reduce((Cw | Cw >> 32) & _LOW, axis=0)
    step = max(1, _BLOCK // (8 * len(Cw)))
    F = Cw[_canonical(Cw)]
    rows, seen = [F], np.sort(_keys(F))
    while len(F := F[((F | F >> 32) & _LOW != full).any(axis=1)]):  # the others are final
        fresh = []
        for i in range(0, len(F), step):
            G = F[i:i + step].T[:, :, None]
            # per pair: the signs of G that c opposes, and c's bits outside G's
            opposed = functools.reduce(np.bitwise_or, (g & x for g, x in zip(G, Cx)))
            outside = functools.reduce(np.bitwise_or, (c & ~g for g, c in zip(G, Ct)))
            pair = np.flatnonzero((opposed == 0) & (outside != 0))
            composed = F[i + pair // len(Cw)] | Cw[pair % len(Cw)]
            fresh.append(composed[_canonical(composed)])
        fresh = np.concatenate(fresh)
        # one sort (np.unique of one-word keys builds a hash table, raising
        # the peak RSS); the distinct keys are the new rows' words
        keys = np.sort(_keys(fresh))
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        new = seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys
        F = np.ascontiguousarray(keys[new]).view(np.uint64).reshape(-1, fresh.shape[1])
        rows.append(F)
        seen = np.sort(np.concatenate([seen, keys[new]]))
    half = np.concatenate(rows)
    faces = _signs(half, K)
    return np.concatenate([faces, -faces]), half


def _components(S: np.ndarray) -> np.ndarray:
    """Each sign row's component, labelled by its least row: F is incident
    to G when F's positive and negative sets lie inside G's, but the
    lineality's two all-zero rays are not.  Blocks of rows (_BLOCK bytes) are
    tested against all, their pairs hooked into a forest of least roots."""
    words = _words(S)
    blank = ~words.any(axis=1)
    parent = np.arange(len(S))
    step = max(1, _BLOCK // max(words.nbytes, 1))
    for i in range(0, len(S), step):
        a, b = np.nonzero(~(words[i:i + step, None] & ~words).any(axis=2)
                          & ~(blank[i:i + step, None] & blank))
        a += i
        while not np.array_equal(ra := parent[a], rb := parent[b]):
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(parent, up := parent[parent]):
                parent = up
    return parent


def _representatives(Sw: np.ndarray, Cw: np.ndarray, Z: np.ndarray,
                     P: np.ndarray) -> np.ndarray:
    """Each face's representative: the primitive sum of its conformal
    cocircuits, mapped back by the essential basis P, from the faces' and
    the cocircuits' sign rows as bit words, Sw and Cw (_words).  Per block
    of faces, one conformality mask (c's positive and negative sets inside
    the face's, that is s.c == |c|_1) and one mask @ Z.
    The sums run in float64, a BLAS matmul, when #cocircuits max|Z| is
    below 2**53: every product and partial sum is then an integer below
    2**53, exact whatever the order, and they are read back as int64.
    Past that bound, and for the products by P, int64 when r (#cocircuits)
    max|Z| max|P| is below 2**63, else Python ints."""
    count, r = Z.shape
    zmax = int(np.abs(Z).max())
    dtype = _int_dtype(r * count * zmax * int(np.abs(P).max()))
    Z = Z.astype(np.float64 if count * zmax < 2**53 else dtype)
    P = P.astype(dtype)
    Ct, Sx = Cw.T, ~Sw  # Sx: where each face is not positive, not negative
    step = max(1, _BLOCK // (8 * count))
    U = []
    for i in range(0, len(Sw), step):
        outside = functools.reduce(np.bitwise_or, (c & x[:, None]
                                                   for c, x in zip(Ct, Sx[i:i + step].T)))
        U.append((outside == 0).astype(Z.dtype) @ Z)
    U = np.concatenate(U)
    W = (U if U.dtype == dtype else U.astype(np.int64)) @ P  # float sums back to int64
    return W // np.gcd.reduce(W, axis=1, initial=0)[:, None]


def enumerate_faces(normals) -> Faces:
    """All faces of the central arrangement of the given hyperplanes.

    Every realizable sign vector of w -> (sign<normal_i, w>)_i over nonzero w
    is returned exactly once with an exact integer representative, except
    the all-zero sign vector: when the common lineality is a line, both rays
    get a face of their own (the two orientations are genuinely different
    directions); higher-dimensional linealities get a single face.

    In essential coordinates (the row space of the normals) a face is a
    pointed cone whose extreme rays are its conformal cocircuits, so their
    primitive sum, mapped back, represents it whatever order the closure
    took.  The cocircuits are the cross products of the rank-(r-1) subsets
    of normals, eliminated together in blocks; the closure composes sign
    rows held 32 hyperplanes to a uint64 word, packed once from the
    cocircuits and read by the representatives as they are, and
    deduplicates them on one key per row (the word itself up to 32
    hyperplanes); each normal is made primitive once; only the canonical
    half of the faces (first nonzero sign +) is closed and represented,
    and the other half is its negation, since the conformal cocircuits of
    -X are those of X negated; and each block of
    at most _BLOCK bytes of conformality mask gives its conformal sums by
    one matmul.  Every integer stage runs in int64 when a stated bound
    (Hadamard's on the minors; r (#cocircuits) max|Z| max|P| on the sums)
    is below 2**63, and on Python ints otherwise, with the same code; the
    sums run before that in float64 (BLAS), exactly, while #cocircuits
    max|Z| is below 2**53.

    Duplicate and parallel normals share a hyperplane internally; zero
    normals contribute a constant 0 sign.  Faces come back sorted by sign
    vector, the lineality's two rays in the order of their representatives.

    Args:
        normals: rational vectors, all of the same length n >= 1.

    Raises:
        LimitExceeded: more distinct hyperplanes than the cap, the
            CRN_MAX_HYPERPLANES environment variable (default 20).
        ValueError: CRN_MAX_HYPERPLANES is not an integer, or is negative.
    """
    normals = [primitive(a) for a in normals]
    limit = int(os.environ.get("CRN_MAX_HYPERPLANES", DEFAULT_HYPERPLANE_LIMIT))
    if limit < 0:
        raise ValueError(f"CRN_MAX_HYPERPLANES must be at least 0, got {limit}")
    if not normals:
        return Faces(np.zeros((1, 0), dtype=np.int8), np.ones((1, 1), dtype=np.int64))
    n = len(normals[0])

    hyper_index: dict[tuple[int, ...], int] = {}
    where = []  # per input normal: (hyperplane, orientation 0 if zero)
    for p in normals:
        canon = _oriented(p)
        where.append((hyper_index.setdefault(canon, len(hyper_index)), 1 if p == canon else -1)
                     if any(p) else (0, 0))
    hypers = list(hyper_index)
    K = len(hypers)
    if K > limit:
        raise LimitExceeded(f"{K} distinct hyperplanes exceed the limit of {limit} "
                            f"(set CRN_MAX_HYPERPLANES to raise it)")

    # essential coordinates: the row space of the normals (r x n)
    R, pivots = _reduce(list(hypers))  # each already primitive
    # lineality: directions on which every normal vanishes, the nullspace;
    # a line gives both rays, in the order of their representatives
    lin = _null_generators(R, pivots, n)
    rays = (sorted([lin[0], tuple(-x for x in lin[0])]) if len(lin) == 1
            else lin[:1])
    S = np.zeros((len(rays), len(normals)), dtype=np.int8)
    W = np.array(rays, dtype=_int_dtype(max((abs(x) for ray in rays for x in ray), default=0)))
    W = W.reshape(len(rays), n)
    if K:
        P = np.array(R, dtype=object)
        _, Z, Cw = _cocircuits(np.array(hypers, dtype=object) @ P.T)
        faces, half = _closure(Cw, K)
        col, orient = np.array(where).T
        S = np.concatenate([faces[:, col] * orient.astype(np.int8), S])
        U = _representatives(half, Cw, Z, P)  # the canonical half
        W = np.concatenate([U, -U, W])
    # sign rows are distinct but for the lineality's two rays, which the
    # stable sort keeps in the order of their representatives
    order = np.lexsort(S.T[::-1])
    return Faces(S[order], W[order])


# ---------------------------------------------------------------------------
# realizing iterated maxima with one vector


def realize_iterated_max(Q, frame) -> RationalVector:
    """One rational vector whose maximal subset equals the end of the
    Super-chain of Q along an orthogonal frame.

    The output is w~ = beta_1 w_1 + ... + beta_l w_l with
    beta_1 > ... > beta_l > 0, each beta chosen below the exact threshold
    delta_j at which the running argmax would change:

        1/delta_j = max over y outside Super_j of
                    max(0, <w_{j+1}, y> - c') / (c_j - <v_j, y>)

    where v_j is the running combination, c_j its value on Super_j, and c'
    the value of w_{j+1} on Super_{j+1}.

    Raises:
        ValueError: empty Q, or a frame that is not orthogonal.
    """
    Q = [vec(y) for y in Q]
    frame = [vec(w) for w in frame]
    if not Q:
        raise ValueError("empty point set")
    for u, v in itertools.combinations(frame, 2):
        if dot(u, v) != 0:
            raise ValueError("frame vectors must be orthogonal")
    chain = super_chain(Q, frame)
    v = frame[0]
    beta = Fraction(1)
    current = chain[0]
    for j in range(1, len(frame)):
        w_next = frame[j]
        nxt = chain[j]
        c_j = dot(v, current[0])
        c_prime = dot(w_next, nxt[0])
        inv_delta = Fraction(0)
        current_set = {tuple(y) for y in current}
        for y in Q:
            if tuple(y) in current_set:
                continue
            num = dot(w_next, y) - c_prime
            if num > 0:
                inv_delta = max(inv_delta, num / (c_j - dot(v, y)))
        delta = None if inv_delta == 0 else 1 / inv_delta
        beta = beta / 2 if delta is None else min(delta, beta) / 2
        v = vadd(v, vscale(beta, w_next))
        current = nxt
    return v
