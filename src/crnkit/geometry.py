"""Exact rational geometry: linear algebra over Fraction, strict-feasibility
linear programming, central hyperplane-arrangement face enumeration, and the
maximal-subset / Super-chain primitives used by classification and jets.

No floating point is used anywhere in this module: face enumeration closes
int8 sign rows and sums conformal cocircuits in Python-int arrays.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RationalVector = tuple[Fraction, ...]
SignVector = tuple[int, ...]

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
    direction.  The zero vector maps to itself."""
    u = [Fraction(a) for a in u]
    if all(a == 0 for a in u):
        return tuple(0 for _ in u)
    denom_lcm = math.lcm(*(a.denominator for a in u))
    ints = [int(a * denom_lcm) for a in u]
    g = math.gcd(*ints)
    return tuple(a // g for a in ints)


def _canonical_hyperplane(u) -> tuple[int, ...]:
    # primitive vector with first nonzero entry positive (keys a hyperplane,
    # forgetting orientation)
    p = primitive(u)
    for a in p:
        if a != 0:
            return p if a > 0 else tuple(-x for x in p)
    return p


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns:
        (R, pivots) where R is the echelon matrix (same shape) and pivots
        lists the pivot column of each nonzero row.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(list(rows))[1])


def nullspace(rows, ncols: int) -> list[RationalVector]:
    """Exact basis of {x : M x = 0} for the matrix with the given rows."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    mat, pivots = rref(list(rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -mat[r][f]
        basis.append(tuple(v))
    return basis


def row_space_basis(rows, ncols: int) -> list[RationalVector]:
    """Basis of the row space, as gcd-reduced integer vectors."""
    if not rows:
        return []
    mat, pivots = rref(list(rows))
    return [vec(primitive(mat[i])) for i in range(len(pivots))]


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


def max_subset(Y, w, tol=0):
    """Elements of Y attaining the maximum of <w, y>.

    Works on exact rationals (tol=0, default) or floats with a tie
    tolerance.  With w = 0 every element is maximal.

    Raises:
        ValueError: if Y is empty.
    """
    Y = list(Y)
    if not Y:
        raise ValueError("max_subset of an empty set")
    values = [sum(a * b for a, b in zip(w, y)) for y in Y]
    best = max(values)
    return [y for y, v in zip(Y, values) if best - v <= tol]


def super_chain(Q, frame, tol=0):
    """Nested maximal subsets Super_1 >= ... >= Super_l along a frame.

    Super_0 = Q and Super_j = max_subset(Super_{j-1}, w_j).

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
        current = max_subset(current, w, tol=tol)
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# exact simplex and strict feasibility


def _simplex(A, b, c):
    """min c.z  s.t.  A z = b, z >= 0, all entries Fraction.

    Two-phase simplex with Bland's rule (no cycling).  Returns
    (status, z, value) with status in {"optimal", "unbounded", "infeasible"}.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]

    # tableau with artificial variables n..n+m-1
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(row, col):
        piv = T[row][col]
        T[row] = [x / piv for x in T[row]]
        for i in range(len(T)):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [x - f * y for x, y in zip(T[i], T[row])]
        basis[row] = col

    def run_phase(cost):
        # Bland's rule: smallest entering index, ties on leaving broken by
        # smallest basic index; cost covers the current columns minus rhs
        while True:
            red = cost[:]
            for i, bi in enumerate(basis):
                if red[bi] != 0:
                    f = red[bi]
                    red = [x - f * y for x, y in zip(red, T[i][:-1])]
            entering = next((j for j, x in enumerate(red) if x < 0), None)
            if entering is None:
                val = sum(cost[bi] * T[i][-1] for i, bi in enumerate(basis))
                return "optimal", val
            ratios = [
                (T[i][-1] / T[i][entering], basis[i], i)
                for i in range(len(T))
                if T[i][entering] > 0
            ]
            if not ratios:
                return "unbounded", None
            _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
            pivot(leave, entering)

    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    status, val = run_phase(phase1_cost)
    if val != 0:
        return "infeasible", None, None
    # drive artificials out of the basis; rows where none of the original
    # columns can pivot are redundant and dropped
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    keep_rows = [i for i in range(m) if basis[i] < n]
    T[:] = [T[i] for i in keep_rows]
    basis[:] = [basis[i] for i in keep_rows]
    keep = list(range(n)) + [n + m]
    T[:] = [[row[j] for j in keep] for row in T]
    cost2 = [Fraction(x) for x in c]
    status, val = run_phase(cost2)
    z = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        z[bi] = T[i][-1]
    return status, z, val


def lp_feasible_nonneg(A, b) -> tuple[bool, list[Fraction] | None]:
    """Feasibility of {A z = b, z >= 0} by phase-1 simplex (exact)."""
    if not A:
        return True, []
    status, z, _ = _simplex(A, b, [Fraction(0)] * len(A[0]))
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
    width = 2 * n + 1 + ns + 1
    A, b = [], []
    for a, r in equalities:
        A.append(list(a) + [-x for x in a] + [Fraction(0)] * (1 + ns + 1))
        b.append(r)
    for i, (a, r) in enumerate(strict):
        row = list(a) + [-x for x in a] + [Fraction(-1)]
        row += [Fraction(-int(i == j)) for j in range(ns)] + [Fraction(0)]
        A.append(row)
        b.append(r)
    A.append([Fraction(0)] * (2 * n) + [Fraction(1)] + [Fraction(0)] * ns + [Fraction(1)])
    b.append(Fraction(1))
    cost = [Fraction(0)] * width
    cost[2 * n] = Fraction(-1)  # maximize t
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


@dataclass(frozen=True)
class ArrangementFace:
    """A face of a central arrangement: its sign vector over the input
    normals and an exact nonzero representative realizing those signs."""

    signs: SignVector
    representative: RationalVector


_BLOCK = 1 << 18  # int8 entries per composition block, so memory per block is fixed


def _keys(S: np.ndarray) -> np.ndarray:
    # one np.void per sign row: rows sort, unique and set-compare whole
    return np.ascontiguousarray(S).view(np.dtype((np.void, S.shape[1])))[:, 0]


def _cocircuits(hypers: np.ndarray):
    """Cocircuits of an essential arrangement (K x r Python-int normals of
    rank r) from the nullspaces of rank-(r-1) subsets, in both orientations:
    distinct sign rows (int8) and their primitive generators (Python ints)."""
    r = hypers.shape[1]
    Z = np.array([primitive(ns[0]) for rows in itertools.combinations(hypers.tolist(), r - 1)
                  if len(ns := nullspace(rows, r)) == 1], dtype=object).reshape(-1, r)
    Z = np.vstack([Z, -Z])
    C = np.sign(Z @ hypers.T).astype(np.int8)
    _, first = np.unique(_keys(C), return_index=True)
    return C[first], Z[first]


def _closure(C: np.ndarray) -> np.ndarray:
    """Every nonzero covector, as distinct int8 rows composed from the
    cocircuit sign rows C.  A face of dimension above 1 is G o c for a facet
    G of it and a cocircuit c conformal to it, which opposes no sign of G;
    so each round composes the new rows that have a zero with the
    cocircuits opposing none of their signs (rows without one are final)."""
    K = C.shape[1]
    step = max(1, _BLOCK // C.size)
    seen = frontier = np.unique(_keys(C))
    while len(frontier):
        F = frontier.view(np.int8).reshape(-1, K)
        F = F[np.any(F == 0, axis=1), None, :]
        fresh = []
        for B in (F[i:i + step] for i in range(0, len(F), step)):
            composed = np.where(B != 0, B, C)[~np.any(B * C < 0, axis=2)]
            fresh.append(np.setdiff1d(_keys(composed), seen))
        frontier = np.unique(np.concatenate([seen[:0], *fresh]))
        seen = np.union1d(seen, frontier)
    return seen.view(np.int8).reshape(-1, K)


def enumerate_faces(normals, limit: int | None = None) -> list[ArrangementFace]:
    """All faces of the central arrangement of the given hyperplanes.

    Every realizable sign vector of w -> (sign<normal_i, w>)_i over nonzero w
    is returned exactly once with an exact rational representative, except
    the all-zero sign vector: when the common lineality is a line, both rays
    get a face of their own (the two orientations are genuinely different
    directions); higher-dimensional linealities get a single face.

    In essential coordinates (the row space of the normals) a face is a
    pointed cone whose extreme rays are its conformal cocircuits, so their
    primitive sum, mapped back, represents it whatever order the closure
    took.  Products whose size depends on the input are Python ints.

    Duplicate and parallel normals share a hyperplane internally; zero
    normals contribute a constant 0 sign.  Faces come back sorted by sign
    vector, representatives gcd-reduced.

    Args:
        normals: rational vectors, all of the same length n >= 1.
        limit: cap on distinct hyperplanes (default 20, or the
            CRN_MAX_HYPERPLANES environment variable).

    Raises:
        LimitExceeded: more distinct hyperplanes than the limit.
    """
    normals = [vec(a) for a in normals]
    if limit is None:
        limit = int(os.environ.get("CRN_MAX_HYPERPLANES", DEFAULT_HYPERPLANE_LIMIT))
    if not normals:
        return [ArrangementFace((), (Fraction(1),))]
    n = len(normals[0])

    hyper_index: dict[tuple[int, ...], int] = {}
    hypers: list[tuple[int, ...]] = []
    where: list[tuple[int, int]] = []  # per input normal: (hyperplane, orientation 0 if zero)
    for a in normals:
        p = primitive(a)
        if all(x == 0 for x in p):
            where.append((0, 0))
            continue
        canon = _canonical_hyperplane(p)
        orient = 1 if p == canon else -1
        if canon not in hyper_index:
            hyper_index[canon] = len(hypers)
            hypers.append(canon)
        where.append((hyper_index[canon], orient))
    K = len(hypers)
    if K > limit:
        raise LimitExceeded(
            f"{K} distinct hyperplanes exceed the limit of {limit} "
            f"(set CRN_MAX_HYPERPLANES to raise it)"
        )

    out = []
    if K:
        # essential coordinates: restrict to the row space of the normals (r x n)
        P = np.array([list(map(int, p)) for p in row_space_basis(hypers, n)], dtype=object)
        C, Z = _cocircuits(np.array(hypers, dtype=object) @ P.T)
        S = _closure(C)
        # each face's representative: the sum of its conformal cocircuits
        # (s.c == |c|_1), block by block, mapped back and made primitive
        Ct, step = C.T.astype(np.int32), max(1, _BLOCK // C.size)
        U = [np.add.reduceat(Z[cc], np.flatnonzero(np.diff(face, prepend=-1)))
             for face, cc in (np.nonzero(S[i:i + step] @ Ct == np.abs(Ct).sum(axis=0))
                              for i in range(0, len(S), step))]
        W = np.concatenate(U) @ P
        W //= np.gcd.reduce(W, axis=1, initial=0)[:, None]
        col, orient = np.array(where).T
        out = [ArrangementFace(tuple(sig), vec(w))
               for sig, w in zip((S[:, col] * orient).tolist(), W.tolist())]
    # lineality: directions on which every normal vanishes
    lin = nullspace([list(h) for h in hypers], n) if K else nullspace([], n)
    zero_sig = tuple(0 for _ in normals)
    if len(lin) == 1:
        z = primitive(lin[0])
        out.append(ArrangementFace(zero_sig, vec(z)))
        out.append(ArrangementFace(zero_sig, vec(tuple(-x for x in z))))
    elif len(lin) >= 2:
        out.append(ArrangementFace(zero_sig, vec(primitive(lin[0]))))
    out.sort(key=lambda f: (f.signs, tuple(f.representative)))
    return out


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
