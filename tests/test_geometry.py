"""Exact rational geometry: primitives, LPs, face enumeration, iterated
maxima.  Expected values are either trivial consequences of definitions or
derived by hand on small instances noted inline."""

import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from crnkit.geometry import (
    Faces,
    LimitExceeded,
    _closure,
    _cocircuits,
    _echelon,
    _oriented,
    _signs,
    _simplex,
    _words,
    enumerate_faces,
    gram_schmidt,
    lp_feasible_nonneg,
    lp_strict_feasible,
    max_subset,
    nullspace,
    primitive,
    rank,
    realize_iterated_max,
    row_space_basis,
    super_chain,
)

from conftest import HEXAGON, HEXAGON_Q2_INDEX, NETWORKS, load


F = Fraction


def fvec(*vals):
    return tuple(F(v) for v in vals)


class TestPrimitive:
    def test_integer_scaling_removed(self):
        assert primitive(fvec(2, 4)) == fvec(1, 2)

    def test_fractions_cleared(self):
        # lcm(2,3) = 6 scales (1/2, 1/3) to (3, 2), already coprime
        assert primitive(fvec(F(1, 2), F(1, 3))) == fvec(3, 2)

    def test_direction_preserved(self):
        assert primitive(fvec(-2, 4)) == fvec(-1, 2)

    def test_already_primitive(self):
        assert primitive(fvec(3, -5, 7)) == fvec(3, -5, 7)


class TestLinearAlgebra:
    def test_rank_dependent_rows(self):
        assert rank([fvec(1, 2), fvec(2, 4)]) == 1

    def test_rank_full(self):
        assert rank([fvec(1, 0), fvec(1, 1)]) == 2

    def test_nullspace_of_sum_functional(self):
        # kernel of x + y is spanned by (1, -1)
        basis = nullspace([fvec(1, 1)], 2)
        assert len(basis) == 1
        x, y = basis[0]
        assert x + y == 0 and (x, y) != (0, 0)

    def test_nullspace_orthogonal_to_rows(self):
        rows = [fvec(1, 2, 3), fvec(0, 1, 1)]
        for v in nullspace(rows, 3):
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0

    def test_row_space_basis_spans_same_space(self):
        rows = [fvec(2, 4, 0), fvec(1, 2, 1), fvec(3, 6, 1)]
        basis = row_space_basis(rows, 3)
        assert len(basis) == rank(rows)
        assert rank(list(rows) + list(basis)) == rank(rows)

    def test_gram_schmidt_orthogonal_exact(self):
        vecs = [fvec(1, 1, 0), fvec(1, 0, 1), fvec(0, 1, 2)]
        ortho = gram_schmidt(vecs)
        for a, b in itertools.combinations(ortho, 2):
            assert sum(x * y for x, y in zip(a, b)) == 0
        assert rank(ortho) == rank(vecs)

    def test_gram_schmidt_drops_dependent(self):
        ortho = gram_schmidt([fvec(1, 2), fvec(2, 4), fvec(0, 1)])
        assert len(ortho) == 2


BIG = 2**64 + 13  # past int64
PRIME = 1_000_003
ELIMINATION_CASES = {
    "no-rows": ([], 3),
    "zero-rows": ([[0, 0], [0, 0]], 2),
    "past-2^63": ([[BIG, 1, -BIG], [2 * BIG, 3, 5], [BIG + 1, 0, BIG**2]], 3),
    "prime-denominators": ([[F(1, PRIME), F(2, 99991), 1], [F(3, 99991), 0, F(-1, PRIME)]], 3),
    "dependent": ([[1, 2, 3, 0], [2, 4, 6, 0], [0, 1, 1, 5], [1, 3, 4, 5]], 4),
    "strings-and-floats": ([["1/2", 0.25, "-3"], [0.5, "7/3", 1.0], ["1", 0.5, "-6"]], 3),
}


def _seeded_matrices(count=150):
    rng = np.random.default_rng(9)
    for i in range(count):
        m, n = int(rng.integers(0, 6)), int(rng.integers(1, 6))
        scale = [1, BIG, PRIME][i % 3]
        rows = [[F(int(rng.integers(-4, 5)) * scale, int(rng.choice([1, 2, 99991, PRIME])))
                 for _ in range(n)] for _ in range(m)]
        if m >= 2:  # the last row depends on the first two
            rows[-1] = [3 * a - b for a, b in zip(rows[0], rows[1])]
        yield rows, n


class TestExactElimination:
    """rank, nullspace and row_space_basis agree with one another and with
    the definitions, whatever the size of the entries."""

    @staticmethod
    def check(rows, ncols):
        exact = [[F(a) for a in row] for row in rows]
        null, basis = nullspace(rows, ncols), row_space_basis(rows, ncols)
        assert rank(rows) + len(null) == ncols
        assert len(basis) == rank(rows) == rank(exact + basis)
        for v in null:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in exact + basis)
        pivots = [next(j for j, a in enumerate(b) if a) for b in basis]
        for b, p in zip(basis, pivots):
            assert all(a.denominator == 1 for a in b)
            assert math.gcd(*map(int, b)) == 1 and b[p] > 0
            assert all(b[q] == 0 for q in pivots if q != p)

    @pytest.mark.parametrize("name", list(ELIMINATION_CASES))
    def test_case(self, name):
        self.check(*ELIMINATION_CASES[name])

    def test_seeded_matrices(self):
        for rows, ncols in _seeded_matrices():
            self.check(rows, ncols)


class TestMaxSubset:
    def test_hexagon_w1_selects_right_edge(self):
        top = max_subset(HEXAGON, (1.0, 0.0))
        assert set(top) == {HEXAGON[1], HEXAGON[2]}

    def test_hexagon_chain_reaches_single_vertex(self):
        chain = super_chain(HEXAGON, [(1.0, 0.0), (0.0, 1.0)])
        assert list(chain[-1]) == [HEXAGON[HEXAGON_Q2_INDEX]]

    def test_scale_invariance(self):
        pts = [fvec(0, 0), fvec(1, 2), fvec(2, 1)]
        w = fvec(1, 1)
        assert max_subset(pts, w) == max_subset(pts, fvec(7, 7))

    def test_zero_direction_keeps_all(self):
        pts = [fvec(0, 0), fvec(1, 2)]
        assert list(max_subset(pts, fvec(0, 0))) == pts


class TestStrictLP:
    def test_open_triangle_feasible(self):
        # x > 0, y > 0, x + y < 1 has interior points
        strict = [
            (fvec(1, 0), F(0)),
            (fvec(0, 1), F(0)),
            (fvec(-1, -1), F(-1)),
        ]
        feasible, point = lp_strict_feasible(equalities=[], strict=strict)
        assert feasible
        for a, r in strict:
            assert sum(x * y for x, y in zip(a, point)) > r

    def test_contradictory_pair_infeasible(self):
        feasible, _ = lp_strict_feasible(
            equalities=[],
            strict=[(fvec(1,), F(0)), (fvec(-1,), F(0))],
        )
        assert not feasible

    def test_equality_blocks_strict(self):
        # x = y with x > 0 and -y > 0 cannot hold
        feasible, _ = lp_strict_feasible(
            equalities=[(fvec(1, -1), F(0))],
            strict=[(fvec(1, 0), F(0)), (fvec(0, -1), F(0))],
        )
        assert not feasible

    def test_equality_with_room(self):
        # x + y = 1, x > 0, y > 0
        feasible, point = lp_strict_feasible(
            equalities=[(fvec(1, 1), F(1))],
            strict=[(fvec(1, 0), F(0)), (fvec(0, 1), F(0))],
        )
        assert feasible
        assert point[0] + point[1] == 1 and point[0] > 0 and point[1] > 0

    def test_nonneg_lp_membership(self):
        # (1,1) is in the cone generated by (1,0) and (1,2)
        A = [fvec(1, 1), fvec(0, 2)]
        assert lp_feasible_nonneg(A, fvec(1, 1))[0]

    def test_nonneg_lp_non_membership(self):
        # (-1, 0) is not a nonnegative combination of (1,0), (1,2)
        A = [fvec(1, 1), fvec(0, 2)]
        assert not lp_feasible_nonneg(A, fvec(-1, 0))[0]


def _entry(rng, kind):
    # integer, fractional, or sparse with the odd large integer
    if kind == 0:
        return F(int(rng.integers(-4, 5)))
    if kind == 1:
        return F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
    return F(int(rng.choice([0, 0, 1, -1, int(rng.integers(-10**6, 10**6))])))


def _seeded_lps(count=150):
    """(A, b, c) with 1-5 rows and 1-7 columns; some with a dependent last
    row, half with b = A z0 for a z0 >= 0 (feasible), some with c >= 0."""
    rng = np.random.default_rng(23)
    for i in range(count):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        A = [[_entry(rng, i % 3) for _ in range(n)] for _ in range(m)]
        if m >= 2 and i % 4 == 0:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        if i % 2:
            z0 = [F(int(rng.choice([0, 0, 1, 2])), int(rng.integers(1, 4))) for _ in range(n)]
            b = [sum(a * z for a, z in zip(row, z0)) for row in A]
        else:
            b = [_entry(rng, i % 3) for _ in range(m)]
        c = [_entry(rng, i % 3) for _ in range(n)]
        yield A, b, [abs(x) for x in c] if i % 5 == 0 else c


def _linprog(c, **kw):
    from scipy.optimize import linprog

    return linprog(np.array(c, dtype=float), method="highs", **kw)


def _exact_dot(a, x):
    return sum((F(u) * F(v) for u, v in zip(a, x)), F(0))


class TestLPOracle:
    """The exact simplex against scipy's HiGHS as an oracle: the verdicts
    agree, and every point returned satisfies its system exactly."""

    def test_simplex_status_point_and_value(self):
        statuses = set()
        for A, b, c in _seeded_lps():
            status, z, value = _simplex(A, b, c)
            ref = _linprog(c, A_eq=np.array(A, dtype=float), b_eq=np.array(b, dtype=float),
                           bounds=(0, None))
            assert status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            statuses.add(status)
            if status == "infeasible":
                assert z is None and value is None
                continue
            assert all(type(x) is F and x >= 0 for x in z)
            assert all(_exact_dot(row, z) == bi for row, bi in zip(A, b))
            if status == "optimal":
                assert value == _exact_dot(c, z)
                assert math.isclose(value, ref.fun, rel_tol=1e-9, abs_tol=1e-9)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_feasible_nonneg_points_are_exact(self):
        verdicts = set()
        for A, b, _ in _seeded_lps():
            feasible, z = lp_feasible_nonneg(A, b)
            ref = _linprog([0] * len(A[0]), A_eq=np.array(A, dtype=float),
                           b_eq=np.array(b, dtype=float), bounds=(0, None))
            assert feasible == (ref.status == 0)
            verdicts.add(feasible)
            if feasible:
                assert all(x >= 0 for x in z)
                assert all(_exact_dot(row, z) == bi for row, bi in zip(A, b))
        assert verdicts == {True, False}

    def test_strict_witnesses_are_exact(self):
        rng = np.random.default_rng(29)
        verdicts = set()
        for i in range(150):
            n = int(rng.integers(1, 5))
            # one system in six has equalities only, often more than unknowns
            ns = 0 if i % 6 == 0 else int(rng.integers(1, 6))
            ne = int(rng.integers(1, n + 2)) if ns == 0 else int(rng.integers(0, 3))
            eq = [([_entry(rng, i % 3) for _ in range(n)], F(0) if i % 2 else _entry(rng, i % 3))
                  for _ in range(ne)]
            strict = [([_entry(rng, i % 3) for _ in range(n)], _entry(rng, i % 3) if i % 4 else F(0))
                      for _ in range(ns)]
            feasible, x = lp_strict_feasible(eq, strict)
            # oracle: maximize t <= 1 subject to <a, x> - t >= r on the strict rows
            kw = {"bounds": [(None, None)] * n + [(None, 1)]}
            if eq:
                kw.update(A_eq=np.array([[*a, 0] for a, _ in eq], dtype=float),
                          b_eq=np.array([r for _, r in eq], dtype=float))
            if strict:
                kw.update(A_ub=np.array([[*(-v for v in a), 1] for a, _ in strict], dtype=float),
                          b_ub=np.array([-r for _, r in strict], dtype=float))
            ref = _linprog([0] * n + [-1], **kw)
            assert ref.status in (0, 2)
            assert feasible == (ref.status == 0 and -ref.fun > 1e-9)
            verdicts.add((feasible, ns > 0))
            if feasible:
                assert all(_exact_dot(a, x) == r for a, r in eq)
                assert all(_exact_dot(a, x) > r for a, r in strict)
            else:
                assert x is None
        assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


class TestReactantPolytopeOracle:
    """Hull membership, decided by lp_feasible_nonneg and by HiGHS: is each
    distinct source a convex combination of the others?  The systems are
    degenerate (repeated and collinear points give redundant rows)."""

    @staticmethod
    def check(points):
        points = list(dict.fromkeys(points))
        if len(points) < 2:  # a lone point has no others to combine
            return
        for i, p in enumerate(points):
            others = points[:i] + points[i + 1:]
            A, b = [*map(list, zip(*others)), [1] * len(others)], [*p, 1]
            ref = _linprog([0] * len(others), A_eq=np.array(A, dtype=float),
                           b_eq=np.array(b, dtype=float), bounds=(0, None))
            assert ref.status in (0, 2)
            assert lp_feasible_nonneg(A, b)[0] == (ref.status == 0)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_fixtures(self, name):
        net, _ = load(name)
        self.check([r.source.coeffs for r in net.reactions])

    def test_seeded_point_sets_with_repeats_and_collinear_points(self):
        rng = np.random.default_rng(31)
        for i in range(60):
            n = int(rng.integers(2, 4))
            pts = [tuple(int(v) for v in rng.integers(9, 13, n)) for _ in range(int(rng.integers(2, 7)))]
            pts.append(pts[0])  # a repeated source
            if i % 2:  # collinear: on the line through pts[0] and pts[1]
                d = tuple(b - a for a, b in zip(pts[0], pts[1]))
                pts += [tuple(a + k * x for a, x in zip(pts[0], d)) for k in (-1, 2, F(1, 2))]
            self.check(pts)


def _sign(x):
    return (x > 0) - (x < 0)


def _rows(faces):
    # each face as (signs, representative), tuples of Python ints, in order
    return [(tuple(s), tuple(w))
            for s, w in zip(faces.signs.tolist(), faces.representatives.tolist())]


class TestEnumerateFaces:
    def test_single_line_in_plane(self):
        # one hyperplane x = 0 in the plane: two open sides plus the two
        # rays of the line itself
        faces = enumerate_faces([fvec(1, 0)])
        assert len(faces) == 4
        signs = sorted(s for s, _ in _rows(faces))
        assert signs == [(-1,), (0,), (0,), (1,)]

    def test_two_coordinate_lines(self):
        # x = 0 and y = 0: four quadrants plus four half-axes
        faces = enumerate_faces([fvec(1, 0), fvec(0, 1)])
        assert len(faces) == 8
        assert len({s for s, _ in _rows(faces)}) == 8

    def test_point_on_line(self):
        # hyperplane 0 in one dimension: two sides, no zero face
        faces = enumerate_faces([fvec(1)])
        assert sorted(s for s, _ in _rows(faces)) == [(-1,), (1,)]

    def test_no_normals_single_face(self):
        faces = enumerate_faces([])
        assert len(faces) == 1
        assert faces.signs.shape == (1, 0)

    def test_antiparallel_normals_share_hyperplane(self):
        # w and -w cut the same line; the sign vectors stay consistent
        faces = enumerate_faces([fvec(1, 1), fvec(-2, -2)])
        assert np.array_equal(faces.signs[:, 0], -faces.signs[:, 1])
        assert len(faces) == 4

    def test_representative_signs_match(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            normals = [
                fvec(*(int(v) for v in rng.integers(-3, 4, n))) for _ in range(m)
            ]
            normals = [h for h in normals if any(h)]
            if not normals:
                continue
            for signs, w in _rows(enumerate_faces(normals)):
                for hi, h in enumerate(normals):
                    d = sum(a * b for a, b in zip(h, w))
                    assert _sign(d) == signs[hi]

    def test_random_direction_sign_vector_is_enumerated(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            normals = [
                fvec(*(int(v) for v in rng.integers(-2, 3, n))) for _ in range(m)
            ]
            normals = [h for h in normals if any(h)]
            if not normals:
                continue
            enumerated = {s for s, _ in _rows(enumerate_faces(normals))}
            for _ in range(50):
                w = fvec(*(int(v) for v in rng.integers(-9, 10, n)))
                if not any(w):
                    continue
                sv = tuple(
                    _sign(sum(a * b for a, b in zip(h, w))) for h in normals
                )
                assert sv in enumerated

    def test_limit_exceeded(self, monkeypatch):
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "3")
        normals = [fvec(1, i) for i in range(5)]
        with pytest.raises(LimitExceeded):
            enumerate_faces(normals)

    def test_env_var_limit(self, monkeypatch):
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "2")
        with pytest.raises(LimitExceeded):
            enumerate_faces([fvec(1, 0), fvec(0, 1), fvec(1, 1)])
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "10")
        assert enumerate_faces([fvec(1, 0), fvec(0, 1), fvec(1, 1)])

    def test_faces_are_hashable_and_sorted(self):
        faces = enumerate_faces([fvec(1, 0), fvec(0, 1)])
        assert isinstance(faces, Faces)
        assert faces.signs.dtype == np.int8 and faces.representatives.dtype == np.int64
        rows = _rows(faces)
        assert rows == sorted(rows) and len(set(rows)) == len(faces)


class TestConformalSums:
    """Representatives are the primitive sums of the conformal cocircuits,
    exact at any coefficient size.  The face counts of the seeded
    arrangements are frozen values."""

    @pytest.mark.parametrize("scale", [10**3, 10**5, 10**7])
    def test_exact_at_large_coefficients(self, scale):
        # seven generic normals in R^4 cut 84 + 224 + 210 + 70 = 588 faces;
        # cocircuit entries reach scale**3, their products with the
        # normals overflow int64 from 10**5 on
        rng = np.random.default_rng(7)
        normals = [tuple(int(v) for v in rng.integers(-scale, scale + 1, 4))
                   for _ in range(7)]
        faces = enumerate_faces(normals)
        assert len(faces) == 588
        for signs, w in _rows(faces):
            assert tuple(_sign(sum(a * b for a, b in zip(h, w))) for h in normals) == signs

    @pytest.mark.parametrize("m, count", [(10, 1876), (12, 3332), (15, 6908)])
    def test_closure_matches_frozen_counts_and_conformal_sums(self, m, count):
        rng = np.random.default_rng(m)
        normals = [tuple(int(v) for v in rng.integers(-3, 4, 4)) for _ in range(m)]
        assert rank(normals) == 4  # essential: the row-space basis is the identity
        faces = enumerate_faces(normals)
        assert len(faces) == count
        lines = {primitive(ns[0]) for sub in itertools.combinations(normals, 3)
                 if len(ns := nullspace(list(sub), 4)) == 1}
        Z = np.array(sorted(lines | {tuple(-x for x in z) for z in lines}))
        N = np.array(normals)
        C = np.sign(Z @ N.T)
        S = faces.signs
        conformal = np.all((C[None] == 0) | (C[None] == S[:, None]), axis=2)
        for (_, w), row in zip(_rows(faces), conformal):
            assert w == primitive(Z[row].sum(axis=0).tolist())


_INT8_BLOCK = 1 << 18  # int8 entries per composition block, so memory per block is fixed


def _int8_keys(S: np.ndarray) -> np.ndarray:
    # one np.void per sign row: rows sort, unique and set-compare whole
    return np.ascontiguousarray(S).view(np.dtype((np.void, S.shape[1])))[:, 0]


def _closure_int8(C: np.ndarray) -> np.ndarray:
    """Every nonzero covector, as distinct int8 rows composed from the
    cocircuit sign rows C.  A face of dimension above 1 is G o c for a facet
    G of it and a cocircuit c conformal to it, which opposes no sign of G;
    so each round composes the new rows that have a zero with the
    cocircuits opposing none of their signs (rows without one are final)."""
    K = C.shape[1]
    step = max(1, _INT8_BLOCK // C.size)
    seen = frontier = np.unique(_int8_keys(C))
    while len(frontier):
        F = frontier.view(np.int8).reshape(-1, K)
        F = F[np.any(F == 0, axis=1), None, :]
        fresh = []
        for B in (F[i:i + step] for i in range(0, len(F), step)):
            composed = np.where(B != 0, B, C)[~np.any(B * C < 0, axis=2)]
            fresh.append(np.setdiff1d(_int8_keys(composed), seen))
        frontier = np.unique(np.concatenate([seen[:0], *fresh]))
        seen = np.union1d(seen, frontier)
    return seen.view(np.int8).reshape(-1, K)


def _essential_cocircuits(normals):
    # the cocircuits enumerate_faces closes, sign rows and generators: one
    # per distinct hyperplane, in the essential coordinates of the normals'
    # row space
    hypers = list(dict.fromkeys(_oriented(primitive(p)) for p in normals if any(p)))
    R, _ = _echelon(hypers)
    return _cocircuits(np.array(hypers, dtype=object) @ np.array(R, dtype=object).T)


def _seeded_arrangements(count=60):
    # 2-5 dimensions, 1-14 normals (1-10 in 5-D, where the int8 closure
    # takes seconds past that), entries -2..2, so zero, duplicate and
    # parallel normals are common; every third one spans a proper subspace,
    # so its lineality is a line or more
    rng = np.random.default_rng(2024)
    for i in range(count):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 15 if n < 5 else 11))
        span = np.eye(n, dtype=int)
        if i % 3 == 0:
            span = rng.integers(-2, 3, (int(rng.integers(1, n)), n))
        normals = [tuple(int(x) for x in rng.integers(-2, 3, len(span)) @ span)
                   for _ in range(m)]
        # a duplicate, an antiparallel and a zero normal, as many as drawn
        extra = [normals[0], tuple(-2 * x for x in normals[-1]), (0,) * n]
        normals += extra[:int(rng.integers(0, 4))]
        yield normals
    # 14 hyperplanes on the moment curve, in R^3 and with a line of lineality in R^4
    yield [(1, a, a * a) for a in range(-7, 7)]
    yield [(1, a, a * a, 0) for a in range(-7, 7)]


class TestBitWordClosure:
    """The closure on bit words against the int8 closure it replaced."""

    def test_same_sign_rows_as_int8_closure(self):
        lineal = 0
        for normals in _seeded_arrangements():
            if not any(any(p) for p in normals):
                continue
            lineal += rank(normals) < len(normals[0])
            C, _, Cw = _essential_cocircuits(normals)
            S = _closure(Cw, C.shape[1])[0]
            assert S.dtype == np.int8 and S.shape[1] == C.shape[1]
            rows = {r.tobytes() for r in S}
            assert len(rows) == len(S)
            assert rows == {r.tobytes() for r in _closure_int8(C)}
        assert lineal >= 10

    @pytest.mark.parametrize("m", [32, 33, 64, 65, 70])
    def test_across_word_boundaries(self, m, monkeypatch):
        # m distinct lines through the origin of the plane cut 2m rays and
        # 2m sectors; past 32 hyperplanes a sign row takes a second word,
        # past 64 a third
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "100")
        normals = [(a, a * a + 1) for a in range(1, m + 1)]
        faces = enumerate_faces(normals)
        assert len(faces) == 4 * m
        for signs, w in _rows(faces):
            assert tuple(_sign(sum(a * b for a, b in zip(h, w))) for h in normals) == signs

    @pytest.mark.parametrize("K", [1, 31, 32, 33, 64, 65])
    def test_words_round_trip(self, K):
        # hyperplane k is bit k % 32 of word k // 32, positive in the low
        # half and negative in the high half
        k = np.arange(K)
        unit = np.zeros((K, -(-K // 32)), dtype=np.uint64)
        unit[k, k // 32] = np.uint64(1) << (k % 32).astype(np.uint64)
        eye = np.eye(K, dtype=np.int8)
        assert np.array_equal(_words(eye), unit)
        assert np.array_equal(_words(-eye), unit << np.uint64(32))
        X = np.random.default_rng(K).integers(-1, 2, (50, K)).astype(np.int8)
        assert _signs(_words(X), K).tolist() == X.tolist()


class TestSignSymmetry:
    """-X is a covector iff X is, so the closure closes the canonical half
    (first nonzero sign +) and appends it negated, and the representative
    of -X is minus that of X."""

    @staticmethod
    def check(normals):
        C, _, Cw = _essential_cocircuits(normals)
        S = _closure(Cw, C.shape[1])[0]
        half = S[:len(S) // 2]
        assert len(S) == 2 * len(half) and np.array_equal(S[len(half):], -half)
        assert (half[np.arange(len(half)), (half != 0).argmax(axis=1)] == 1).all()
        assert {r.tobytes() for r in S} == {r.tobytes() for r in _closure_int8(C)}
        faces = enumerate_faces(normals)
        reps = {s.tobytes(): w for s, w in zip(faces.signs, faces.representatives.tolist())
                if s.any()}
        assert len(reps) == len(S)
        for s, w in reps.items():
            assert reps[(-np.frombuffer(s, dtype=np.int8)).tobytes()] == [-x for x in w]

    def test_seeded_arrangements(self):
        for normals in _seeded_arrangements():
            if any(any(p) for p in normals):
                self.check(normals)

    @pytest.mark.parametrize("m", [32, 33, 64, 65, 70])
    def test_across_word_boundaries(self, m, monkeypatch):
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "100")
        self.check([(a, a * a + 1) for a in range(1, m + 1)])

    def test_first_word_zero(self, monkeypatch):
        # 32 planes through the z-axis, then three more: the two rays of the
        # axis are zero on the whole first word, so the second word decides
        # which of them is canonical
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "100")
        self.check([(a, a * a + 1, 0) for a in range(1, 33)] + [(b, 1, 2) for b in range(1, 4)])


def _reference_faces(normals):
    """(signs, representative) of every face by the definition, on Python
    ints and Fractions: in the coordinates of the normals' reduced row
    echelon basis P, the primitive nullspace generator of every rank-(r-1)
    subset of normals in both orientations, the int8 closure of their
    signs, and per face the primitive sum of its conformal generators
    mapped back by P, signed against the normals directly; the lineality
    is the nullspace, a line giving both rays.  Sorted."""
    normals = [primitive(a) for a in normals]
    n = len(normals[0])
    P = [primitive(row) for row in row_space_basis(normals, n)]
    hypers = [tuple(sum(a * b for a, b in zip(h, p)) for p in P) for h in normals if any(h)]
    lines = {primitive(ns[0]) for sub in itertools.combinations(hypers, len(P) - 1)
             if len(ns := nullspace(list(sub), len(P))) == 1} if P else set()
    Z = sorted(lines | {tuple(-x for x in z) for z in lines})
    C = np.array([[_sign(sum(a * b for a, b in zip(z, h))) for h in hypers] for z in Z],
                 dtype=np.int8).reshape(len(Z), len(hypers))
    Z = np.array(Z, dtype=object).reshape(len(Z), len(P))  # Python ints
    faces = []
    for s in (_closure_int8(C) if len(Z) else ()):
        u = Z[np.all((C == 0) | (C == s), axis=1)].sum(axis=0)
        w = primitive([sum(a * p[j] for a, p in zip(u, P)) for j in range(n)])
        faces.append((tuple(_sign(sum(a * b for a, b in zip(h, w))) for h in normals), w))
    lin = [primitive(v) for v in nullspace(normals, n)]
    rays = [lin[0], tuple(-x for x in lin[0])] if len(lin) == 1 else lin[:1]
    return sorted(faces + [((0,) * len(normals), w) for w in rays])


def _straddling(n, e, m=6):
    # m normals in R^n with entries in [-2**e, 2**e): in the plane their
    # products, in R^3 the conformal sums, pass 2**63 as e grows
    rng = np.random.default_rng(e)
    return [tuple(int(v) for v in rng.integers(-2**e, 2**e, n)) for _ in range(m)]


class TestIntegerStages:
    """Each integer stage of the face kernel runs in int64 below its stated
    bound and on Python ints above it; either way the faces are the
    reference's, the primitive sums of the conformal nullspace generators."""

    def test_seeded_arrangements_match_the_reference(self):
        for normals in _seeded_arrangements():
            got = _rows(enumerate_faces(normals))
            assert got == _reference_faces(normals)

    @pytest.mark.parametrize("scale", [10**3, 10**5, 10**7])
    def test_large_coefficients_match_the_reference(self, scale):
        rng = np.random.default_rng(7)
        normals = [tuple(int(v) for v in rng.integers(-scale, scale + 1, 4))
                   for _ in range(7)]
        got = _rows(enumerate_faces(normals))
        assert got == _reference_faces(normals)

    @pytest.mark.parametrize("n, exponents", [(2, range(28, 35)), (3, range(26, 33))])
    def test_straddling_2_63_matches_the_reference(self, n, exponents):
        # in the plane the 2 x 2 minors pass 2**63 as e grows and the
        # cocircuit stage switches; in R^3 the representatives do, and the
        # sums' stage switches
        dtypes, largest = set(), []
        for e in exponents:
            normals = _straddling(n, e)
            got = _rows(enumerate_faces(normals))
            assert got == _reference_faces(normals)
            if n == 2:
                dtypes.add(_cocircuits(np.array(normals, dtype=object))[1].dtype)
                largest.append(max(abs(a * d - b * c) for (a, b), (c, d)
                                   in itertools.combinations(normals, 2)))
            else:
                dtypes.add(enumerate_faces(normals).representatives.dtype)
                largest.append(max(abs(x) for _, w in got for x in w))
        assert min(largest) < 2**63 <= max(largest)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_straddling_2_53_matches_the_reference(self):
        # in R^3 the cocircuits are cross products of two normals, so
        # #cocircuits max|Z| passes 2**53 as e grows and the conformal sums
        # move from float64 to int64 (the sums' bound stays below 2**63);
        # at the top, float64 sums would round
        largest = []
        for e in range(21, 28):
            normals = _straddling(3, e)
            faces = enumerate_faces(normals)
            assert _rows(faces) == _reference_faces(normals)
            assert faces.representatives.dtype == np.int64
            Z = _essential_cocircuits(normals)[1]
            largest.append(len(Z) * int(np.abs(Z).max()))
        assert min(largest) < 2**53 <= max(largest)

    def test_same_under_optimized_python(self):
        # nothing the kernel relies on is an assert: these classes pass under -O
        out = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestIntegerStages", f"{__file__}::TestBitWordClosure",
             f"{__file__}::TestSignSymmetry",
             "-k", "not optimized"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout[-2000:]


class TestRealizeIteratedMax:
    # hexagon with rationalized height 13/15 standing in for sqrt(3)/2;
    # the switching threshold for this variant is delta = 45/26
    RQ = [
        fvec(0, F(13, 15)),
        fvec(F(3, 4), F(13, 30)),
        fvec(F(3, 4), F(-13, 30)),
        fvec(0, F(-13, 15)),
        fvec(F(-3, 4), F(-13, 30)),
        fvec(F(-3, 4), F(13, 30)),
    ]

    def test_rational_hexagon_single_vertex(self):
        w = realize_iterated_max(self.RQ, [fvec(1, 0), fvec(0, 1)])
        assert list(max_subset(self.RQ, w)) == [self.RQ[1]]

    def test_single_direction_passthrough(self):
        w = realize_iterated_max(self.RQ, [fvec(1, 0)])
        assert set(max_subset(self.RQ, w)) == {self.RQ[1], self.RQ[2]}

    def test_nonorthogonal_frame_rejected(self):
        with pytest.raises(ValueError):
            realize_iterated_max(self.RQ, [fvec(1, 0), fvec(1, 1)])

    def test_matches_exact_chain_on_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            pts = [
                fvec(*(int(v) for v in rng.integers(-4, 5, n))) for _ in range(6)
            ]
            pts = list(dict.fromkeys(pts))
            raw = [fvec(*(int(v) for v in rng.integers(-3, 4, n))) for _ in range(2)]
            frame = [v for v in gram_schmidt(raw) if any(v)]
            if not frame:
                continue
            w = realize_iterated_max(pts, frame)
            expected = super_chain(pts, frame)[-1]
            assert set(max_subset(pts, w)) == set(expected)
