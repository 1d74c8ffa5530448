"""Exact rational geometry: primitives, LPs, face enumeration, iterated
maxima.  Expected values are either trivial consequences of definitions or
derived by hand on small instances noted inline."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from crnkit.geometry import (
    ArrangementFace,
    LimitExceeded,
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

from conftest import HEXAGON, HEXAGON_Q2_INDEX


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


class TestMaxSubset:
    def test_hexagon_w1_selects_right_edge(self):
        top = max_subset(HEXAGON, (1.0, 0.0), tol=1e-9)
        assert set(top) == {HEXAGON[1], HEXAGON[2]}

    def test_hexagon_chain_reaches_single_vertex(self):
        chain = super_chain(HEXAGON, [(1.0, 0.0), (0.0, 1.0)], tol=1e-9)
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


def _sign(x):
    return (x > 0) - (x < 0)


class TestEnumerateFaces:
    def test_single_line_in_plane(self):
        # one hyperplane x = 0 in the plane: two open sides plus the two
        # rays of the line itself
        faces = enumerate_faces([fvec(1, 0)])
        assert len(faces) == 4
        signs = sorted(f.signs for f in faces)
        assert signs == [(-1,), (0,), (0,), (1,)]

    def test_two_coordinate_lines(self):
        # x = 0 and y = 0: four quadrants plus four half-axes
        faces = enumerate_faces([fvec(1, 0), fvec(0, 1)])
        assert len(faces) == 8
        assert len({f.signs for f in faces}) == 8

    def test_point_on_line(self):
        # hyperplane 0 in one dimension: two sides, no zero face
        faces = enumerate_faces([fvec(1)])
        assert sorted(f.signs for f in faces) == [(-1,), (1,)]

    def test_no_normals_single_face(self):
        faces = enumerate_faces([])
        assert len(faces) == 1
        assert faces[0].signs == ()

    def test_antiparallel_normals_share_hyperplane(self):
        # w and -w cut the same line; the sign vectors stay consistent
        faces = enumerate_faces([fvec(1, 1), fvec(-2, -2)])
        for f in faces:
            assert f.signs[0] == -f.signs[1]
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
            faces = enumerate_faces(normals)
            for f in faces:
                for hi, h in enumerate(normals):
                    d = sum(a * b for a, b in zip(h, f.representative))
                    assert _sign(d) == f.signs[hi]

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
            enumerated = {f.signs for f in enumerate_faces(normals)}
            for _ in range(50):
                w = fvec(*(int(v) for v in rng.integers(-9, 10, n)))
                if not any(w):
                    continue
                sv = tuple(
                    _sign(sum(a * b for a, b in zip(h, w))) for h in normals
                )
                assert sv in enumerated

    def test_limit_exceeded(self):
        normals = [fvec(1, i) for i in range(5)]
        with pytest.raises(LimitExceeded):
            enumerate_faces(normals, limit=3)

    def test_env_var_limit(self, monkeypatch):
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "2")
        with pytest.raises(LimitExceeded):
            enumerate_faces([fvec(1, 0), fvec(0, 1), fvec(1, 1)])
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "10")
        assert enumerate_faces([fvec(1, 0), fvec(0, 1), fvec(1, 1)])

    def test_faces_are_hashable_and_sorted(self):
        faces = enumerate_faces([fvec(1, 0), fvec(0, 1)])
        assert faces == sorted(faces, key=lambda f: (f.signs, f.representative))
        assert len({f for f in faces}) == len(faces)
        assert isinstance(faces[0], ArrangementFace)


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
        for f in faces:
            assert tuple(_sign(sum(a * b for a, b in zip(h, f.representative)))
                         for h in normals) == f.signs

    @pytest.mark.parametrize("m, count", [(10, 1876), (12, 3332)])
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
        S = np.array([f.signs for f in faces])
        conformal = np.all((C[None] == 0) | (C[None] == S[:, None]), axis=2)
        for f, row in zip(faces, conformal):
            assert f.representative == primitive(Z[row].sum(axis=0).tolist())


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
