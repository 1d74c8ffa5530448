"""Free-energy function, Birch-point solver, toric rays, and the empirical
boundary/projection-bound verifiers."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from crnkit import (
    NoConvergence,
    ToricRay,
    birch_point,
    estimate_mu,
    g_alpha,
    grad_g_alpha,
    parse_network,
    stoichiometric_subspace,
    verify_birch_boundary,
)
from crnkit.geometry import nullspace, row_space_basis
from crnkit.network import StoichiometryInfo

from conftest import load


F = Fraction


def random_stoichiometry(rng, n):
    """StoichiometryInfo for the span of a few random small-integer vectors."""
    m = int(rng.integers(1, n + 1))
    rows = [tuple(F(int(v)) for v in rng.integers(-3, 4, n)) for _ in range(m)]
    H = row_space_basis(rows, n)
    Hp = nullspace(H, n) if H else nullspace([tuple([F(0)] * n)], n)
    return StoichiometryInfo(tuple(H), tuple(Hp), len(H))


def wide_instances(rng):
    """Criterion 3's generator with x0 and alpha log-uniform in [1e-3, 1e3]:
    (stoichiometry, x0, alpha) without end."""
    while True:
        n = int(rng.integers(2, 6))
        st = random_stoichiometry(rng, n)
        x0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        yield st, x0, np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))


class TestFreeEnergy:
    def test_value_at_alpha_like_point(self):
        # x log(x/alpha) - x summed: (1,3) against alpha=(1,3) gives -1-3
        assert g_alpha((1.0, 3.0), (1.0, 3.0)) == pytest.approx(-4.0)

    def test_zero_coordinate_contributes_zero(self):
        assert g_alpha((0.0, 1.0), (1.0, 1.0)) == pytest.approx(-1.0)

    def test_generic_value(self):
        # 2 log(2/1) - 2 + 1 log(1/3) - 1
        expected = 2 * np.log(2) - 3 + np.log(1 / 3)
        assert g_alpha((2.0, 1.0), (1.0, 3.0)) == pytest.approx(expected)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            g_alpha((1.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            g_alpha((-0.5, 1.0), (1.0, 1.0))

    def test_gradient_matches_central_difference(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            x = rng.uniform(0.2, 3.0, n)
            alpha = rng.uniform(0.2, 3.0, n)
            grad = grad_g_alpha(x, alpha)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                num = (g_alpha(x + e, alpha) - g_alpha(x - e, alpha)) / (2 * h)
                assert abs(grad[i] - num) < 1e-6

    def test_gradient_is_componentwise_log_ratio(self, rng):
        x = rng.uniform(0.5, 2.0, 4)
        alpha = rng.uniform(0.5, 2.0, 4)
        assert np.allclose(grad_g_alpha(x, alpha), np.log(x / alpha))


class TestBirchPoint:
    def test_reversible_pair_closed_form(self):
        # conservation x_A + x_B = 4 and equal log-ratios force (1, 3)
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        sol = birch_point(st, (2.0, 2.0), (1.0, 3.0))
        assert np.allclose(sol.point, (1.0, 3.0), atol=1e-10)
        assert sol.residual <= 1e-12

    def test_full_subspace_returns_alpha(self):
        net, _ = load("reverse_lv")
        st = stoichiometric_subspace(net)
        sol = birch_point(st, (5.0, 7.0), (1.5, 2.5))
        assert sol.point == (1.5, 2.5)
        assert sol.residual == 0.0

    def test_zero_subspace_returns_x0(self):
        net, _ = parse_network("species: A\nA -> A\n")
        st = stoichiometric_subspace(net)
        sol = birch_point(st, (0.7,), (3.0,))
        assert sol.point == (0.7,)

    def test_residual_meets_tolerance_on_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            st = random_stoichiometry(rng, n)
            x0 = rng.uniform(0.3, 3.0, n)
            alpha = rng.uniform(0.3, 3.0, n)
            sol = birch_point(st, x0, alpha)
            assert sol.residual <= 1e-12
            assert all(v > 0 for v in sol.point)

    def test_independent_starts_agree(self, rng):
        net, _ = load("futile_cycle")
        st = stoichiometric_subspace(net)
        x0 = rng.uniform(0.5, 2.0, 5)
        alpha = rng.uniform(0.5, 2.0, 5)
        a = birch_point(st, x0, alpha)
        t1 = 0.05 * rng.standard_normal(st.dimension)
        b = birch_point(st, x0, alpha, start_t=t1)
        assert np.allclose(a.point, b.point, atol=1e-11)

    def test_point_stays_on_affine_slice(self, rng):
        net, _ = load("futile_cycle")
        st = stoichiometric_subspace(net)
        A = st.Hperp_matrix()
        x0 = rng.uniform(0.5, 2.0, 5)
        sol = birch_point(st, x0, rng.uniform(0.5, 2.0, 5))
        assert np.linalg.norm(A @ (np.array(sol.point) - x0)) <= 1e-10

    def test_rejects_nonpositive_inputs(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        with pytest.raises(ValueError):
            birch_point(st, (0.0, 2.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            birch_point(st, (1.0, 2.0), (1.0, -1.0))
        with pytest.raises(ValueError):
            birch_point(st, (1.0, 2.0), (1.0, 1.0), tol=0.0)

    def test_converges_where_rounding_stalls_armijo(self):
        # near the minimum the full Newton step lowers the residual but
        # raises g_alpha by rounding, which Armijo alone rejects forever
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        x0, alpha = (0.604708, 1.63416), (1.16426, 0.594742)
        sol = birch_point(st, x0, alpha)
        assert sol.residual <= 1e-12
        # closed form: x_A / x_B = alpha_A / alpha_B on x_A + x_B = const
        total = sum(x0)
        expected = (total * alpha[0] / sum(alpha), total * alpha[1] / sum(alpha))
        assert sol.point == pytest.approx(expected, rel=1e-12)

    def test_flat_steps_are_judged_against_the_larger_term_of_phi(self):
        # phi = sum(x) - <lambda, Q^T x0> is about 29 here, from terms near
        # 535 and 506: their rounding exceeds 4 ulps of phi itself, so a
        # flat test against phi rejects steps that lower the residual and
        # the solve stalls at 8.8e-8
        st = StoichiometryInfo(((F(3), F(1)),), ((F(-1, 3), F(1)),), 1)
        x0 = (0.2764059736199563, 535.6188107902218)
        alpha = (0.0029051320009782244, 207.99464076118352)
        sol = birch_point(st, x0, alpha)
        assert sol.residual <= 1e-12
        # on the slice, x_B - x_A / 3 is conserved; on the fibre,
        # log(x / alpha) is orthogonal to H = span(3, 1)
        (xa, xb), (aa, ab) = sol.point, alpha
        assert xb - xa / 3 == pytest.approx(x0[1] - x0[0] / 3, rel=1e-14)
        assert 3 * np.log(xa / aa) + np.log(xb / ab) == pytest.approx(0, abs=1e-13)

    def test_wide_range_sweep_raises_nothing_but_no_convergence(self):
        # a point that is not found misses the absolute tol only through
        # the rounding of A (x - x0), whose floor eps * ||A||_inf * max(x0)
        # reaches 1e-12 on these inputs
        solved = 0
        for st, x0, alpha in itertools.islice(wide_instances(np.random.default_rng(31)), 400):
            try:
                sol = birch_point(st, x0, alpha)
            except NoConvergence as exc:
                A = st.Hperp_matrix()
                floor = np.finfo(float).eps * np.abs(A).sum(axis=1).max() * x0.max()
                assert np.isfinite(exc.residual)
                assert exc.residual <= 4 * floor
                continue
            solved += 1
            assert sol.residual <= 1e-12
            assert min(sol.point) > 0
        assert solved >= 395

    def test_floor_failure_stops_when_an_iterate_repeats(self, monkeypatch):
        # the first failure of the sweep above cycles between two iterates at
        # the rounding floor; it stops there, not at max_iter's 200 solves
        solve = np.linalg.solve
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        for st, x0, alpha in itertools.islice(wide_instances(np.random.default_rng(31)), 400):
            calls.clear()
            try:
                birch_point(st, x0, alpha)
            except NoConvergence as exc:
                assert "a step returned to an earlier iterate at iteration" in str(exc)
                break
        else:
            pytest.fail("the sweep has no failure")
        assert len(calls) <= 20

    def test_start_outside_the_orthant_is_rejected(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        # B is a unit vector along (1, -1) up to sign, so t = +-3 puts one
        # coordinate of x0 + B t below 0
        for t in (3.0, -3.0):
            with pytest.raises(ValueError, match="starting point"):
                birch_point(st, (1.0, 1.0), (1.0, 1.0), start_t=(t,))

    def test_iteration_cap_raises_with_state(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        with pytest.raises(NoConvergence) as exc:
            birch_point(st, (2.0, 2.0), (1.0, 3.0), tol=1e-30, max_iter=3)
        assert exc.value.last is not None
        assert exc.value.residual is not None


class TestToricRay:
    def test_base_point_at_one(self):
        ray = ToricRay((2.0, 3.0), (1.0, -1.0))
        assert np.allclose(ray.point(1.0), (2.0, 3.0))

    def test_componentwise_powers(self):
        ray = ToricRay((2.0, 3.0), (1.0, -1.0))
        assert np.allclose(ray.point(10.0), (20.0, 0.3))

    def test_rejects_theta_below_one(self):
        ray = ToricRay((1.0,), (1.0,))
        with pytest.raises(ValueError):
            ray.point(0.5)


class TestBoundaryVerifier:
    def test_reversible_pair_stays_clear(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        out = verify_birch_boundary(st, (2.0, 2.0), (1.0, 3.0), samples=60)
        assert out["verdict"] == "empirical"
        assert out["violations"] == []
        assert out["min_distance"] > 0
        assert np.allclose(out["birch_point"], (1.0, 3.0), atol=1e-9)

    def test_reports_every_sampled_direction(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        out = verify_birch_boundary(st, (2.0, 2.0), (1.0, 3.0), samples=25)
        assert len(out["per_direction"]) == 25
        for entry in out["per_direction"]:
            assert entry["min_bound"] >= 0

    def test_rejects_a_network_with_no_species(self):
        # no unit direction exists, so the sampler would draw forever
        st = stoichiometric_subspace(parse_network("0 -> 0")[0])
        with pytest.raises(ValueError, match="no species"):
            verify_birch_boundary(st, (), ())


class TestProjectionBound:
    def test_rejects_a_network_with_no_species(self):
        st = stoichiometric_subspace(parse_network("0 -> 0")[0])
        with pytest.raises(ValueError, match="no species"):
            estimate_mu(st, (), (), o_radius=0.5)

    def test_full_subspace_bound_is_one(self):
        # with H the whole space every unit direction projects to length one
        net, _ = load("reverse_lv")
        st = stoichiometric_subspace(net)
        mu = estimate_mu(st, (2.0, 2.0), (1.0, 3.0), o_radius=0.5)
        assert mu == pytest.approx(1.0, abs=1e-9)

    def test_narrow_band_yields_conservative_infinity(self):
        # the sampled ray grid has measure-zero overlap with the affine
        # slice, so no direction qualifies and the infimum stays infinite
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        mu = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5)
        assert mu == np.inf

    def test_monotone_in_ball_radius(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        lo = estimate_mu(
            st, (2.0, 2.0), (1.0, 1.0), o_radius=0.25, membership_band=0.1
        )
        hi = estimate_mu(
            st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5, membership_band=0.1
        )
        assert lo <= hi
        assert np.isfinite(hi) and hi > 0

    def test_monotone_in_sample_count(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        few = estimate_mu(
            st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5, samples=200,
            membership_band=0.05,
        )
        many = estimate_mu(
            st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5, samples=400,
            membership_band=0.05,
        )
        assert many <= few
        assert many > 0
