"""Free-energy function, Birch-point solver, and the empirical
boundary/projection-bound verifiers."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import crnkit.birch
from crnkit import (
    NoConvergence,
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
# A + B -> B + A has reaction vector 0: H = {0} and H^perp = R^2
ZERO_SUBSPACE = parse_network("species: A B\nA + B -> B + A\n")[0]


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

    @pytest.mark.parametrize("fn", [g_alpha, grad_g_alpha])
    @pytest.mark.parametrize("alpha", [(2.0,), (2.0, 1.0, 1.0)], ids=["short", "long"])
    def test_wrong_length_rejected(self, fn, alpha):
        # a short alpha used to broadcast in grad_g_alpha and raise
        # IndexError in g_alpha
        with pytest.raises(ValueError, match="alpha must be 2 finite positive values"):
            fn((1.0, 2.0), alpha)

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

    @pytest.mark.parametrize("x0, alpha, name", [
        ((1.0, 3.0), (1.0,), "alpha"), ((1.0, 3.0), (1.0, 1.0, 1.0), "alpha"),
        ((2.0,), (1.0, 1.0), "x0"), ((1.0, 1.0, 1.0), (1.0, 1.0), "x0"),
    ], ids=["short-alpha", "long-alpha", "short-x0", "long-x0"])
    def test_wrong_length_inputs_rejected(self, x0, alpha, name):
        # a single alpha entry used to be broadcast: alpha = (1, 1) was solved
        st = stoichiometric_subspace(load("ab_reversible")[0])
        with pytest.raises(ValueError, match=f"{name} must be 2 finite positive values"):
            birch_point(st, x0, alpha)

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
        # the rounding floor; it stops there, not at the cap's 200 solves
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

    @pytest.mark.parametrize("name", ["ab_reversible", "a_to_b", "double_reversible",
                                      "futile_cycle"])
    def test_tiny_entry_of_x0_solves(self, name):
        # the first Newton step is about 1 / min x0 long; backtracking used to
        # stop at a fixed floor on its length and accept nothing from these
        net, _ = load(name)
        st = stoichiometric_subspace(net)
        alpha = np.ones(net.n_species)
        for e in range(-320, -39, 4):
            x0 = np.ones(net.n_species)
            x0[0] = 10.0 ** e
            sol = birch_point(st, x0, alpha)
            assert sol.residual <= 1e-12
            assert sol.iterations <= 12

    def test_non_finite_newton_step_raises(self):
        # a Hessian near 1e-6 against a gradient near 1e308 overflows the first
        # step; halving an infinite step never reaches a vanished one
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        with pytest.raises(NoConvergence, match="the Newton step is not finite at iteration 0"):
            birch_point(st, (1e308, 1e-320), (1.0, 1.0))

    def test_start_outside_the_orthant_is_rejected(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        # B is a unit vector along (1, -1) up to sign, so t = +-3 puts one
        # coordinate of x0 + B t below 0
        for t in (3.0, -3.0):
            with pytest.raises(ValueError, match="starting point"):
                birch_point(st, (1.0, 1.0), (1.0, 1.0), start_t=(t,))

    def test_iteration_cap_raises_with_state(self, monkeypatch):
        monkeypatch.setattr(crnkit.birch, "_MAX_ITER", 3)
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        with pytest.raises(NoConvergence, match="iteration cap was reached at iteration 3") as exc:
            birch_point(st, (2.0, 2.0), (1.0, 3.0), tol=1e-30)
        assert exc.value.last is not None
        assert exc.value.residual is not None


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

    def test_chain_bound_is_the_slice_distance(self):
        # S0 <-> ... <-> S11 has the one law sum(x), so the slice distance is
        # |sum z - sum x0| / sqrt(12); the 2**12 active sets of a projection
        # onto P are not enumerated
        n = 12
        text = f"species: {' '.join(f'S{i}' for i in range(n))}\n" + "".join(
            f"S{i} <-> S{i + 1}\n" for i in range(n - 1))
        st = stoichiometric_subspace(parse_network(text)[0])
        x0 = np.linspace(0.5, 2.0, n)
        alpha = np.linspace(2.0, 0.5, n)
        out = verify_birch_boundary(st, x0, alpha, o_radius=0.5)
        xhat = np.array(out["birch_point"])
        thetas = np.geomspace(1.0, crnkit.birch._THETA_MAX, 40)
        assert len(out["per_direction"]) == 100
        for entry in out["per_direction"]:
            Z = alpha * thetas[:, None] ** np.array(entry["w"])
            Z = Z[np.all(np.isfinite(Z), axis=1)]
            slice_dist = np.abs(Z.sum(axis=1) - x0.sum()) / np.sqrt(n)
            outside_o = np.maximum(0.0, 0.5 - np.linalg.norm(Z - xhat, axis=1))
            expected = np.maximum(slice_dist, outside_o).min()
            assert entry["min_bound"] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("alpha", [(1.0, 3.0), (1.0, 1.0), (0.2, 5.0)])
    def test_bound_stays_below_the_distance_to_the_segment(self, alpha):
        # ab_reversible's P for x0 = (2, 2) is the segment x1 + x2 = 4, x >= 0;
        # its points p(t) = (t, 4 - t) outside O are t in [0, t_hat - r] and
        # [t_hat + r, 4], r = o_radius / sqrt(2)
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        o_radius = 0.5
        out = verify_birch_boundary(st, (2.0, 2.0), alpha, samples=60, o_radius=o_radius)
        t_hat = out["birch_point"][0]
        r = o_radius / np.sqrt(2)
        pieces = [(lo, hi) for lo, hi in [(0.0, t_hat - r), (t_hat + r, 4.0)] if lo <= hi]
        thetas = np.geomspace(1.0, crnkit.birch._THETA_MAX, 40)
        for entry in out["per_direction"]:
            Z = np.array(alpha) * thetas[:, None] ** np.array(entry["w"])
            Z = Z[np.all(np.isfinite(Z), axis=1)]
            t_star = (Z[:, 0] - Z[:, 1] + 4) / 2
            dist = np.full(len(Z), np.inf)
            for lo, hi in pieces:
                t = np.clip(t_star, lo, hi)
                dist = np.minimum(dist, np.hypot(Z[:, 0] - t, Z[:, 1] - (4 - t)))
            assert entry["min_bound"] <= dist.min() * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("verifier", [verify_birch_boundary, estimate_mu])
    @pytest.mark.parametrize("kwargs", [
        {"samples": 0}, {"samples": -3}, {"samples": 10_001},
        {"o_radius": 0.0}, {"o_radius": -1.0}, {"o_radius": np.nan}, {"o_radius": np.inf},
    ], ids=["zero-samples", "negative-samples", "too-many-samples", "zero-radius",
            "negative-radius", "nan-radius", "infinite-radius"])
    def test_rejects_meaningless_sampling(self, verifier, kwargs):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        with pytest.raises(ValueError, match="samples|o_radius"):
            verifier(st, (2.0, 2.0), (1.0, 3.0), **{"o_radius": 0.5, **kwargs})

    @pytest.mark.parametrize("verifier", [verify_birch_boundary, estimate_mu])
    @pytest.mark.parametrize("x0, alpha, name", [
        ((2.0, 2.0), (1.0,), "alpha"), ((2.0,), (1.0, 3.0), "x0"),
    ], ids=["short-alpha", "short-x0"])
    def test_wrong_length_inputs_rejected(self, verifier, x0, alpha, name):
        # estimate_mu used to return inf for a single alpha entry, and the
        # verifiers sized their directions from len(x0)
        st = stoichiometric_subspace(load("ab_reversible")[0])
        with pytest.raises(ValueError, match=f"{name} must be 2 finite positive values"):
            verifier(st, x0, alpha, o_radius=0.5)

    @pytest.mark.parametrize("x0", [(1e3, 3e3), (2e3, 1e3), (1e4, 3e4)])
    def test_both_verifiers_solve_the_same_birch_point(self, x0):
        # estimate_mu solved its Birch point to 1e-12 and stalled (exit 3)
        # from these starts, where verify_birch_boundary's 1e-10 converges
        st = stoichiometric_subspace(parse_network("species: A B\nA <-> B rate [1] [2]\n")[0])
        xhat = verify_birch_boundary(st, x0, (1.0, 1.0), samples=20)["birch_point"]
        assert np.allclose(xhat, [sum(x0) / 2] * 2)
        assert estimate_mu(st, x0, (1.0, 1.0), o_radius=0.5, samples=20) >= 0

    def test_rejects_a_network_with_no_species(self):
        # no unit direction exists, so the sampler would draw forever
        st = stoichiometric_subspace(parse_network("0 -> 0")[0])
        with pytest.raises(ValueError, match="no species"):
            verify_birch_boundary(st, (), ())

    def test_zero_subspace_directions_are_draws_of_h_perp(self):
        # with H = {0} the Birch point is x0, and each direction is one unit
        # draw of H^perp = R^2: the draw along H has length 0 and takes
        # nothing from the generator
        st = stoichiometric_subspace(ZERO_SUBSPACE)
        out = verify_birch_boundary(st, (2.0, 1.0), (1.0, 3.0), samples=12, seed=5)
        assert out["birch_point"] == [2.0, 1.0]
        assert out["violations"] == []
        assert out["min_distance"] > 0
        rng = np.random.default_rng(5)
        Q = st.orthonormal_Hperp()
        for entry in out["per_direction"]:
            u = Q @ rng.standard_normal(2)
            assert np.allclose(entry["w"], u / np.linalg.norm(u), rtol=0, atol=1e-15)


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

    def test_zero_subspace_bound_is_zero(self):
        # with H = {0} every direction projects to length 0 on H; from
        # x0 = alpha = 1e-3 the ray's first grid steps lie in the band and
        # outside a ball of radius 1e-5
        st = stoichiometric_subspace(ZERO_SUBSPACE)
        x0 = (1e-3, 1e-3)
        assert estimate_mu(st, x0, x0, o_radius=1e-5, samples=20) == 0.0
        assert estimate_mu(st, (2.0, 1.0), (1.0, 3.0), o_radius=0.5, samples=20) == np.inf

    def test_narrow_band_yields_conservative_infinity(self):
        # the sampled ray grid has measure-zero overlap with the affine
        # slice, so no direction qualifies and the infimum stays infinite
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        mu = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5)
        assert mu == np.inf

    def test_monotone_in_ball_radius(self, monkeypatch):
        monkeypatch.setattr(crnkit.birch, "_MEMBERSHIP_BAND", 0.1)
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        lo = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.25)
        hi = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5)
        assert lo <= hi
        assert np.isfinite(hi) and hi > 0

    def test_monotone_in_sample_count(self, monkeypatch):
        monkeypatch.setattr(crnkit.birch, "_MEMBERSHIP_BAND", 0.05)
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        few = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5, samples=200)
        many = estimate_mu(st, (2.0, 2.0), (1.0, 1.0), o_radius=0.5, samples=400)
        assert many <= few
        assert many > 0
