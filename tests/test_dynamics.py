"""Mass-action right-hand side, the adaptive embedded 5(4) integrator with
rate-selection policies and event logging, steady-state search, and the
free-energy log along trajectories."""

from fractions import Fraction

import numpy as np
import pytest

import crnkit.dynamics
from crnkit import (
    NoConvergence,
    RatePolicy,
    Trajectory,
    conservation_residual,
    find_steady_state,
    g_along,
    g_alpha,
    grad_g_alpha,
    mass_action_rhs,
    parse_network,
    simulate,
    stoichiometric_subspace,
)

from conftest import load


class TestRightHandSide:
    def test_equilibrium_of_lotka_volterra_variant(self):
        net, _ = load("reverse_lv")
        assert np.allclose(mass_action_rhs(net, (1.0, 1.0, 1.0), (1.0, 1.0)), 0.0)

    def test_three_reaction_balance(self):
        net, _ = load("strong_not_wr")
        f = mass_action_rhs(net, (1.0, 3.0, 4.0), (1.0, 1.0))
        assert np.allclose(f, (1.0, 0.0))

    def test_monomial_scaling(self):
        # the 2Y -> X + Y term contributes k * y^2 * (1, -1)
        net, _ = load("reverse_lv")
        f = mass_action_rhs(net, (0.0, 0.0, 2.0), (5.0, 3.0))
        assert np.allclose(f, (18.0, -18.0))

    def test_fractional_exponents_undefined_below_zero(self):
        net, _ = load("triangle_out")
        with pytest.raises(ValueError):
            mass_action_rhs(net, (1.0, 1.0, 1.0), (-1.0, 1.0))


class TestIntegratorAccuracy:
    def test_linear_decay_closed_form(self):
        net, _ = parse_network("species: A B\nA -> B rate [1]\n")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (1.0, 1.0), 1.0,
            rtol=1e-10, atol=1e-12,
        )
        assert abs(traj.states[-1][0] - np.exp(-1.0)) < 1e-8
        assert abs(traj.states[-1].sum() - 2.0) < 1e-8

    def test_quadratic_decay_closed_form(self):
        # 2A -> A integrates to x0 / (1 + k x0 t)
        net, _ = parse_network("species: A\n2A -> A rate [1]\n")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (2.0,), 3.0,
            rtol=1e-10, atol=1e-12,
        )
        assert abs(traj.states[-1][0] - 2.0 / 7.0) < 1e-8

    def test_fixed_step_order_at_least_four(self):
        net, _ = parse_network("species: A B\nA -> B rate [1]\n")
        errs = []
        for h in (0.2, 0.1, 0.05):
            traj = simulate(
                net, None, RatePolicy("constant-mid"), (1.0, 1.0), 1.0, fixed_h=h
            )
            errs.append(abs(traj.states[-1][0] - np.exp(-1.0)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) > 4.0

    def test_conservation_along_trajectory(self):
        net, temp = load("futile_cycle")
        st = stoichiometric_subspace(net)
        traj = simulate(
            net, temp, RatePolicy("constant-mid"), (1.0, 0.5, 0.5, 1.0, 0.5), 20.0
        )
        assert conservation_residual(traj, st) < 1e-8

    def test_states_stay_positive(self):
        net, _ = load("reverse_lv")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (1e-2, 1e2), 50.0
        )
        assert np.all(traj.states > 0)


class TestRatePolicies:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RatePolicy("bogus")
        with pytest.raises(ValueError):
            RatePolicy("fixed")

    def test_fixed_rates_must_lie_in_tempering(self):
        net, temp = load("reverse_lv")
        with pytest.raises(ValueError):
            simulate(
                net, temp, RatePolicy("fixed", rates=(5.0, 1.5, 1.5)),
                (1.0, 1.0), 0.5,
            )

    @pytest.mark.parametrize("rates", [(1.0,), (np.inf, 1.0, 1.0), (np.nan, 1.0, 1.0),
                                       (0.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
    def test_fixed_rates_are_one_finite_positive_rate_per_reaction(self, rates):
        # the rule and wording of find_steady_state's k check: a single rate is
        # not broadcast, and an infinite one is rejected before the exact
        # containment test
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="fixed rates must be 3 finite positive rates"):
            simulate(net, None, RatePolicy("fixed", rates=rates), (1.0, 1.0), 1.0)

    def test_none_tempering_means_unit_rates(self):
        net, _ = load("reverse_lv")
        traj = simulate(
            net, None, RatePolicy("constant-sampled", seed=9), (1.0, 1.0), 1.0
        )
        assert traj.rate_log == ((0.0, (1.0, 1.0, 1.0)),)

    def test_sampled_rates_pass_exact_containment(self):
        net, temp = load("reverse_lv")
        traj = simulate(
            net, temp, RatePolicy("piecewise-constant", seed=7, dt=0.5),
            (1.0, 1.0), 2.0,
        )
        assert len(traj.rate_log) == 4
        assert [t for t, _ in traj.rate_log] == [0.0, 0.5, 1.0, 1.5]
        for _, rates in traj.rate_log:
            assert temp.contains([Fraction(v) for v in rates])

    def test_segment_sampling_is_seed_deterministic(self):
        net, temp = load("reverse_lv")
        runs = [
            simulate(
                net, temp, RatePolicy("piecewise-constant", seed=7, dt=0.5),
                (1.0, 1.0), 2.0,
            )
            for _ in range(2)
        ]
        assert runs[0].rate_log == runs[1].rate_log
        assert np.array_equal(runs[0].states, runs[1].states)
        other = simulate(
            net, temp, RatePolicy("piecewise-constant", seed=8, dt=0.5),
            (1.0, 1.0), 2.0,
        )
        assert runs[0].rate_log != other.rate_log

    @pytest.mark.parametrize("t_end, dt, n", [(0.1 + 0.2, 0.1, 3), (0.7, 0.1, 7),
                                              (0.05, 0.1, 1), (2.0, 1 / 3, 6)])
    def test_segment_starts_follow_arange(self, t_end, dt, n):
        # segment i starts at np.arange(0, t_end, dt)[i]; a last start that
        # rounds onto t_end is dropped (3 * 0.1 == 0.1 + 0.2, so arange's
        # fourth start there begins no segment)
        net, temp = load("reverse_lv")
        traj = simulate(net, temp, RatePolicy("piecewise-constant", seed=2, dt=dt),
                        (1.0, 1.0), t_end, fixed_h=dt)
        starts = [t0 for t0, _ in traj.rate_log]
        assert starts == list(np.arange(0.0, t_end, dt)[:n])
        assert len(starts) == n
        assert len(traj.times) == n + 1  # one fixed step per segment
        assert traj.times[-1] == pytest.approx(t_end, abs=1e-15)
        assert traj.events == ()

    def test_rates_at_lookup(self):
        net, temp = load("reverse_lv")
        traj = simulate(
            net, temp, RatePolicy("piecewise-constant", seed=7, dt=0.5),
            (1.0, 1.0), 2.0,
        )
        assert tuple(traj.rates_at(0.75)) == traj.rate_log[1][1]
        assert tuple(traj.rates_at(1.9)) == traj.rate_log[3][1]

    def test_rates_at_matches_linear_scan(self):
        # reference: the last logged segment starting at or before t, or the
        # first segment for t before every start
        def scan(rate_log, t):
            k = rate_log[0][1]
            for t0, kk in rate_log:
                if t0 > t:
                    break
                k = kk
            return k

        net, temp = load("reverse_lv")
        traj = simulate(
            net, temp, RatePolicy("piecewise-constant", seed=7, dt=0.5),
            (1.0, 1.0), 2.0,
        )
        starts = [t0 for t0, _ in traj.rate_log]
        probes = [-1.0, *starts, *np.nextafter(starts, -np.inf), 1.25, 2.0, 9.0]
        for t in probes:
            assert tuple(traj.rates_at(t)) == scan(traj.rate_log, t)


class TestEvents:
    def test_finite_time_extinction_emits_boundary_event(self):
        # d/dt x = -sqrt(x) reaches zero at t = 2 sqrt(x0); the integrator
        # must stop near that time without ever clamping the state
        net, _ = parse_network("species: A\n1/2A -> 0 rate [1]\n")
        traj = simulate(net, None, RatePolicy("constant-mid"), (1.0,), 10.0)
        kinds = [e["type"] for e in traj.events]
        assert kinds == ["boundary-approach"]
        assert traj.times[-1] == pytest.approx(4.0, abs=1e-3)
        assert traj.states[-1][0] > 0

    def test_watch_box_records_entry(self):
        net, _ = load("reverse_lv")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (3.0, 3.0), 50.0,
            watch_box=((0.5, 0.5), (1.5, 1.5)),
        )
        entered = [e for e in traj.events if e["type"] == "entered-set"]
        assert len(entered) == 1
        assert 0 < entered[0]["time"] < 50.0

    def test_watch_box_start_inside(self):
        net, _ = load("reverse_lv")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (1.0, 1.0), 1.0,
            watch_box=((0.5, 0.5), (1.5, 1.5)),
        )
        assert traj.events[0] == {"type": "entered-set", "time": 0.0}

    def test_step_limit_event(self):
        net, _ = parse_network("species: A B\nA -> B rate [1]\n")
        traj = simulate(
            net, None, RatePolicy("constant-mid"), (1.0, 1.0), 1.0,
            fixed_h=1e-3, max_steps=10,
        )
        kinds = [e["type"] for e in traj.events]
        assert kinds == ["step-limit"]
        assert traj.times[-1] == pytest.approx(0.01)

    def test_segments_beyond_step_limit_rejected(self):
        # 20 segments need at least 19 steps: rejected before any segment is
        # built; 10 segments of one step each still finish
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="max_steps"):
            simulate(net, None, RatePolicy("piecewise-constant", dt=0.05), (1.0, 1.0),
                     1.0, fixed_h=0.05, max_steps=10)
        traj = simulate(net, None, RatePolicy("piecewise-constant", dt=0.1), (1.0, 1.0),
                        1.0, fixed_h=0.1, max_steps=10)
        assert traj.events == ()
        assert len(traj.rate_log) == 10
        assert traj.times[-1] == pytest.approx(1.0)

    def test_input_validation(self):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError):
            simulate(net, None, RatePolicy("constant-mid"), (0.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            simulate(net, None, RatePolicy("constant-mid"), (1.0, 1.0), -1.0)


class TestSteadyState:
    def test_lotka_volterra_variant_interior_point(self):
        net, _ = load("reverse_lv")
        out = find_steady_state(net, (1.0, 1.0, 1.0), (2.0, 2.0))
        assert np.allclose(out.x, (1.0, 1.0), atol=1e-10)
        assert out.residual < 1e-10

    def test_reversible_pair_respects_conservation(self):
        net, _ = parse_network("species: A B\nA <-> B rate [1] [2]\n")
        out = find_steady_state(net, (1.0, 2.0), (1.0, 2.0))
        assert np.allclose(out.x, (2.0, 1.0), atol=1e-10)

    def test_reported_residual_matches_rhs(self):
        net, _ = load("prism")
        out = find_steady_state(net, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 0.8, 1.2))
        f = mass_action_rhs(net, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), out.x)
        assert np.linalg.norm(f, np.inf) <= max(out.residual, 1e-10) * 1.001


    @staticmethod
    def _cancellation(net, k, x):
        # ||f|| as a share of the gross flux sum_r k_r x^y_r ||y'_r - y_r||
        x = np.asarray(x)
        terms = np.asarray(k) * np.prod(x ** net.source_matrix(), axis=1)
        gross = terms @ np.linalg.norm(net.flux_matrix(), axis=1)
        return np.linalg.norm(mass_action_rhs(net, k, x)) / gross

    def test_boundary_point_is_not_a_steady_state(self):
        # A -> B has no positive steady state; next to the boundary ||f|| is
        # tiny, but it equals the gross flux there
        net, _ = load("a_to_b")
        with pytest.raises(NoConvergence):
            find_steady_state(net, (1.0,), (1.0, 1.0))

    def test_tetrahedron_reaction_terms_cancel(self):
        net, _ = load("tetrahedron")
        rng = np.random.default_rng(99)
        for _ in range(5):
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            x0 = rng.uniform(0.5, 2.0, net.n_species)
            out = find_steady_state(net, k, x0)
            assert self._cancellation(net, k, out.x) <= 1e-3
            assert min(out.x) > 0.1

    def test_last_resort_runs_at_the_given_rates(self, monkeypatch):
        # every Newton start from this x0 ends next to the boundary, so the
        # flow is integrated, with the rates pinned at k
        net, _ = load("tetrahedron")
        k = (1.59, 1.32, 1.9, 1.72)
        tempers = []

        def recorded(net, tempering, *args, **kwargs):
            tempers.append(tempering)
            return simulate(net, tempering, *args, **kwargs)

        monkeypatch.setattr(crnkit.dynamics, "simulate", recorded)
        out = find_steady_state(net, k, (0.5, 1.79, 0.55))
        assert [t.intervals for t in tempers] == [
            tuple((Fraction(v), Fraction(v)) for v in k)
        ]
        assert self._cancellation(net, k, out.x) <= 1e-3

    @pytest.mark.parametrize("k", [(1.0, 1.0), (1.0, 0.0, 1.0), (1.0, np.inf, 1.0)])
    def test_rates_must_be_positive_per_reaction(self, k):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="positive rates"):
            find_steady_state(net, k, (2.0, 2.0))


class TestFreeEnergyAlong:
    def test_pointwise_identity(self):
        # at x = (e, 1) with unit alpha and unit rates the free energy is
        # e - e + (0 - 1) = -1 and its derivative <log x, f> is 1 - e^2
        net, _ = load("reverse_lv")
        e = float(np.e)
        traj = Trajectory(
            times=np.array([0.0]),
            states=np.array([[e, 1.0]]),
            rate_log=((0.0, (1.0, 1.0, 1.0)),),
            events=(),
        )
        out = g_along(traj, net, alpha=(1.0, 1.0))
        assert out.shape == (1, 3)
        assert out[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert out[0, 2] == pytest.approx(1.0 - e * e, abs=1e-12)

    def test_one_pass_matches_per_sample_formula(self):
        net, temp = load("reverse_lv")
        traj = simulate(
            net, temp, RatePolicy("piecewise-constant", seed=3, dt=0.25), (2.0, 0.5), 6.0,
        )
        assert len(traj.rate_log) > 20
        alpha = np.array([1.5, 0.75])
        want = np.array([
            (t, g_alpha(x, alpha),
             grad_g_alpha(x, alpha) @ mass_action_rhs(net, traj.rates_at(t), x))
            for t, x in zip(traj.times, traj.states)
        ])
        assert np.array_equal(g_along(traj, net, alpha=alpha), want)

    @pytest.mark.parametrize("x, alpha, match", [
        ((1.0, 0.0), (1.0, 1.0), "gradient needs x > 0"),
        ((1.0, -1.0), (1.0, 1.0), "x must be nonnegative"),
        ((1.0, 1.0), (1.0, 0.0), "alpha must be positive"),
    ])
    def test_first_bad_sample_raises_the_per_sample_error(self, x, alpha, match):
        net, _ = load("reverse_lv")
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[1.0, 1.0], x, [1.0, -2.0]]),
            rate_log=((0.0, (1.0, 1.0, 1.0)),),
            events=(),
        )
        with pytest.raises(ValueError, match=match):
            g_along(traj, net, alpha=alpha)

    def test_along_simulated_trajectory(self):
        net, _ = load("reverse_lv")
        traj = simulate(net, None, RatePolicy("constant-mid"), (2.0, 0.5), 10.0)
        out = g_along(traj, net)
        assert out.shape == (len(traj.times), 3)
        assert np.array_equal(out[:, 0], traj.times)
