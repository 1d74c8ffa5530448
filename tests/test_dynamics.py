"""Mass-action right-hand side, the adaptive embedded 5(4) integrator with
rate-selection policies and event logging, steady-state search, and the
free-energy log along trajectories."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crnkit.dynamics
from crnkit import (
    NoConvergence,
    RatePolicy,
    Tempering,
    Trajectory,
    birch_point,
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

from conftest import NETWORKS, load


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

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 8, 13, 64])
    def test_integer_powers_by_repeated_multiplication(self, e):
        # repeated squaring and multiplication: v * v and v * (v * v) for 2
        # and 3, and within e rounding errors of the exact power
        power = crnkit.dynamics._power
        for v in np.random.default_rng(e).uniform(0.1, 3.0, 50).tolist():
            got = power(v, e)
            assert got == {1: v, 2: v * v, 3: v * (v * v)}.get(e, got)
            exact = Fraction(v) ** e
            assert abs(Fraction(got) - exact) <= e * 2.0 ** -53 * exact

    @pytest.mark.parametrize("k, x", [((2.0,), (1.0, 1.0)), ((1.0,) * 4, (1.0, 1.0)),
                                      ((1.0,) * 3, (2.0,)), ((1.0,) * 3, (1.0,) * 3)],
                             ids=["short-k", "long-k", "short-x", "long-x"])
    def test_wrong_length_rates_or_state_rejected(self, k, x):
        # a single rate or coordinate used to be broadcast; any real rates
        # are still taken, so only the shapes are checked
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="k and x must have 3 and 2 entries"):
            mass_action_rhs(net, k, x)


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
        # the Dormand-Prince step alone, 1/h steps of size h to t = 1
        net, _ = parse_network("species: A B\nA -> B rate [1]\n")
        terms, k = net._mass_action_terms, [1.0]
        errs = []
        for h in (0.2, 0.1, 0.05):
            x = [1.0, 1.0]
            f = crnkit.dynamics._field(terms, k, x)
            for _ in range(round(1 / h)):
                x, K, _ = crnkit.dynamics._dp5(terms, k, x, f, h, 1e-8, 1e-10)
                f = K[6]
            errs.append(abs(x[0] - np.exp(-1.0)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) > 4.0

    @pytest.mark.parametrize("name", ["reverse_lv", "triangle_out", "futile_cycle"])
    def test_simulate_steps_on_mass_action_rhs(self, name, monkeypatch):
        # every field value simulate takes, at a segment start or a stage,
        # is mass_action_rhs at that state and those rates, to the byte
        # (triangle_out has fractional exponents, futile_cycle five species)
        net, temp = load(name)
        field, calls = crnkit.dynamics._field, []

        def recorded(terms, k, x):
            f = field(terms, k, x)
            calls.append((list(k), list(x), f))
            return f

        monkeypatch.setattr(crnkit.dynamics, "_field", recorded)
        traj = simulate(net, temp, RatePolicy("piecewise-constant", seed=3, dt=0.5),
                        np.linspace(0.5, 2.0, net.n_species), 2.0)
        monkeypatch.undo()
        assert len(calls) >= 6 * (len(traj.times) - 1) + len(traj.rate_log)
        for k, x, f in calls:
            assert np.array(f).tobytes() == mass_action_rhs(net, k, x).tobytes()

    def test_species_free_network_reaches_t_end(self, monkeypatch):
        # the RMS error over no components is 0: it was 0/0 = nan, so no
        # step was accepted and the run went on to the step limit at t = 0
        monkeypatch.setattr(crnkit.dynamics, "_MAX_STEPS", 1000)
        net, _ = parse_network("0 -> 0\n")
        traj = simulate(net, None, RatePolicy("constant-mid"), (), 10.0)
        assert traj.events == ()
        assert traj.times[-1] == pytest.approx(10.0, abs=1e-13)
        assert len(traj.times) <= 10
        assert traj.states.shape == (len(traj.times), 0)

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

    @pytest.mark.parametrize("mode", ["constant-mid", "constant-sampled",
                                      "piecewise-constant"])
    def test_rates_only_with_the_fixed_policy(self, mode):
        # rates under another mode used to be ignored without a word
        with pytest.raises(ValueError, match="no other takes them"):
            RatePolicy(mode, rates=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("mode, rates", [("constant-mid", None),
                                             ("constant-sampled", None),
                                             ("piecewise-constant", None),
                                             ("fixed", (1.5, 1.5, 1.5))])
    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_dt_checked_under_every_mode(self, mode, rates, dt):
        # a bad dt under a mode that draws no segments used to pass unseen
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            RatePolicy(mode, dt=dt, rates=rates)

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
        with pytest.raises(ValueError, match="fixed rates must be 3 finite positive values"):
            simulate(net, None, RatePolicy("fixed", rates=rates), (1.0, 1.0), 1.0)

    def test_none_tempering_means_unit_rates(self):
        net, _ = load("reverse_lv")
        traj = simulate(
            net, None, RatePolicy("constant-sampled", seed=9), (1.0, 1.0), 1.0
        )
        assert traj.rate_log == ((0.0, (1.0, 1.0, 1.0)),)

    def test_constant_sampled_is_one_piecewise_segment(self):
        # constant-sampled draws as piecewise-constant with dt = t_end: the
        # same seed sequence and the same single draw, bit for bit
        net, temp = load("reverse_lv")
        sampled, piecewise = (
            simulate(net, temp, RatePolicy(mode, seed=5, dt=dt), (2.0, 0.5), 3.0)
            for mode, dt in (("constant-sampled", 0.1), ("piecewise-constant", 3.0)))
        assert len(sampled.rate_log) == 1
        assert sampled.rate_log == piecewise.rate_log
        assert np.array_equal(sampled.times, piecewise.times)
        assert np.array_equal(sampled.states, piecewise.states)

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
                        (1.0, 1.0), t_end)
        starts = [t0 for t0, _ in traj.rate_log]
        assert starts == list(np.arange(0.0, t_end, dt)[:n])
        assert len(starts) == n
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

    def test_step_limit_event(self, monkeypatch):
        # every step is accepted here, so the limit's 3 steps record 3 states
        monkeypatch.setattr(crnkit.dynamics, "_MAX_STEPS", 3)
        net, _ = parse_network("species: A B\nA -> B rate [1]\n")
        traj = simulate(net, None, RatePolicy("constant-mid"), (1.0, 1.0), 1.0)
        assert traj.events == ({"type": "step-limit", "time": traj.times[-1]},)
        assert len(traj.times) == 4
        assert 0 < traj.times[-1] < 1.0

    def test_segments_beyond_step_limit_rejected(self, monkeypatch):
        # 20 segments need at least 19 steps: a limit of 17 rejects them
        # before any segment is built, one of 18 lets the run start
        net, _ = load("reverse_lv")
        policy = RatePolicy("piecewise-constant", dt=0.05)
        monkeypatch.setattr(crnkit.dynamics, "_MAX_STEPS", 17)
        with pytest.raises(ValueError, match="exceeds the step limit of 17"):
            simulate(net, None, policy, (1.0, 1.0), 1.0)
        monkeypatch.setattr(crnkit.dynamics, "_MAX_STEPS", 18)
        traj = simulate(net, None, policy, (1.0, 1.0), 1.0)
        assert [e["type"] for e in traj.events] == ["step-limit"]
        monkeypatch.undo()
        traj = simulate(net, None, policy, (1.0, 1.0), 1.0)
        assert traj.events == ()
        assert len(traj.rate_log) == 20
        assert traj.times[-1] == pytest.approx(1.0)

    def test_input_validation(self):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError):
            simulate(net, None, RatePolicy("constant-mid"), (0.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            simulate(net, None, RatePolicy("constant-mid"), (1.0, 1.0), -1.0)

    @pytest.mark.parametrize("x0", [(1.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_wrong_length_x0_rejected(self, x0):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match=r"x0 must be 2 finite positive values"):
            simulate(net, None, RatePolicy("constant-mid"), x0, 1.0)


def _pyramid_equilibrium(k):
    # A -> B -> C -> A and 2A <-> 3B: complex balanced, so k1 A = k2 B =
    # k3 C and k4 A^2 = k5 B^3
    a = k[3] * k[1] ** 3 / (k[4] * k[0] ** 3)
    return a, k[0] * a / k[1], k[0] * a / k[2]


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

    def test_start_where_newton_slid_to_the_boundary(self):
        # a Newton iteration that only accepts steps lowering ||F|| slides
        # from this x0 toward the origin, where the field vanishes but the
        # reaction terms do not cancel; the pseudo-transient steps follow
        # the flow to the interior point instead
        net, _ = load("tetrahedron")
        k = (1.59, 1.32, 1.9, 1.72)
        out = find_steady_state(net, k, (0.5, 1.79, 0.55))
        assert self._cancellation(net, k, out.x) <= 1e-3

    # tol bounds ||F|| relative to the gross flux where that is below 1, so
    # the relative error stays small where the equilibrium is: pyramid's
    # reach 0.06 on these starts
    @pytest.mark.parametrize("name, closed_form, rtol", [
        # 0 -> A, A -> 0, B -> 2B, 2B -> B
        ("birth_death", lambda k: (k[0] / k[1], k[2] / k[3]), 1e-9),
        # 2A -> A + B, A + B -> 2A, B -> 0, 0 -> 2B
        ("endo_not_strong", lambda k: (k[1] * 2 * k[3] / (k[2] * k[0]), 2 * k[3] / k[2]),
         1e-9),
        ("pyramid", _pyramid_equilibrium, 1e-9),
    ], ids=["birth_death", "endo_not_strong", "pyramid"])
    def test_closed_form_equilibrium_from_seeded_starts(self, name, closed_form, rtol):
        # rates k1..kn in file order; each network has one stoichiometric
        # class, the whole orthant, and one positive equilibrium.  Among
        # these starts are ones from which a search with an absolute
        # residual test stops next to the boundary, where a coordinate is
        # below 1e-6 and ||f|| under tol without the terms cancelling
        net, _ = load(name)
        rng = np.random.default_rng(2026)
        for _ in range(20):
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            x0 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), net.n_species))
            out = find_steady_state(net, k, x0)
            assert np.allclose(out.x, closed_form(k), rtol=rtol, atol=0)

    @pytest.mark.parametrize("name", ["chain_cycle", "prism", "ab_reversible"])
    def test_flow_ends_at_the_steady_state(self, name):
        # weakly reversible and of deficiency zero, so complex balanced at
        # every k: the trajectory from x0 converges to the one positive
        # equilibrium of its class (the theorem this package gives a
        # numerical account of), which find_steady_state must return
        net, _ = load(name)
        rng = np.random.default_rng(15)
        for _ in range(3):
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            x0 = rng.uniform(0.5, 2.0, net.n_species)
            pinned = Tempering(tuple((Fraction(v), Fraction(v)) for v in k))
            traj = simulate(net, pinned, RatePolicy("fixed", rates=tuple(k)), x0,
                            t_end=100.0, rtol=1e-10, atol=1e-12)
            assert traj.events == ()
            out = find_steady_state(net, k, x0)
            assert np.allclose(traj.states[-1], out.x, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("name", ["chain_cycle", "prism", "ab_reversible"])
    def test_steady_state_is_the_birch_point_of_any_equilibrium(self, name):
        # complex balanced at every k: the positive equilibria are
        # alpha * exp(H^perp) for any one of them (Horn & Jackson 1972), so
        # the equilibrium in x0's class is x0's Birch point at an alpha
        # found from a start in another class
        net, _ = load(name)
        st = stoichiometric_subspace(net)
        rng = np.random.default_rng(16)
        for _ in range(5):
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            x0, start = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (2, net.n_species)))
            alpha = find_steady_state(net, k, start).x
            want = birch_point(st, x0, alpha).point
            assert np.allclose(find_steady_state(net, k, x0).x, want, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_small_equilibrium_is_met_relatively(self, s):
        # A <-> B at unit rates from (s, 3s): the steady state and the Birch
        # point at alpha = 1 are both (2s, 2s), and neither solver may stop
        # where only the absolute residual is below tol
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        for x in (find_steady_state(net, (1.0, 1.0), (s, 3 * s)).x,
                  birch_point(st, (s, 3 * s), (1.0, 1.0)).point):
            assert np.allclose(x, (2 * s, 2 * s), rtol=1e-12, atol=0)

    def test_failure_is_bounded_and_deterministic(self, monkeypatch):
        # triangle_out's flow from (1, 1) runs off to infinity; the search
        # gives up after its step cap, one evaluation of the reaction terms
        # per step
        net, _ = load("triangle_out")
        monomials, counts = crnkit.dynamics._monomials, []

        def counted(*args):
            counts[-1] += 1
            return monomials(*args)

        monkeypatch.setattr(crnkit.dynamics, "_monomials", counted)
        for _ in range(2):
            counts.append(0)
            with pytest.raises(NoConvergence):
                find_steady_state(net, np.ones(3), (1.0, 1.0))
        assert counts[0] == counts[1] <= 2 * crnkit.dynamics._PTC_STEPS

    def test_no_reaction_vectors_with_an_undefined_monomial_raises(self):
        # no stoichiometric subspace: the residual is ||f(x0)||, and an
        # overflowing monomial there used to end in a TypeError
        net, _ = parse_network("species: A\n2A -> 2A\n")
        out = find_steady_state(net, (1.0,), (2.0,))
        assert out.x == (2.0,) and out.residual == 0.0
        with pytest.raises(ValueError, match="monomials undefined"):
            find_steady_state(net, (1.0,), (1e200,))

    def test_failure_carries_the_last_iterate(self):
        net, _ = load("a_to_b")
        with pytest.raises(NoConvergence) as info:
            find_steady_state(net, (1.0,), (1.0, 1.0))
        last, residual = np.asarray(info.value.last), info.value.residual
        assert last.shape == (2,) and np.all(last > 0)
        assert last.sum() == pytest.approx(2.0)  # A + B is conserved
        B = stoichiometric_subspace(net).orthonormal_H()
        assert residual == pytest.approx(
            np.linalg.norm(B.T @ mass_action_rhs(net, (1.0,), last)), rel=1e-12)

    @pytest.mark.parametrize("k", [(1.0, 1.0), (1.0, 0.0, 1.0), (1.0, np.inf, 1.0)])
    def test_rates_must_be_positive_per_reaction(self, k):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="k must be 3 finite positive values"):
            find_steady_state(net, k, (2.0, 2.0))

    @pytest.mark.parametrize("x0", [(3.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_wrong_length_x0_rejected(self, x0):
        # a single x0 entry used to be broadcast: on A <-> B it returned (3, 3)
        net, _ = load("ab_reversible")
        with pytest.raises(ValueError, match="x0 must be 2 finite positive values"):
            find_steady_state(net, (1.0, 1.0), x0)


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
        ((1.0, 1.0), (1.0, 0.0), "alpha must be 2 finite positive values"),
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

    @pytest.mark.parametrize("alpha", [(2.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_wrong_length_alpha_rejected(self, alpha):
        net, _ = load("reverse_lv")
        traj = simulate(net, None, RatePolicy("constant-mid"), (2.0, 0.5), 1.0)
        with pytest.raises(ValueError, match="alpha must be 2 finite positive values"):
            g_along(traj, net, alpha=alpha)

    def test_along_simulated_trajectory(self):
        net, _ = load("reverse_lv")
        traj = simulate(net, None, RatePolicy("constant-mid"), (2.0, 0.5), 10.0)
        out = g_along(traj, net)
        assert out.shape == (len(traj.times), 3)
        assert np.array_equal(out[:, 0], traj.times)


def _per_stage_dp_step(net, k, x, f, h):
    """The numpy Dormand-Prince step that _dp5 replaced: each stage's
    monomials are tested as soon as they are formed, and the step ends at
    the first undefined one."""
    A = crnkit.dynamics._DP_A
    K = np.empty((7, len(x)))
    K[0] = f
    for i in range(1, 7):
        xs = x + h * (A[i, :i] @ K[:i])
        mono = np.prod(np.power(xs[..., None, :], net.source_matrix()), axis=-1)
        if not np.all(np.isfinite(mono)):
            return None
        K[i] = (k * mono) @ net.flux_matrix()
    x_new = x + h * (A[6] @ K)
    return (x_new, K) if np.all((x_new > 0) & (x_new < np.inf)) else None


def _weighted(weights, stages, j):
    """Component j of the stages weighted by weights, summed left to right
    over the nonzero weights."""
    total = 0.0
    for w, stage in zip(weights, stages):
        if w:
            total += w * stage[j]
    return total


def _per_stage_scalar_step(terms, k, x, f, h, rtol, atol):
    """Reference for _dp5, looping over the tableau _DP_A and _DP_E where
    _dp5 writes each weight out: stage i is _field at x + h * (row i of _DP_A
    times the earlier stages), and the step ends at the first stage that is
    undefined or not finite."""
    A, E = crnkit.dynamics._DP_A.tolist(), crnkit.dynamics._DP_E.tolist()
    K = [f]
    for i in range(7):
        if i:
            state = [x[j] + h * _weighted(A[i], K, j) for j in range(len(x))]
            try:
                K.append(crnkit.dynamics._field(terms, k, state))
            except crnkit.dynamics._UNDEFINED:
                return None
        if not all(math.isfinite(v) for v in K[i]):
            return None
    x_new = state  # the last stage is taken at the new point
    if not all(0 < v < math.inf for v in x_new):
        return None
    acc = 0.0
    for j in range(len(x)):
        e = h * _weighted(E, K, j) / (atol + rtol * max(x[j], x_new[j]))
        acc += e * e
    return x_new, K, math.sqrt(acc / len(x)) if x else 0.0


# the fixtures, and a half-order source: a stage that turns a coordinate
# negative makes its monomial undefined (nan), not merely negative
STEP_NETWORKS = [*NETWORKS.values(), "species: A B\n1/2A -> B\nB -> A\n"]
coordinate = st.one_of(
    st.floats(1e-3, 1e3),  # interior
    st.floats(5e-324, 1e-30),  # next to the boundary
    st.floats(1e20, 1e50),  # far out: large stages overflow
    st.floats(1e300, 1e308),  # at the float max: a product alone can overflow
)
step_size = st.one_of(st.floats(1e-6, 1.0), st.floats(1.0, 1e4))


def _assert_same_step(net, k, x, h):
    """Whether the step from x is accepted, after asserting that _dp5 and
    the scalar reference agree to the byte; None where the field at x is
    undefined (simulate stops there before it steps)."""
    terms, k, x = net._mass_action_terms, [float(v) for v in k], [float(v) for v in x]
    try:
        f = crnkit.dynamics._field(terms, k, x)
    except crnkit.dynamics._UNDEFINED:
        return None
    want = _per_stage_scalar_step(terms, k, x, f, h, 1e-8, 1e-10)
    got = crnkit.dynamics._dp5(terms, k, x, f, h, 1e-8, 1e-10)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    return want is not None


# how far the numpy step's new point and stages may lie from _dp5's, relative
# to the vector's largest entry; over the 400 draws below the largest
# distance is 2.3e-14
_NUMPY_RTOL = 1e-12


class TestStepOracle:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(text=st.sampled_from(STEP_NETWORKS), data=st.data())
    def test_step_matches_per_stage_reference(self, text, data):
        net, _ = parse_network(text)
        m, n = net.n_reactions, net.n_species
        _assert_same_step(
            net,
            data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)),
            data.draw(st.lists(coordinate, min_size=n, max_size=n)),
            data.draw(step_size))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(text=st.sampled_from(STEP_NETWORKS), data=st.data())
    def test_step_agrees_with_the_numpy_step(self, text, data):
        # draws from the strategies of the test above, against the numpy
        # step that _dp5 replaced: that one rounds differently (numpy's pow, BLAS sums), but
        # it accepts and rejects the same steps, and each of its stages and
        # its new point lie within _NUMPY_RTOL of _dp5's, relative to their
        # largest entry
        net, _ = parse_network(text)
        m, n = net.n_reactions, net.n_species
        k = data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
        x = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        h = data.draw(step_size)
        terms = net._mass_action_terms
        try:
            f = crnkit.dynamics._field(terms, k, x)
        except crnkit.dynamics._UNDEFINED:
            return
        got = crnkit.dynamics._dp5(terms, k, x, f, h, 1e-8, 1e-10)
        with np.errstate(all="ignore"):
            want = _per_stage_dp_step(net, np.array(k), np.array(x), np.array(f), h)
        assert (got is None) == (want is None)
        if got is not None:
            for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
                assert np.max(np.abs(np.subtract(a, b)), initial=0) <= (
                    _NUMPY_RTOL * np.max(np.abs(b), initial=0))

    @pytest.mark.parametrize("text, x, h, accepted", [
        ("species: A B\nA -> B\n", (1.0, 1.0), 3.0, True),
        # the new point: negative; +inf, every stage finite
        ("species: A B\nA -> B\n", (1.0, 1.0), 6.0, False),
        ("species: A B\nA -> B\n", (1e307, 1.79e308), 0.5, False),
        # a stage: negative under a half-order source (nan); overflowing (inf)
        ("species: A B\n1/2A -> B\nB -> A\n", (1e-3, 1.0), 10.0, False),
        ("species: A B\n2A -> B\nB -> A\n", (1e100, 1.0), 1e-3, False),
    ])
    def test_step_matches_per_stage_reference_at_each_outcome(self, text, x, h, accepted):
        net, _ = parse_network(text)
        assert _assert_same_step(net, np.ones(net.n_reactions), x, h) == accepted


class TestErrorState:
    # tier-1 turns RuntimeWarnings into errors: a call that left numpy's
    # error state changed would hide the warnings of every later test
    @pytest.mark.parametrize("call, raises", [
        (lambda net, temp: simulate(net, temp, RatePolicy("constant-mid"), (1.0, 1.0), 1.0),
         None),
        (lambda net, temp: simulate(net, temp, RatePolicy("piecewise-constant", dt=1e-7),
                                    (1.0, 1.0), 1.0),
         "step limit"),
        (lambda net, temp: simulate(net, temp, RatePolicy("fixed", rates=(9.0, 1.0, 1.0)),
                                    (1.0, 1.0), 1.0),
         "outside the tempering"),
        (lambda net, temp: mass_action_rhs(net, (1.0, 1.0, 1.0), (2.0, 0.5)), None),
        (lambda net, temp: mass_action_rhs(parse_network("species: A\n1/2A -> 0\n")[0],
                                           (1.0,), (-1.0,)),
         "undefined"),
        (lambda net, temp: find_steady_state(net, (1.0, 1.0, 1.0), (2.0, 2.0)), None),
        (lambda net, temp: g_along(simulate(net, temp, RatePolicy("constant-mid"),
                                            (2.0, 0.5), 1.0), net),
         None),
    ], ids=["simulate", "simulate-past-max-steps", "simulate-rates-outside",
            "mass-action-rhs", "mass-action-rhs-undefined", "find-steady-state",
            "g-along"])
    def test_call_restores_the_error_state(self, call, raises):
        net, temp = load("reverse_lv")
        with np.errstate(divide="raise", over="warn", under="warn", invalid="raise"):
            before = np.geterr()
            if raises is None:
                call(net, temp)
            else:
                with pytest.raises(ValueError, match=raises):
                    call(net, temp)
            assert np.geterr() == before
