"""Jet frames and schedules, reaction pulls and levels, the iterated-argmax
stabilization check, the pull-domination monitor, worst-case sum-of-pulls
scans, and unit-jet extraction from direction sequences."""

import math
from fractions import Fraction

import numpy as np
import pytest

from crnkit import (
    Frame,
    JetSchedule,
    cutoff_scan,
    domination_monitor,
    extract_unit_jet,
    jets_fundamental_check,
    level_and_type,
    make_frame,
    parse_network,
    pull,
)
from crnkit.classify import arrangement_normals
from crnkit.geometry import LimitExceeded, enumerate_faces, gram_schmidt, super_chain
from crnkit.jets import _cluster_directions, _worst_case_margin

from conftest import HEXAGON, HEXAGON_Q2_INDEX, NETWORKS, load


S2 = 1.0 / math.sqrt(2.0)


class TestFrame:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Frame(((1.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            Frame(((2.0, 0.0),))

    def test_make_frame_orthonormalizes(self):
        fr = make_frame((0.0, -2.0), (-3.0, -1.0))
        assert fr.vectors == ((0.0, -1.0), (-1.0, 0.0))
        assert np.allclose(fr.w1, (0.0, -1.0))

    def test_make_frame_rejects_dependent_input(self):
        with pytest.raises(ValueError):
            make_frame((1.0, 1.0), (2.0, 2.0))


class TestSchedules:
    def test_power_coefficients(self):
        sch = JetSchedule()
        assert sch.beta(1, 10.0) == 1.0
        assert sch.beta(2, 10.0) == pytest.approx(0.1)
        assert sch.beta(3, 10.0) == pytest.approx(0.01)
        assert sch.log_theta(3.0) == pytest.approx(3.0)

    def test_slow_theta(self):
        sch = JetSchedule(theta_kind="slow")
        assert sch.theta(4.0) == pytest.approx(1.25)

    def test_direction_tends_to_leading_vector(self):
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        sch = JetSchedule()
        d = sch.direction(fr, 1e7)
        assert np.linalg.norm(d - fr.w1) < 1e-6
        assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            JetSchedule(beta_kind="cubic")
        with pytest.raises(ValueError):
            JetSchedule(theta_kind="fast")


class TestPull:
    def test_flux_times_source_height_power(self):
        net, _ = load("reverse_lv")
        w = (0.0, -1.0)
        # 2X -> X is orthogonal to w; 0 -> Y has height zero; 2Y -> X + Y
        # has inner product 1 and height -2
        assert pull(net.reactions[0], w, 10.0) == 0.0
        assert pull(net.reactions[1], w, 10.0) == pytest.approx(-1.0)
        assert pull(net.reactions[2], w, 10.0) == pytest.approx(0.01)

    def test_large_theta_survives_in_log_space(self):
        net, _ = load("reverse_lv")
        v = pull(net.reactions[2], (0.0, -1.0), math.exp(400.0))
        assert v == pytest.approx(math.exp(-800.0))

    def test_rejects_theta_at_most_one(self):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError):
            pull(net.reactions[0], (0.0, -1.0), 1.0)


class TestLevels:
    def test_lotka_volterra_variant_table(self):
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        got = [level_and_type(r, fr) for r in net.reactions]
        assert [(c.kind, c.level) for c in got] == [
            ("draining", 2),
            ("sustaining", 1),
            ("draining", 1),
        ]

    def test_zero_flux_is_inessential(self):
        net, _ = parse_network("species: A B\nA -> A\n")
        fr = make_frame((1.0, 0.0), (0.0, 1.0))
        c = level_and_type(net.reactions[0], fr)
        assert c.kind == "inessential" and c.level is None

    def test_partial_frame_can_miss_flux(self):
        # a single-vector frame orthogonal to the flux sees nothing
        net, _ = load("ab_reversible")
        fr = make_frame((1.0, 1.0))
        assert level_and_type(net.reactions[0], fr).kind == "inessential"


class TestIteratedArgmaxStabilization:
    def test_hexagon_tie_broken_at_second_level(self):
        fr = make_frame((1.0, 0.0), (0.0, 1.0))
        out = jets_fundamental_check(
            HEXAGON, fr, JetSchedule(), i_range=np.geomspace(1, 2000, 40)
        )
        assert out["expected"] == [HEXAGON_Q2_INDEX]
        assert out["stabilized"]
        assert out["argmax_sets"][-1][1] == [HEXAGON_Q2_INDEX]

    def test_small_mixture_matches_iterated_max_large_does_not(self):
        # at mixing weight 0.1 the perturbed direction picks the two-stage
        # argmax vertex; at weight 3 the single-direction argmax differs
        Q = np.array(HEXAGON)
        for eps, expect_match in ((0.1, True), (3.0, False)):
            w = np.array([1.0, 0.0]) + eps * np.array([0.0, 1.0])
            vals = Q @ w
            idx = int(np.argmax(vals))
            assert (idx == HEXAGON_Q2_INDEX) is expect_match

    def test_random_point_sets_agree_with_exact_chain(self, rng):
        for _ in range(25):
            n, m = 2, int(rng.integers(3, 7))
            Q = [
                tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, n))
                for _ in range(m)
            ]
            raw = [
                tuple(Fraction(int(v), 3) for v in rng.integers(-6, 7, n))
                for _ in range(n)
            ]
            basis = gram_schmidt(raw)
            if len(basis) < 2:
                continue
            exact = set(super_chain(Q, basis)[-1])
            exact_idx = sorted(i for i, q in enumerate(Q) if q in exact)
            floats = []
            for v in basis:
                a = np.array([float(x) for x in v])
                floats.append(a / np.linalg.norm(a))
            fr = Frame(tuple(tuple(x) for x in floats))
            Qf = [tuple(float(x) for x in q) for q in Q]
            out = jets_fundamental_check(
                Qf, fr, JetSchedule(), i_range=np.geomspace(1, 5000, 50)
            )
            assert out["stabilized"]
            assert out["expected"] == exact_idx
            assert out["argmax_sets"][-1][1] == exact_idx


class TestDominationMonitor:
    def test_strongly_endotactic_case_dominates(self):
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        out = domination_monitor(net, fr, JetSchedule())
        assert out["warning"] is None
        assert out["all_dominated"]
        assert out["evidence"] == "finite-range"
        for entry in out["entries"]:
            assert entry["increasing_last_decade"]
            assert entry["terminal_ratio_log10"] > 3.0
            assert entry["dominated"]

    def test_level_one_sustaining_partner_chosen(self):
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        out = domination_monitor(net, fr, JetSchedule())
        assert [e["partner"] for e in out["entries"]] == [1, 1]

    def test_conserved_leading_direction_warns_and_stalls(self):
        # for A <-> B with w1 along the conserved sum the pull ratio is the
        # constant theta(i)**(sqrt(2)/i): bounded, so no domination
        net, _ = load("ab_reversible")
        fr = make_frame((S2, S2), (-S2, S2))
        out = domination_monitor(net, fr, JetSchedule())
        assert out["warning"] is not None
        assert not out["all_dominated"]
        entry = out["entries"][0]
        assert entry["terminal_ratio_log10"] == pytest.approx(
            math.log10(math.exp(math.sqrt(2.0))), abs=1e-6
        )
        assert not entry["dominated"]

    def test_decaying_coefficients_underflow_is_indeterminate(self):
        net, _ = load("ab_reversible")
        fr = make_frame((S2, S2), (-S2, S2))
        out = domination_monitor(net, fr, JetSchedule(beta_kind="decaying"))
        assert out["warning"] is not None
        entry = out["entries"][0]
        assert not entry["dominated"]
        assert not entry["increasing_last_decade"]

    def test_adapted_signs_and_level_scaling(self):
        # over the stabilized tail, the sign of <w(i), flux> is constant and
        # |<w(i), flux>| / beta_level(i) stays within fixed bounds
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        sch = JetSchedule()
        i_grid = np.geomspace(100.0, 5000.0, 25)
        for r in net.reactions:
            cls = level_and_type(r, fr)
            if cls.kind == "inessential":
                continue
            flux = np.array([float(v) for v in r.flux])
            vals = [float(sch.direction(fr, i) @ flux) for i in i_grid]
            signs = {math.copysign(1.0, v) for v in vals}
            assert len(signs) == 1
            assert (signs == {-1.0}) == (cls.kind == "sustaining")
            scaled = [
                abs(v) / sch.beta(cls.level, i) for v, i in zip(vals, i_grid)
            ]
            assert max(scaled) / min(scaled) < 3.0


    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_threshold_not_positive_and_finite(self, threshold):
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        with pytest.raises(ValueError, match="threshold"):
            domination_monitor(net, fr, JetSchedule(), threshold=threshold)

    @pytest.mark.parametrize("i_range", [[], [0, 1, 2], [0.5, 2.0], [1.0, np.inf]])
    def test_rejects_indices_below_one(self, i_range):
        net, _ = load("reverse_lv")
        fr = make_frame((0.0, -1.0), (-1.0, 0.0))
        with pytest.raises(ValueError, match="i_range"):
            domination_monitor(net, fr, JetSchedule(), i_range=i_range)


class TestWorstCaseMargin:
    def test_exceptional_directions_have_exact_zero_margin(self):
        net, temp = load("reverse_lv")
        for w in [(-1.0, 0.0), (0.0, -1.0), (S2, S2)]:
            assert _worst_case_margin(net, temp, np.array(w)) == 0.0

    def test_generic_direction_is_strictly_negative(self):
        net, temp = load("reverse_lv")
        assert _worst_case_margin(net, temp, np.array([0.6, -0.8])) < 0.0

    def test_batched_margins_match_exact_restatement(self, rng):
        # over the sources of exactly maximal height along the float direction,
        # the largest k_r <w, flux_r> with k_r the interval end that makes it
        # largest; face representatives (raw and normalized) supply the ties
        ties = 0
        for name in sorted(NETWORKS):
            net, temp = load(name)
            intervals = temp.intervals if temp else [(1, 1)] * net.n_reactions
            try:
                reps = [f.representative for f in enumerate_faces(arrangement_normals(net))]
            except LimitExceeded:
                reps = []
            reps = [np.array([float(c) for c in v]) for v in reps if any(v)]
            W = np.array(reps + [v / np.linalg.norm(v) for v in reps]
                         + list(rng.standard_normal((40, net.n_species))))
            got = _worst_case_margin(net, temp, W)
            assert got.shape == (len(W),)
            for w, margin in zip(W, got):
                we = [Fraction(x) for x in w]
                heights = [sum(a * b for a, b in zip(we, r.source.coeffs))
                           for r in net.reactions]
                tier = [i for i, h in enumerate(heights) if h == max(heights)]
                ties += len({net.reactions[i].source for i in tier}) > 1
                worst = []
                for i in tier:
                    c = sum(a * b for a, b in zip(we, net.reactions[i].flux))
                    lo, hi = intervals[i]
                    worst.append((hi if c > 0 else lo) * c)
                assert margin == pytest.approx(float(max(worst)), rel=1e-12, abs=1e-10), name
        assert ties > 0


class TestCutoffScan:
    def test_finite_threshold_for_inward_network(self):
        net, temp = load("reverse_lv")
        out = cutoff_scan(net, temp, (1.0, 1.0), seed=0)
        assert out["theta_hat"] is not None
        assert 1.5 < out["theta_hat"] < 2.5
        assert out["violating_directions"] == []

    def test_three_near_zero_clusters(self):
        net, temp = load("reverse_lv")
        out = cutoff_scan(net, temp, (1.0, 1.0), seed=0)
        centers = [c["center"] for c in out["near_zero_clusters"]]
        assert len(centers) == 3
        targets = [(-1.0, 0.0), (0.0, -1.0), (S2, S2)]
        for t in targets:
            gaps = [
                math.acos(np.clip(np.dot(c, t), -1.0, 1.0)) for c in centers
            ]
            assert min(gaps) < 0.05

    def test_outward_network_has_no_threshold(self):
        net, temp = parse_network("species: A B\nA -> B rate [1,2]\n")
        out = cutoff_scan(net, temp, (1.0, 1.0), direction_samples=2000, seed=0)
        assert out["theta_hat"] is None
        assert len(out["violating_directions"]) > 0
        for w in out["violating_directions"]:
            assert w[0] < 0 < w[1]

    def test_scan_is_seed_deterministic(self):
        net, temp = load("reverse_lv")
        a = cutoff_scan(net, temp, (1.0, 1.0), seed=4)
        b = cutoff_scan(net, temp, (1.0, 1.0), seed=4)
        assert a == b

    def test_missing_tempering_means_unit_rates(self):
        net, _ = load("reverse_lv")
        out = cutoff_scan(net, None, (1.0, 1.0), seed=0)
        assert out["theta_hat"] is not None

    def test_rejects_negative_direction_samples(self):
        net, temp = load("reverse_lv")
        with pytest.raises(ValueError, match="direction_samples"):
            cutoff_scan(net, temp, (1.0, 1.0), direction_samples=-5)

    def test_clusters_are_the_components_of_the_angle_graph(self, rng):
        # reference: union-find over every pair closer than the gap, each
        # cluster centered at its first member of largest margin
        D = rng.standard_normal((150, 3))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        margins = np.round(rng.uniform(-1, 1, len(D)), 1)
        parent = list(range(len(D)))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i in range(len(D)):
            for j in range(i + 1, len(D)):
                if math.acos(float(np.clip(D[i] @ D[j], -1.0, 1.0))) <= 0.3:
                    parent[find(i)] = find(j)
        groups = {}
        for i in range(len(D)):
            groups.setdefault(find(i), []).append(i)
        want = []
        for members in groups.values():
            center = max(members, key=lambda i: margins[i])
            want.append({"center": list(D[center]), "size": len(members),
                         "max_margin": margins[center]})
        want.sort(key=lambda c: c["center"])
        got = _cluster_directions(D, margins, 0.3)
        assert got == want
        assert any(c["size"] > 1 for c in got) and len(got) > 1

    @pytest.mark.parametrize("grid", [[], [0.5, 2.0], [1.0, 10.0], [2.0, np.nan]])
    def test_rejects_thetas_at_most_one(self, grid):
        net, temp = load("reverse_lv")
        with pytest.raises(ValueError, match="theta_grid"):
            cutoff_scan(net, temp, (1.0, 1.0), theta_grid=grid)

    @pytest.mark.parametrize("x0", [(-1.0, -1.0), (0.0, 0.0), (1.0, 0.0),
                                    (np.nan, 1.0), (np.inf, 1.0)])
    def test_rejects_x0_not_positive_and_finite(self, x0):
        # x0 must lie in the open positive orthant; outside it (-1,-1 and
        # 0,0) no theta**w is eligible and the scan read that as a cutoff
        net, temp = parse_network("species: A B\nA -> B rate [1,2]\n")
        with pytest.raises(ValueError, match="x0"):
            cutoff_scan(net, temp, x0, direction_samples=50)

    def test_no_eligible_point_reports_no_cutoff(self):
        # A + B = 2e-9 is conserved, and every theta**w on the grid (theta >=
        # 1.5, w a unit vector) has a coordinate above 1e-5: no point is
        # eligible, so there is no cutoff to report and nothing violates
        net, temp = parse_network("species: A B\nA -> B rate [1,2]\n")
        out = cutoff_scan(net, temp, (1e-9, 1e-9), direction_samples=50)
        assert out["theta_hat"] is None
        assert out["violating_directions"] == []


class TestUnitJetExtraction:
    def test_constant_sequence_is_level_one(self):
        seq = [(1.0, 0.0)] * 50
        kept, fr = extract_unit_jet(seq)
        assert len(fr) == 1
        assert np.allclose(fr.w1, (1.0, 0.0))
        assert len(kept) == 50

    def test_alternating_signs_keep_one_side(self):
        seq = [((-1.0) ** i, 0.0) for i in range(60)]
        kept, fr = extract_unit_jet(seq)
        assert len(fr) == 1
        for idx in kept:
            assert seq[idx][0] == fr.w1[0]

    def test_slowly_rotating_sequence_recovers_two_levels(self):
        seq = []
        for i in range(1, 401):
            v = np.array([1.0, 1.0 / i])
            seq.append(tuple(v / np.linalg.norm(v)))
        kept, fr = extract_unit_jet(seq)
        assert len(fr) == 2
        assert np.allclose(fr.vectors[0], (1.0, 0.0), atol=5e-3)
        assert np.allclose(fr.vectors[1], (0.0, 1.0), atol=5e-3)
        assert len(kept) >= 5
        assert kept == sorted(kept)

    def test_kept_subsequence_has_growing_coefficient_gaps(self):
        seq = []
        for i in range(1, 401):
            v = np.array([1.0, 1.0 / i])
            seq.append(tuple(v / np.linalg.norm(v)))
        kept, fr = extract_unit_jet(seq)
        V = np.array(fr.vectors)
        ratios = []
        for idx in kept:
            beta = V @ np.array(seq[idx])
            assert beta[0] > 0 and beta[1] > 0
            ratios.append(beta[0] / beta[1])
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            extract_unit_jet([(1.0, 0.0)] * 3)
