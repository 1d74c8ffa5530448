"""Jet frames and schedules, reaction pulls and levels, the iterated-argmax
stabilization check, the pull-domination monitor, worst-case sum-of-pulls
scans, and unit-jet extraction from direction sequences."""

import importlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from crnkit import (
    Frame,
    JetSchedule,
    Tempering,
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
from crnkit.geometry import LimitExceeded, _components, enumerate_faces, gram_schmidt, super_chain
from crnkit.jets import _worst_case_margin

from conftest import HEXAGON, HEXAGON_Q2_INDEX, NETWORKS, load

jets_module = importlib.import_module("crnkit.jets")
geometry_module = importlib.import_module("crnkit.geometry")


S2 = 1.0 / math.sqrt(2.0)


def _random_network_text(rng):
    """2-4 species and 1-5 reactions with coefficients 0-3, as criterion 2
    draws them (up to 4 species)."""
    n = int(rng.integers(2, 5))

    def complex_():
        terms = [f"{c}S{i}" for i, c in enumerate(rng.integers(0, 4, n)) if c]
        return " + ".join(terms) or "0"

    lines = [f"{complex_()} -> {complex_()}" for _ in range(int(rng.integers(1, 6)))]
    return "\n".join(["species: " + " ".join(f"S{i}" for i in range(n)), *lines]) + "\n"


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
        assert math.exp(sch.log_theta(4.0)) == pytest.approx(1.25)

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

    def test_duplicated_point_keeps_both_indices(self):
        pts = [HEXAGON[0], HEXAGON[HEXAGON_Q2_INDEX], HEXAGON[HEXAGON_Q2_INDEX]]
        fr = make_frame((1.0, 0.0), (0.0, 1.0))
        out = jets_fundamental_check(pts, fr, JetSchedule(), i_range=np.geomspace(1, 2000, 40))
        assert out["expected"] == [1, 2]
        assert out["stabilized"]
        assert out["argmax_sets"][-1][1] == [1, 2]

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


    # <w(i), q> along e1 + e2 / i: q0 = (2, 0) wins for i > 2, q1 = (1, 2)
    # below, and they tie at i = 2; the frame's expectation is {0}
    @pytest.mark.parametrize("i_range, stabilized_at", [
        ([], None), ([1, 1.5], None), ([3, 4, 10], 3), ([1, 2, 3, 10], 3),
        ([3, 1, 5, 10], 5), ([3, 10, 1], None),
    ], ids=["empty", "never", "from-the-first", "after-a-tie", "after-a-relapse",
            "relapse-at-the-end"])
    def test_stabilized_at_starts_the_last_run_of_expected_sets(self, i_range, stabilized_at):
        fr = make_frame((1.0, 0.0), (0.0, 1.0))
        out = jets_fundamental_check([(2.0, 0.0), (1.0, 2.0)], fr, JetSchedule(), i_range)
        assert out["expected"] == [0]
        assert [i for i, _ in out["argmax_sets"]] == list(i_range)
        assert out["stabilized_at"] == stabilized_at
        assert out["stabilized"] is (stabilized_at is not None)


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


    def test_zero_subspace_warns_with_no_entries(self):
        # A + B -> B + A has reaction vector 0, so H = {0}: w1 projects to
        # length 0 and the one reaction is inessential
        net, _ = parse_network("species: A B\nA + B -> B + A\n")
        out = domination_monitor(net, make_frame((1.0, 0.0), (0.0, 1.0)), JetSchedule())
        assert out["warning"] is not None
        assert out["classes"] == [("inessential", None)]
        assert out["entries"] == []
        assert out["all_dominated"]

    def test_draining_without_sustaining_has_no_partner(self):
        net, _ = parse_network("species: A B\nA -> 2A\nB -> 2B\n")
        out = domination_monitor(net, make_frame((1.0, 0.0), (0.0, 1.0)), JetSchedule(),
                                 i_range=[1, 10, 100])
        assert out["warning"] is None
        assert out["classes"] == [("draining", 1), ("draining", 2)]
        assert out["entries"] == [
            {"draining": d, "partner": None, "series": [], "increasing_last_decade": False,
             "terminal_ratio_log10": -np.inf, "dominated": False} for d in (0, 1)]
        assert [list(e) for e in out["entries"]] == [list(out["entries"][0])] * 2
        assert list(out["entries"][0]) == ["draining", "partner", "series",
                                           "increasing_last_decade", "terminal_ratio_log10",
                                           "dominated"]
        assert not out["all_dominated"]

    def test_entry_keys_keep_their_order_with_a_partner(self):
        net, _ = load("reverse_lv")
        out = domination_monitor(net, make_frame((0.0, -1.0), (-1.0, 0.0)), JetSchedule())
        for entry in out["entries"]:
            assert list(entry) == ["draining", "partner", "series", "increasing_last_decade",
                                   "terminal_ratio_log10", "dominated"]

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
            assert _worst_case_margin(net, temp, np.array([w])).tolist() == [0.0]

    def test_generic_direction_is_strictly_negative(self):
        net, temp = load("reverse_lv")
        assert _worst_case_margin(net, temp, np.array([[0.6, -0.8]]))[0] < 0.0

    def test_batched_margins_match_exact_restatement(self, rng):
        # over the sources of exactly maximal height along the float direction,
        # the largest k_r <w, flux_r> with k_r the interval end that makes it
        # largest; face representatives (raw and normalized) supply the ties
        ties = 0
        for name in sorted(NETWORKS):
            net, temp = load(name)
            intervals = temp.intervals if temp else [(1, 1)] * net.n_reactions
            try:
                reps = enumerate_faces(arrangement_normals(net)).representatives.tolist()
            except LimitExceeded:
                reps = []
            reps = [np.array([float(c) for c in v]) for v in reps if any(v)]
            # the direction circle of the scan SVG, on the 2-species networks
            angles = np.linspace(0, 2 * np.pi, 361 if net.n_species == 2 else 0)
            W = np.array(reps + [v / np.linalg.norm(v) for v in reps]
                         + list(rng.standard_normal((40, net.n_species)))
                         + list(np.column_stack([np.cos(angles), np.sin(angles)])))
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

    def test_rejects_direction_samples_above_cap_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("directions drawn")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        net, temp = load("reverse_lv")
        for count in (10_001, 100_000_000_000):
            with pytest.raises(ValueError, match="at most 10000"):
                cutoff_scan(net, temp, (1.0, 1.0), direction_samples=count)

    def test_rejects_a_network_with_no_species_before_drawing(self, monkeypatch):
        # no unit direction exists, so the draw would drop every row forever
        def no_draws(*args):
            raise AssertionError("directions drawn")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        net, _ = parse_network("0 -> 0")
        for count in (400, 0):
            with pytest.raises(ValueError, match="no species"):
                cutoff_scan(net, None, (), direction_samples=count)

    def test_directions_are_the_per_sample_draws_after_a_zero_row(self, monkeypatch):
        # the directions of one standard_normal(n) call per sample, each
        # redrawn while its norm is at most 1e-12
        def loop_directions(rng, count, n):
            dirs = []
            while len(dirs) < count:
                v = rng.standard_normal(n)
                nrm = np.linalg.norm(v)
                if nrm > 1e-12:
                    dirs.append(v / nrm)
            return np.array(dirs)

        default_rng = np.random.default_rng

        class ZeroFirstRow:
            """seed's stream with its first row of n numbers zeroed"""
            def __init__(self, seed, n=3):
                self._rng, self._n, self._fresh = default_rng(seed), n, True

            def standard_normal(self, size):
                out = self._rng.standard_normal(size)
                if self._fresh:
                    out.reshape(-1, self._n)[0] = 0.0
                    self._fresh = False
                return out

        scanned = []
        pull_terms = jets_module._pull_terms

        def spy(net, tempering, W):
            scanned.append(W.copy())
            return pull_terms(net, tempering, W)

        monkeypatch.setattr(jets_module, "_pull_terms", spy)
        monkeypatch.setattr(np.random, "default_rng", ZeroFirstRow)
        net, temp = parse_network("species: A B C\nA -> B rate [1,2]\nB + C -> A\n")
        out = cutoff_scan(net, temp, (1.0, 1.0, 1.0), direction_samples=50, seed=3)
        want = loop_directions(ZeroFirstRow(3), 50, 3)
        assert out["n_directions"] == len(scanned[0])
        assert np.array_equal(scanned[0][-50:], want)
        second = default_rng(3).standard_normal((2, 3))[1]
        assert np.array_equal(want[0], second / np.linalg.norm(second))

    def test_clusters_do_not_depend_on_the_samples(self):
        # one cluster per connected set of zero-margin faces, of these sizes
        # (two single faces where not listed)
        sizes = {"reverse_lv": [1, 1, 1], "prism": [1, 1, 1], "strong_not_wr": [1],
                 "futile_cycle": [78], "chain_cycle": [16], "tetrahedron": [16],
                 "pyramid": [23]}
        for name in sorted(NETWORKS):
            net, temp = load(name)
            x0 = [1.0] * net.n_species
            first, *rest = [cutoff_scan(net, temp, x0, direction_samples=count, seed=seed)
                            for count, seed in ((400, 0), (100, 3), (0, 0))]
            clusters = first["near_zero_clusters"]
            assert all(out["near_zero_clusters"] == clusters for out in rest), name
            assert [c["size"] for c in clusters] == sizes.get(name, [1, 1]), name
            assert all(c["max_margin"] == 0.0 for c in clusters)
            assert first["margin_delta"] == 0.0

    def test_centers_have_exact_zero_margin(self, rng):
        # the margin's sign is the sign of the largest <w, flux_r> over the
        # reactions of maximal <w, y_r>, w read as exact binary fractions
        def top_flux(net, w):
            wf = [Fraction(float(x)) for x in w]
            heights = [sum(a * b for a, b in zip(wf, r.source.coeffs)) for r in net.reactions]
            return max(sum(a * b for a, b in zip(wf, r.flux))
                       for r, h in zip(net.reactions, heights) if h == max(heights))

        nets = [load(name) for name in sorted(NETWORKS)]
        nets += [parse_network(_random_network_text(rng)) for _ in range(300)]
        centers = 0
        for net, temp in nets:
            out = cutoff_scan(net, temp, [1.0] * net.n_species, theta_grid=[2.0],
                              direction_samples=0)
            for c in out["near_zero_clusters"]:
                assert math.isclose(np.linalg.norm(c["center"]), 1.0, rel_tol=1e-12)
                assert top_flux(net, c["center"]) == 0
                centers += 1
        assert centers > 500

    def test_clusters_match_union_find_over_enumerated_faces(self, rng, monkeypatch):
        # reference: each face's margin sign taken exactly from its integer
        # representative (on the network's integer-scaled sources and fluxes),
        # then union-find over every incident pair of zero faces; checked
        # again with one row per block of every face pass
        def reference(net):
            _, sources, fluxes, _ = net._exact
            zero = []
            faces = enumerate_faces(arrangement_normals(net))
            for signs, w in zip(faces.signs.tolist(), faces.representatives.tolist()):
                heights = [sum(a * b for a, b in zip(w, y)) for y in sources]
                top = max(sum(a * b for a, b in zip(w, f))
                          for f, h in zip(fluxes, heights) if h == max(heights))
                if top == 0:  # F <= G when F's (column, sign) pairs are G's
                    zero.append({(k, x) for k, x in enumerate(signs) if x})
            parent = list(range(len(zero)))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for i, f in enumerate(zero):
                for j, g in enumerate(zero):
                    if i != j and (f or g) and f <= g:
                        parent[find(i)] = find(j)
            return sorted(Counter(find(i) for i in range(len(zero))).values())

        nets = [load(name)[0] for name in sorted(NETWORKS)]
        nets += [parse_network(_random_network_text(rng))[0] for _ in range(60)]
        want = [reference(net) for net in nets]
        for block in (geometry_module._BLOCK, 1):
            monkeypatch.setattr(geometry_module, "_BLOCK", block)
            for net, sizes in zip(nets, want):
                out = cutoff_scan(net, None, [1.0] * net.n_species, theta_grid=[2.0],
                                  direction_samples=0)
                assert sorted(c["size"] for c in out["near_zero_clusters"]) == sizes

    def test_lineality_rays_are_not_incident_to_each_other(self):
        # two all-zero rows (a line of lineality) and one face holding both
        S = np.array([[0, 0], [0, 0]], dtype=np.int8)
        assert _components(S).tolist() == [0, 1]
        assert _components(np.vstack([S, [[1, 0]]])).tolist() == [0, 0, 0]

    def test_past_the_hyperplane_limit_there_are_no_clusters(self, monkeypatch):
        # theta_hat comes from the samples alone, as before faces were read
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "1")
        net, temp = load("reverse_lv")
        out = cutoff_scan(net, temp, (1.0, 1.0), seed=0)
        assert out["near_zero_clusters"] == []
        assert out["n_directions"] == 400
        assert out["theta_hat"] == 1.9721799509689757

    def test_component_memory_grows_with_the_block_not_the_square(self):
        # all 1,876 faces of an essential 4-D arrangement form one component;
        # a dense incidence test of their bit words takes 56 MB per temporary
        normals = np.random.default_rng(5).integers(-3, 4, (10, 4))
        S = enumerate_faces(normals.tolist()).signs
        tracemalloc.start()
        try:
            labels = _components(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(S) == 1876 and set(labels.tolist()) == {0}
        assert peak < 2e6

    def test_one_law_scan_memory_does_not_grow_with_the_grid(self):
        # the one-law scan used to keep phi for every grid theta, a thetas x
        # directions array: 1,000 thetas took 17 times the memory of 50
        net, temp = load("ab_reversible")
        peaks = []
        for points in (50, 1000):
            tracemalloc.start()
            try:
                cutoff_scan(net, temp, (1.0, 1.0), theta_grid=np.geomspace(1.5, 1e6, points),
                            direction_samples=2000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    @pytest.mark.parametrize("grid", [[], [0.5, 2.0], [1.0, 10.0], [2.0, np.nan]])
    def test_rejects_thetas_at_most_one(self, grid):
        net, temp = load("reverse_lv")
        with pytest.raises(ValueError, match="theta_grid"):
            cutoff_scan(net, temp, (1.0, 1.0), theta_grid=grid)

    def test_rejects_theta_grid_above_cap(self):
        net, temp = load("reverse_lv")
        grid = np.geomspace(1.5, 1e6, jets_module._MAX_THETA_POINTS + 1)
        with pytest.raises(ValueError, match="1 to 1000 points"):
            cutoff_scan(net, temp, (1.0, 1.0), theta_grid=grid)

    @pytest.mark.parametrize("x0", [(-1.0, -1.0), (0.0, 0.0), (1.0, 0.0),
                                    (np.nan, 1.0), (np.inf, 1.0)])
    def test_rejects_x0_not_positive_and_finite(self, x0):
        # x0 must lie in the open positive orthant; outside it (-1,-1 and
        # 0,0) no theta**w is eligible and the scan read that as a cutoff
        net, temp = parse_network("species: A B\nA -> B rate [1,2]\n")
        with pytest.raises(ValueError, match="x0"):
            cutoff_scan(net, temp, x0, direction_samples=50)

    @pytest.mark.parametrize("x0, intervals, match", [
        ((1.0,), 2, "x0 must be 2 finite positive values"),
        ((1.0, 1.0, 1.0), 2, "x0 must be 2 finite positive values"),
        ((1.0, 1.0), 1, "tempering must have 2 intervals, got 1"),
        ((1.0, 1.0), 3, "tempering must have 2 intervals, got 3"),
    ], ids=["short-x0", "long-x0", "short-tempering", "long-tempering"])
    def test_wrong_length_x0_or_tempering_rejected(self, x0, intervals, match):
        # a one-interval tempering used to be applied to both reactions
        net, _ = load("ab_reversible")
        temp = Tempering(((Fraction(1), Fraction(2)),) * intervals)
        with pytest.raises(ValueError, match=match):
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
