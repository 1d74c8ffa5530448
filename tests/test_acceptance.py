"""End-to-end acceptance gate: one test per headline requirement, each
printing a single pass/fail line under pytest -v.

Every expectation here was frozen from independent derivation (closed
forms, hand geometry, or cross-checked oracles) before being asserted.
"""

import math
import time
from fractions import Fraction

import numpy as np

from crnkit import (
    Frame,
    JetSchedule,
    RatePolicy,
    birch_point,
    classify,
    conservation_residual,
    cutoff_scan,
    domination_monitor,
    fast_paths,
    find_steady_state,
    g_alpha,
    grad_g_alpha,
    is_w_endotactic,
    jets_fundamental_check,
    level_and_type,
    make_frame,
    mass_action_rhs,
    pull,
    sample_classify,
    simulate,
    stoichiometric_subspace,
)
from crnkit.geometry import gram_schmidt, nullspace, row_space_basis, super_chain
from crnkit.network import (
    Complex,
    Reaction,
    ReactionNetwork,
    Species,
    StoichiometryInfo,
)

from conftest import (
    CLASSIFICATION,
    HEXAGON,
    HEXAGON_Q2_INDEX,
    STRONGLY_ENDOTACTIC,
    load,
)

F = Fraction


def _random_network(rng, max_species=3, max_reactions=5, max_coeff=3):
    n = int(rng.integers(2, max_species + 1))
    m = int(rng.integers(1, max_reactions + 1))
    species = tuple(Species(f"S{i}", i) for i in range(n))
    complexes = {}
    reactions = []
    for _ in range(m):
        src = Complex(tuple(F(int(v)) for v in rng.integers(0, max_coeff + 1, n)))
        tgt = Complex(tuple(F(int(v)) for v in rng.integers(0, max_coeff + 1, n)))
        complexes[src.coeffs] = src
        complexes[tgt.coeffs] = tgt
        reactions.append(Reaction(src, tgt))
    return ReactionNetwork(species, tuple(complexes.values()), tuple(reactions))


def _random_stoichiometry(rng, n):
    m = int(rng.integers(1, n + 1))
    rows = [tuple(F(int(v)) for v in rng.integers(-3, 4, n)) for _ in range(m)]
    H = row_space_basis(rows, n)
    Hp = nullspace(H, n) if H else nullspace([tuple([F(0)] * n)], n)
    return StoichiometryInfo(tuple(H), tuple(Hp), len(H))


def test_criterion_01_classification_table_matches_on_all_twelve_fixtures():
    for name, expected in CLASSIFICATION.items():
        net, _ = load(name)
        start = time.perf_counter()
        report = classify(net)
        elapsed = time.perf_counter() - start
        got = (
            report.weakly_reversible,
            report.endotactic,
            report.strongly_endotactic,
        )
        assert got == expected, name
        assert elapsed < 1.0, (name, elapsed)
    # the three-source triangle is inward along (1, 0) despite failing overall
    net, _ = load("triangle_out")
    assert is_w_endotactic(net, (F(1), F(0)))[0]
    assert not classify(net).endotactic
    # the birth/death pair fails the strong condition exactly along (0, -1)
    assert classify(load("birth_death")[0]).witness == (F(0), F(-1))


def test_criterion_02_exact_decider_never_contradicted_by_sampler_on_200_networks():
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    endorsed = 0
    for i in range(200):
        net = _random_network(rng)
        report = classify(net)
        sampled = sample_classify(net, n_samples=10_000, seed=i)
        if report.endotactic:
            endorsed += 1
            assert sampled["endotactic"], i
        if report.strongly_endotactic:
            assert sampled["strongly_endotactic"], i
        if fast_paths(net) is not None:
            assert report.strongly_endotactic, i
    elapsed = time.perf_counter() - start
    assert endorsed > 0
    assert elapsed < 120.0, elapsed


def test_criterion_03_birch_residuals_within_1e12_on_100_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        st = _random_stoichiometry(rng, n)
        sol = birch_point(st, rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n))
        assert sol.residual <= 1e-12
    net, _ = load("ab_reversible")
    st = stoichiometric_subspace(net)
    sol = birch_point(st, (2.0, 2.0), (1.0, 3.0))
    assert np.allclose(sol.point, (1.0, 3.0), atol=1e-10)
    again = birch_point(st, (2.0, 2.0), (1.0, 3.0), start_t=(0.4,))
    assert np.allclose(sol.point, again.point, atol=1e-11)


def test_criterion_04_free_energy_nonincreasing_for_detailed_balanced_pair():
    net, temp = load("ab_reversible")
    st = stoichiometric_subspace(net)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x0 = rng.uniform(0.1, 5.0, 2)
        xhat = np.array(birch_point(st, x0, (1.0, 1.0)).point)
        traj = simulate(net, temp, RatePolicy("constant-mid"), x0, 50.0)
        g = np.array([g_alpha(x, xhat) for x in traj.states])
        assert float(np.max(np.diff(g), initial=0.0)) <= 1e-8
        assert float(g[-1] - g.min()) <= 1e-8


def test_criterion_05_tempered_trajectories_trapped_in_common_box_across_seeds():
    net, temp = load("reverse_lv")
    grid = np.geomspace(1e-3, 1e3, 5)
    starts = [(a, b) for a in grid for b in grid][:20]
    boxes = {}
    for seed in (1, 2):
        lo, hi = np.inf, 0.0
        for x0 in starts:
            traj = simulate(
                net, temp, RatePolicy("piecewise-constant", seed=seed, dt=0.1),
                x0, 200.0, rtol=1e-6, atol=1e-9,
            )
            assert traj.times[-1] == 200.0
            tail = traj.states[traj.times >= 150.0]
            lo = min(lo, float(tail.min()))
            hi = max(hi, float(tail.max()))
        assert lo > 0.0 and np.isfinite(hi)
        boxes[seed] = (lo, hi)
    (lo1, hi1), (lo2, hi2) = boxes[1], boxes[2]
    assert abs(lo1 - lo2) <= 0.1 * max(lo1, lo2)
    assert abs(hi1 - hi2) <= 0.1 * max(hi1, hi2)


def test_criterion_06_futile_cycle_starves_one_side_while_conserving_totals():
    net, temp = load("futile_cycle")
    st = stoichiometric_subspace(net)
    traj = simulate(
        net, temp, RatePolicy("fixed", rates=(1.0, 1.0, 2.0, 2.0)),
        (1.0, 1e-2, 1e-2, 1.0, 1e-2), 500.0,
    )
    # S1, S2 and F are the species that the k2 < k4 imbalance drains
    mins = traj.states[:, [1, 2, 4]].min(axis=1)
    below = np.nonzero(mins < 1e-6)[0]
    assert len(below) > 0
    assert traj.times[below[0]] <= 1e4
    assert conservation_residual(traj, st) <= 1e-8


def test_criterion_07_jet_stabilization_domination_and_degenerate_frame_warning():
    # hexagon: the two-stage argmax survives a small mixing weight only
    Q = np.array(HEXAGON)
    for eps, expect_match in ((0.1, True), (3.0, False)):
        idx = int(np.argmax(Q @ (np.array([1.0, 0.0]) + eps * np.array([0.0, 1.0]))))
        assert (idx == HEXAGON_Q2_INDEX) is expect_match
    fr = make_frame((1.0, 0.0), (0.0, 1.0))
    out = jets_fundamental_check(
        HEXAGON, fr, JetSchedule(), i_range=np.geomspace(1, 2000, 40)
    )
    assert out["stabilized"] and out["expected"] == [HEXAGON_Q2_INDEX]

    # argmax stabilizes to the exact iterated-maximal subset on 50 random sets
    rng = np.random.default_rng(5150)
    done = 0
    while done < 50:
        m = int(rng.integers(3, 7))
        pts = [tuple(F(int(v), 4) for v in rng.integers(-8, 9, 2)) for _ in range(m)]
        basis = gram_schmidt(
            [tuple(F(int(v), 3) for v in rng.integers(-6, 7, 2)) for _ in range(2)]
        )
        if len(basis) < 2:
            continue
        exact = set(super_chain(pts, basis)[-1])
        exact_idx = sorted(i for i, q in enumerate(pts) if q in exact)
        floats = []
        for v in basis:
            a = np.array([float(x) for x in v])
            floats.append(tuple(a / np.linalg.norm(a)))
        rep = jets_fundamental_check(
            [tuple(float(x) for x in q) for q in pts],
            Frame(tuple(floats)),
            JetSchedule(),
            i_range=np.geomspace(1, 5000, 50),
        )
        assert rep["stabilized"] and rep["expected"] == exact_idx
        done += 1

    # every draining reaction dominated by 10^3 across the four strongly
    # inward fixtures and 20 random frames with leading vector off H^perp
    rng = np.random.default_rng(777)
    for name in ("strong_not_wr", "chain_cycle", "prism", "tetrahedron"):
        net, _ = load(name)
        n = net.n_species
        B = stoichiometric_subspace(net).orthonormal_H()
        for _ in range(20):
            while True:
                Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
                if np.linalg.norm(B.T @ Qm[:, 0]) >= 0.3:
                    break
            frame = Frame(tuple(tuple(float(x) for x in Qm[:, j]) for j in range(n)))
            rep = domination_monitor(net, frame, JetSchedule())
            assert rep["warning"] is None
            for entry in rep["entries"]:
                assert entry["terminal_ratio_log10"] > 3.0
                assert entry["dominated"]

    # conserved leading direction: bounded ratio and an explicit warning
    net, _ = load("ab_reversible")
    s2 = 1.0 / math.sqrt(2.0)
    frame = make_frame((s2, s2), (-s2, s2))
    rep = domination_monitor(net, frame, JetSchedule())
    assert rep["warning"] is not None
    assert not rep["all_dominated"]
    assert rep["entries"][0]["terminal_ratio_log10"] < 1.0  # stuck at e^sqrt(2)
    stressed = domination_monitor(net, frame, JetSchedule(beta_kind="decaying"))
    assert stressed["warning"] is not None
    assert not stressed["entries"][0]["dominated"]


def test_criterion_08_scan_finds_three_near_zero_clusters_at_known_directions():
    net, temp = load("reverse_lv")
    out = cutoff_scan(net, temp, (1.0, 1.0), seed=0)
    clusters = out["near_zero_clusters"]
    assert len(clusters) == 3
    s2 = 1.0 / math.sqrt(2.0)
    for target in [(-1.0, 0.0), (0.0, -1.0), (s2, s2)]:
        gaps = [
            math.acos(float(np.clip(np.dot(c["center"], target), -1.0, 1.0)))
            for c in clusters
        ]
        assert min(gaps) < 0.05


def test_criterion_09_steady_states_for_every_strongly_inward_fixture():
    net, _ = load("reverse_lv")
    out = find_steady_state(net, (1.0, 1.0, 1.0), (2.0, 2.0))
    assert np.allclose(out.x, (1.0, 1.0), atol=1e-10)
    rng = np.random.default_rng(99)
    for name in STRONGLY_ENDOTACTIC:
        net, _ = load(name)
        for _ in range(5):
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            x0 = rng.uniform(0.5, 2.0, net.n_species)
            sol = find_steady_state(net, k, x0)
            assert sol.residual < 1e-8, name
            assert all(v > 0 for v in sol.x)


def test_criterion_10_gradient_and_pull_identities_hold_numerically():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        x = rng.uniform(0.2, 3.0, n)
        alpha = rng.uniform(0.2, 3.0, n)
        grad = grad_g_alpha(x, alpha)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1e-6
            num = (g_alpha(x + e, alpha) - g_alpha(x - e, alpha)) / 2e-6
            assert abs(grad[i] - num) <= 1e-6
    # summed rate-weighted pulls equal the rhs component along w at theta**w
    for name in ("reverse_lv", "a_to_b"):
        net, _ = load(name)
        for _ in range(50):
            w = rng.standard_normal(net.n_species)
            w /= np.linalg.norm(w)
            theta = float(rng.uniform(1.5, 20.0))
            k = rng.uniform(0.5, 2.0, net.n_reactions)
            lhs = sum(kk * pull(r, w, theta) for kk, r in zip(k, net.reactions))
            rhs = float(w @ mass_action_rhs(net, k, theta ** w))
            assert abs(lhs - rhs) <= 1e-9
