"""Endotactic / strongly endotactic deciders: single-direction checks, the
full arrangement decision, fast-path sufficient conditions, witnesses, and
agreement with an independent sampling oracle."""

import importlib
import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crnkit import (
    LimitExceeded,
    arrangement_normals,
    classify,
    cutoff_scan,
    fast_paths,
    is_endotactic,
    is_strongly_endotactic,
    is_w_endotactic,
    parse_network,
    sample_classify,
    stoichiometric_subspace,
)
from crnkit.geometry import enumerate_faces, max_subset, primitive
from crnkit.network import Complex, Reaction, ReactionNetwork, Species

from conftest import CLASSIFICATION, load, network_text, weakly_reversible_family

classify_module = importlib.import_module("crnkit.classify")
geometry_module = importlib.import_module("crnkit.geometry")


F = Fraction


def random_network(rng, max_species=3, max_reactions=5, max_coeff=3):
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


class TestSingleDirection:
    def test_reverse_lv_along_x(self):
        net, _ = load("reverse_lv")
        ok, violation = is_w_endotactic(net, (F(1), F(0)))
        assert ok and violation is None

    def test_triangle_along_x_but_not_overall(self):
        net, _ = load("triangle_out")
        ok, _ = is_w_endotactic(net, (F(1), F(0)))
        assert ok
        ok, violation = is_w_endotactic(net, (F(-1), F(1)))
        assert not ok
        # the violating reaction is the vertical one from the lowest source
        assert violation is net.reactions[0]

    def test_zero_direction_rejected(self):
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError):
            is_w_endotactic(net, (F(0), F(0)))

    @pytest.mark.parametrize("w", [(1,), (1, 0, 5)], ids=["short", "long"])
    def test_wrong_length_direction_rejected(self, w):
        # zip used to truncate w, and both read as w-endotactic
        net, _ = load("reverse_lv")
        with pytest.raises(ValueError, match="direction w must have 2 entries"):
            is_w_endotactic(net, w)

    def test_restated_definition_on_face_representatives(self, rng):
        # w-endotactic iff every draining reaction (positive flux component)
        # is strictly exceeded, in source height along w, by some sustaining
        # reaction (negative flux component)
        for _ in range(20):
            net = random_network(rng)
            try:
                faces = enumerate_faces(arrangement_normals(net))
            except LimitExceeded:
                continue
            for w in faces.representatives.tolist():
                if not any(w):
                    continue
                heights = [
                    sum(a * b for a, b in zip(w, r.source.coeffs))
                    for r in net.reactions
                ]
                comps = [
                    sum(a * b for a, b in zip(w, r.flux)) for r in net.reactions
                ]
                expected = all(
                    any(
                        comps[s] < 0 and heights[s] > heights[d]
                        for s in range(net.n_reactions)
                    )
                    for d in range(net.n_reactions)
                    if comps[d] > 0
                )
                assert is_w_endotactic(net, w)[0] == expected
                # the violation reported is the first draining reaction
                # whose source is highest among the w-essential reactions
                top = max((h for h, c in zip(heights, comps) if c), default=None)
                first = next((r for r, (h, c) in enumerate(zip(heights, comps))
                              if c > 0 and h == top), None)
                assert is_w_endotactic(net, w) == (
                    (True, None) if first is None else (False, net.reactions[first]))

    def test_restated_strong_condition_on_face_representatives(self, rng):
        # w meets the strong condition iff it is orthogonal to every reaction
        # vector or some reaction from a source of maximal height along w
        # has a negative flux component; the per-face kernel must agree with
        # this in exact arithmetic, and with is_w_endotactic
        for _ in range(20):
            net = random_network(rng)
            try:
                arr = classify_module._Arrangement(net)
            except LimitExceeded:
                continue
            for i, w in enumerate(arr.reps.tolist()):
                heights = [
                    sum(a * b for a, b in zip(w, r.source.coeffs))
                    for r in net.reactions
                ]
                comps = [
                    sum(a * b for a, b in zip(w, r.flux)) for r in net.reactions
                ]
                top = [h == max(heights) for h in heights]
                strong = all(c == 0 for c in comps) or any(
                    c < 0 and t for c, t in zip(comps, top)
                )
                assert arr.signs[i, :net.n_reactions].tolist() == [(c > 0) - (c < 0) for c in comps]
                assert list(arr.top[i]) == top
                assert bool(arr.strong_fail[i]) is not strong
                assert bool(arr.endo_fail[i]) is not is_w_endotactic(net, w)[0]


class TestClassificationTable:
    @pytest.mark.parametrize("name", sorted(CLASSIFICATION))
    def test_expected_classes(self, name):
        net, _ = load(name)
        report = classify(net)
        got = (
            report.weakly_reversible,
            report.endotactic,
            report.strongly_endotactic,
        )
        assert got == CLASSIFICATION[name]

    def test_birth_death_witness_direction(self):
        net, _ = load("birth_death")
        report = classify(net)
        assert report.witness == (F(0), F(-1))

    def test_a_to_b_witness_direction(self):
        net, _ = load("a_to_b")
        report = classify(net)
        assert report.witness == (F(-1), F(1))

    def test_endotactic_failure_witnesses_replay(self):
        for name in ["a_to_b", "triangle_out", "futile_cycle"]:
            net, _ = load(name)
            report = classify(net)
            assert report.witness is not None
            assert not is_w_endotactic(net, report.witness)[0]

    def test_strong_failure_witnesses_replay(self):
        # where only the strong condition fails, the witness direction is
        # w-endotactic, lies outside the conservation space, and admits no
        # outward-pointing reaction from the globally maximal sources
        for name in ["birth_death", "endo_not_strong", "pyramid"]:
            net, _ = load(name)
            report = classify(net)
            w = report.witness
            assert is_w_endotactic(net, w)[0]
            comps = [sum(a * b for a, b in zip(w, r.flux)) for r in net.reactions]
            assert any(c != 0 for c in comps)  # not a conservation direction
            top = set(max_subset([r.source.coeffs for r in net.reactions], w))
            assert not any(
                c < 0 and r.source.coeffs in top
                for c, r in zip(comps, net.reactions)
            )

    def test_report_serialization(self):
        net, _ = load("birth_death")
        d = classify(net).to_dict()
        assert d["witness"] == ["0", "-1"]
        assert d["strongly_endotactic"] is False
        assert d["endotactic"] is True


def _int_tuple(v):
    return type(v) is tuple and all(type(x) is int for x in v)


def _int_rows(faces):
    # representatives are rows of an integer array, entries Python ints on the way out
    R = faces.representatives
    return R.dtype in (np.int64, object) and all(_int_tuple(tuple(w)) for w in R.tolist())


class TestIntegerVectors:
    """Face representatives are rows of an integer array; witnesses are
    tuples of Python ints."""

    @pytest.mark.parametrize("name", sorted(CLASSIFICATION))
    def test_fixture_faces_and_witnesses(self, name):
        net, _ = load(name)
        assert _int_rows(enumerate_faces(arrangement_normals(net)))
        report = classify(net)
        assert report.witness is None or _int_tuple(report.witness)
        sampled = sample_classify(net, n_samples=2000, seed=1)
        for key in ("endo_witness", "strong_witness"):
            assert sampled[key] is None or _int_tuple(sampled[key])

    def test_seeded_arrangement_and_rational_normals(self):
        rng = np.random.default_rng(41)
        normals = [tuple(F(int(v), 3) for v in rng.integers(-3, 4, 4)) for _ in range(9)]
        faces = enumerate_faces(normals)
        assert len(faces) > 100 and _int_rows(faces)
        assert _int_rows(enumerate_faces([]))


class TestFastPaths:
    def test_single_linkage_class(self):
        net, _ = load("chain_cycle")
        assert fast_paths(net) == "single_linkage_class"

    def test_equal_class_subspaces(self):
        net, _ = load("double_reversible")
        assert fast_paths(net) == "equal_class_subspaces"

    def test_initial_support_criterion(self):
        net, _ = load("prism")
        assert fast_paths(net) == "initial_support_criterion"

    def test_no_fast_path_without_weak_reversibility(self):
        net, _ = load("reverse_lv")
        assert fast_paths(net) is None

    def test_no_fast_path_for_non_strong_network(self):
        net, _ = load("pyramid")
        assert fast_paths(net) is None

    def test_fast_path_never_contradicts_decider(self):
        for name in sorted(CLASSIFICATION):
            net, _ = load(name)
            if fast_paths(net) is not None:
                assert is_strongly_endotactic(net)

    def test_cross_check_survives_optimized_python(self):
        # the check must raise where assert statements are stripped
        script = textwrap.dedent(f"""
            import importlib, sys
            from crnkit import parse_network
            if not sys.flags.optimize:
                sys.exit("not running under -O")
            module = importlib.import_module("crnkit.classify")
            module._fast_path = lambda *args: "single_linkage_class"
            net, _ = parse_network({network_text("endo_not_strong")!r})
            module.classify(net)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert ("AssertionError: fast path single_linkage_class contradicts "
                "the general decider") in out.stderr

    @pytest.mark.parametrize("name", ["prism", "birth_death", "pyramid"])
    def test_classify_enumerates_arrangement_once(self, name, monkeypatch):
        calls = {"enumerate_faces": 0, "linkage_classes": 0}
        for fname in calls:
            def counted(*args, _fn=getattr(classify_module, fname), _name=fname,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(classify_module, fname, counted)
        net, _ = load(name)
        classify(net)
        assert calls["enumerate_faces"] == 1
        assert calls["linkage_classes"] == 1

    def test_fast_path_decides_without_enumeration(self, monkeypatch):
        # a one-class network needs no face enumeration even under a tiny
        # hyperplane budget
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "1")
        net, _ = load("chain_cycle")
        report = classify(net, sample_fallback=True)
        assert report.fast_path == "single_linkage_class"
        assert report.strongly_endotactic and not report.inconclusive


class TestLimits:
    def test_limit_exceeded_raised(self, monkeypatch):
        # the cap admits exactly its own count of distinct hyperplanes
        net, _ = load("prism")
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "3")
        with pytest.raises(LimitExceeded, match="exceed the limit of 3") as info:
            classify(net)
        count = str(info.value).split()[0]
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", count)
        assert classify(net).face_count > 0
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", str(int(count) - 1))
        with pytest.raises(LimitExceeded):
            classify(net)

    def test_env_var_controls_default(self, monkeypatch):
        # CRN_MAX_HYPERPLANES is the one cap on every entry point: the
        # exact deciders raise, the fast path and the scan go without faces
        net, temp = load("prism")
        assert fast_paths(net) == "initial_support_criterion"
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "3")
        for decide in (classify, is_endotactic, is_strongly_endotactic):
            with pytest.raises(LimitExceeded):
                decide(net)
        assert fast_paths(net) is None
        scan = cutoff_scan(net, temp, (1.0, 1.0, 1.0), direction_samples=50, seed=0)
        assert scan["near_zero_clusters"] == []
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "3.5")
        with pytest.raises(ValueError):
            classify(net)
        # a negative cap used to be taken as given and refuse every arrangement
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "-1")
        with pytest.raises(ValueError, match="at least 0, got -1"):
            classify(net)

    def test_sample_fallback_marks_inconclusive(self, monkeypatch):
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "2")
        net, _ = load("reverse_lv")
        report = classify(net, sample_fallback=True)
        assert report.inconclusive
        assert report.endotactic and report.strongly_endotactic

    @pytest.mark.parametrize(
        "name",
        ["reverse_lv", "endo_not_strong", "triangle_out", "a_to_b",
         "futile_cycle", "birth_death", "pyramid"],
    )
    def test_sample_fallback_deciders_agree_with_classify(self, name, monkeypatch):
        # a cap of 0 sends classify to the sampler, its one sampled path,
        # and leaves the exact deciders nothing but LimitExceeded; none of
        # these networks has a fast path that fires without faces
        monkeypatch.setenv("CRN_MAX_HYPERPLANES", "0")
        net, _ = load(name)
        report = classify(net, sample_fallback=True, seed=5)
        assert report.inconclusive and report.fast_path is None
        sampled = sample_classify(net, seed=5)
        assert report.endotactic == sampled["endotactic"]
        assert report.strongly_endotactic == (sampled["endotactic"]
                                              and sampled["strongly_endotactic"])
        assert report.witness == (sampled["endo_witness"] or sampled["strong_witness"])
        for decide in (is_endotactic, is_strongly_endotactic):
            with pytest.raises(LimitExceeded):
                decide(net)


class TestInvariances:
    def test_scaling_complexes_preserves_classes(self, rng):
        for _ in range(15):
            net = random_network(rng, max_species=3, max_reactions=4, max_coeff=2)
            scaled = ReactionNetwork(
                net.species,
                tuple(
                    Complex(tuple(3 * c for c in cx.coeffs)) for cx in net.complexes
                ),
                tuple(
                    Reaction(
                        Complex(tuple(3 * c for c in r.source.coeffs)),
                        Complex(tuple(3 * c for c in r.target.coeffs)),
                    )
                    for r in net.reactions
                ),
            )
            try:
                assert is_endotactic(net) == is_endotactic(scaled)
                assert is_strongly_endotactic(net) == is_strongly_endotactic(scaled)
            except LimitExceeded:
                continue

    def test_strong_implies_endotactic(self, rng):
        for _ in range(25):
            net = random_network(rng)
            try:
                if is_strongly_endotactic(net)[0]:
                    assert is_endotactic(net)[0]
            except LimitExceeded:
                continue

    def test_weakly_reversible_implies_endotactic(self, rng):
        # reversible-pair networks are weakly reversible, hence endotactic
        count = 0
        while count < 10:
            net = random_network(rng, max_reactions=2)
            rev = ReactionNetwork(
                net.species,
                net.complexes,
                net.reactions
                + tuple(Reaction(r.target, r.source) for r in net.reactions),
            )
            try:
                assert is_endotactic(rev)[0]
            except LimitExceeded:
                continue
            count += 1


# (seed, species range, members): each family takes about 0.5 s, and puts
# some of its two-class members past the default cap of 20 hyperplanes
_FAMILIES = pytest.mark.parametrize("seed, species, count", [(5, (2, 3), 300), (6, (4, 5), 80)],
                                    ids=["2-3-species", "4-5-species"])


class TestKnownVerdictFamilies:
    """Weakly reversible networks are endotactic (Craciun, Nazarov & Pantea,
    SIAM J. Appl. Math. 73, 2013), and strongly endotactic when they have
    one linkage class (the source paper's extension of Anderson, SIAM J.
    Appl. Math. 71, 2011)."""

    @_FAMILIES
    def test_verdicts_are_the_theorems(self, seed, species, count):
        past = 0
        for text, classes, _ in weakly_reversible_family(seed, species, count):
            net = parse_network(text)[0]
            try:
                report = classify(net)
            except LimitExceeded:
                past += 1
                report = classify(net, sample_fallback=True, seed=seed)
            assert report.weakly_reversible and report.endotactic, text
            if classes == 1:
                assert report.strongly_endotactic and report.witness is None, text
        assert 0 < past < count

    @_FAMILIES
    def test_sampler_never_contradicts_with_a_cycle_reaction_deleted(self, seed, species,
                                                                      count):
        changed = 0
        for _, _, broken in weakly_reversible_family(seed, species, count):
            net = parse_network(broken)[0]
            try:
                exact = classify(net)
            except LimitExceeded:
                continue
            sampled = sample_classify(net, seed=seed)
            assert sampled["endotactic"] or not exact.endotactic, broken
            assert (sampled["endotactic"] and sampled["strongly_endotactic"]
                    or not exact.strongly_endotactic), broken
            changed += not exact.endotactic
        assert changed


class TestSampler:
    def test_sampler_never_contradicts_exact_on_fixtures(self):
        for name in sorted(CLASSIFICATION):
            net, _ = load(name)
            exact = classify(net)
            sampled = sample_classify(net, n_samples=4000, seed=1)
            if exact.endotactic:
                assert sampled["endotactic"]
            if exact.strongly_endotactic:
                assert sampled["strongly_endotactic"]

    def test_sampler_refutes_blatant_failure(self):
        net, _ = load("a_to_b")
        sampled = sample_classify(net, n_samples=4000, seed=1)
        assert not sampled["endotactic"]
        assert sampled["endo_witness"] is not None

    def test_sampler_witness_is_genuine(self):
        net, _ = load("triangle_out")
        sampled = sample_classify(net, n_samples=4000, seed=3)
        assert not sampled["endotactic"]
        w = tuple(F(int(v)) for v in sampled["endo_witness"])
        assert not is_w_endotactic(net, w)[0]


# one common denominator puts these coefficients past int64: converting the
# first raised OverflowError, and <w, v> wrapped silently on the second
WIDE_COEFFICIENT_NETWORKS = [
    "species: A B\n1/99991A -> 1/99989B\n1/99971B -> 1/99961A\n1/99929A -> 1/99923B\n",
    "species: A B\n1/1009A -> 1/1013B\n1/1019A + 1/1021B -> 1/1031A\n"
    "1/1033B -> A + B\n0 -> 2A\n",
]


class TestSamplerPastInt64:
    @pytest.mark.parametrize("text", WIDE_COEFFICIENT_NETWORKS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witnesses_replay_exactly(self, text, seed):
        net, _ = parse_network(text)
        sampled = sample_classify(net, n_samples=2000, seed=seed)
        assert not sampled["endotactic"]
        assert not is_w_endotactic(net, sampled["endo_witness"])[0]
        w = sampled["strong_witness"]
        assert w is not None
        comps = [sum(a * b for a, b in zip(w, r.flux)) for r in net.reactions]
        top = set(max_subset([r.source.coeffs for r in net.reactions], w))
        assert any(c != 0 for c in comps)
        assert not any(c < 0 and r.source.coeffs in top
                       for c, r in zip(comps, net.reactions))

    def test_int64_unless_a_product_could_overflow(self):
        # 60 |v|_1 of the scaled flux of 1/1033B -> A + B passes 2^63, while
        # every scaled source stays below it
        net, _ = parse_network(WIDE_COEFFICIENT_NETWORKS[1])
        assert classify_module._integer_scaled(net._exact[2]).dtype == object
        assert classify_module._integer_scaled(net._exact[1]).dtype == np.int64
        net, _ = load("triangle_out")
        assert classify_module._integer_scaled(net._exact[2]).dtype == np.int64


def _sample_classify_oneshot(net, n_samples=10_000, seed=0):
    """The sampler as it was before it drew in blocks: every direction in
    one draw, zero rows filtered out, then the first violation of each
    condition."""
    rng = np.random.default_rng(seed)
    n = net.n_species
    F = classify_module._integer_scaled(net._exact[2])  # R x n
    S = classify_module._integer_scaled(net._exact[1])
    half = n_samples // 2
    W = np.vstack(
        [
            rng.integers(-9, 10, size=(half, n)),
            rng.integers(-classify_module._W_MAX, classify_module._W_MAX + 1,
                         size=(n_samples - half, n)),
        ]
    ).astype(np.int64)
    W = W[np.any(W != 0, axis=1)]
    viol_endo, viol_strong, _ = classify_module._conditions(F @ W.T, S @ W.T)
    endo_idx = np.nonzero(viol_endo.T)[0]
    strong_idx = np.nonzero(viol_strong)[0]
    endo_w = primitive(W[endo_idx[0]].tolist()) if len(endo_idx) else None
    strong_w = primitive(W[strong_idx[0]].tolist()) if len(strong_idx) else None
    return {
        "endotactic": endo_w is None,
        "endo_witness": endo_w,
        "strongly_endotactic": strong_w is None,
        "strong_witness": strong_w,
    }


def _conditions_reference(P, Q, N):
    """_conditions restated from the definitions, one direction (column)
    at a time in plain Python: the w-essential reactions are those with a
    nonzero P entry; an endotactic violation is an essential reaction with
    P > 0 whose Q is the largest among the essential ones; a reaction is
    on top when its Q is the largest of all; the strong condition fails
    when some reaction is essential and none on top has P < 0."""
    endo, strong, top = [[] for _ in P], [], [[] for _ in P]
    for j in range(N):
        p, q = [row[j] for row in P], [row[j] for row in Q]
        ess = [r for r in range(len(p)) if p[r] != 0]
        supp = max((q[r] for r in ess), default=None)
        for r in range(len(p)):
            endo[r].append(r in ess and p[r] > 0 and q[r] == supp)
            top[r].append(q[r] == max(q))
        strong.append(bool(ess) and not any(t[j] and x < 0 for t, x in zip(top, p)))
    return endo, strong, top


# sample counts on either side of the first blocks (64, 256, 1,024 and
# 4,096 rows per phase) and of odd totals, whose second phase is one longer
BLOCK_EDGES = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 639, 640, 641, 2689, 2690,
               2691, 10_000, 10_001, 19_999, 20_000]


class TestBlockedSampler:
    """The sampler that draws in blocks and stops at its first witnesses
    against the one-shot sampler it replaced."""

    @pytest.mark.parametrize("n_samples", [4000, 10_000, 129, 65])
    def test_same_result_as_oneshot_on_fixtures(self, n_samples):
        for seed, name in enumerate(sorted(CLASSIFICATION)):
            net, _ = load(name)
            assert (sample_classify(net, n_samples=n_samples, seed=seed)
                    == _sample_classify_oneshot(net, n_samples=n_samples, seed=seed)), name

    def test_same_result_as_oneshot_on_criterion_2_networks(self):
        rng = np.random.default_rng(20260823)
        for i in range(200):
            net = random_network(rng)
            assert (sample_classify(net, n_samples=10_000, seed=i)
                    == _sample_classify_oneshot(net, n_samples=10_000, seed=i)), i

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1),
           n_samples=st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(0, 20_000)),
           seed=st.integers(0, 10**6))
    def test_same_result_as_oneshot_on_a_stream(self, net_seed, n_samples, seed):
        net = random_network(np.random.default_rng(net_seed), max_species=4,
                             max_reactions=6)
        assert (sample_classify(net, n_samples=n_samples, seed=seed)
                == _sample_classify_oneshot(net, n_samples=n_samples, seed=seed))

    @pytest.mark.parametrize("n_samples", [65, 2000, 10_001])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_result_as_oneshot_on_object_rows(self, n_samples, seed):
        net, _ = parse_network(WIDE_COEFFICIENT_NETWORKS[1])
        assert classify_module._integer_scaled(net._exact[2]).dtype == object
        assert (sample_classify(net, n_samples=n_samples, seed=seed)
                == _sample_classify_oneshot(net, n_samples=n_samples, seed=seed))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data(), R=st.integers(0, 6), N=st.integers(0, 8),
           dtype=st.sampled_from([np.int64, object]))
    def test_conditions_equal_the_definitions(self, data, R, N, dtype):
        # reactions x directions with ties in both arrays, zero directions
        # and no reactions; object entries past int64 keep every order
        scale = 2**70 if dtype is object else 1
        rows = st.lists(st.lists(st.integers(-2, 2), min_size=N, max_size=N),
                        min_size=R, max_size=R)
        zero = data.draw(st.lists(st.booleans(), min_size=N, max_size=N))
        P = [[0 if z else x for x, z in zip(row, zero)] for row in data.draw(rows)]
        Q = [[scale * x for x in row] for row in data.draw(rows)]
        got = classify_module._conditions(*(np.array(M, dtype=dtype).reshape(R, N)
                                            for M in (P, Q)))
        assert [g.shape for g in got] == [(R, N), (N,), (R, N)]
        assert [g.tolist() for g in got] == list(_conditions_reference(P, Q, N))

    @pytest.mark.parametrize("bound", [9, classify_module._W_MAX])
    def test_blocked_draws_equal_one_draw(self, bound):
        # the sampler relies on this numpy behaviour for its exact results
        for seed in range(40):
            for n in range(1, 6):
                total = 5000 + seed
                whole = np.random.default_rng(seed).integers(-bound, bound + 1, size=(total, n))
                rng = np.random.default_rng(seed)
                sizes = [64, 256, 1 + seed, 1024, 4096]
                parts, left = [], total
                for size in itertools.cycle(sizes):
                    if not left:
                        break
                    parts.append(rng.integers(-bound, bound + 1, size=(min(size, left), n)))
                    left -= len(parts[-1])
                assert np.array_equal(np.vstack(parts), whole), (seed, n)

    def test_stops_after_the_first_block_with_both_witnesses(self, monkeypatch):
        blocks = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                out = self._rng.integers(*args, **kwargs)
                blocks.append(out.shape)
                return out

        monkeypatch.setattr(classify_module.np.random, "default_rng", Spy)
        net, _ = load("a_to_b")
        sampled = sample_classify(net, n_samples=10_000, seed=0)
        assert not sampled["endotactic"] and not sampled["strongly_endotactic"]
        assert blocks == [(64, 2)]

    def test_huge_sample_count_returns_at_once(self):
        net, _ = load("a_to_b")
        assert (sample_classify(net, n_samples=classify_module._MAX_SAMPLES, seed=1)
                == sample_classify(net, n_samples=10_000, seed=1))

    def test_rejects_sample_count_above_the_cap(self):
        # time grows linearly with the count: 10**12 would take days
        net, _ = load("prism")
        cap = classify_module._MAX_SAMPLES
        assert cap > 10_000  # the CLI's, criterion 2's and the benchmark's count
        with pytest.raises(ValueError, match=f"n_samples must be at most {cap}, got {cap + 1}"):
            sample_classify(net, n_samples=cap + 1)
        with pytest.raises(ValueError, match="at most"):
            sample_classify(net, n_samples=10**12)

    def test_rejects_negative_sample_count(self):
        net, _ = load("a_to_b")
        with pytest.raises(ValueError, match="n_samples must be nonnegative, got -3"):
            sample_classify(net, n_samples=-3)


class TestArrangement:
    def test_normal_count(self):
        net, _ = load("reverse_lv")
        normals = arrangement_normals(net)
        # three reaction vectors plus three source differences
        assert len(normals) == 6

    def test_zero_flux_network_trivially_strong(self):
        net, _ = parse_network("species: A\nA -> A\n")
        report = classify(net)
        assert report.endotactic and report.strongly_endotactic
        assert stoichiometric_subspace(net).dimension == 0

    @pytest.mark.parametrize("name", ["prism", "birth_death", "pyramid", "reverse_lv"])
    def test_every_enumeration_goes_through_enumerate_faces(self, name, monkeypatch):
        # a wrapper bound in every crnkit module that holds enumerate_faces,
        # as a tracer binds it, sees each enumeration and its face count
        original = geometry_module.enumerate_faces
        sizes = []

        def counted(*args, **kwargs):
            faces = original(*args, **kwargs)
            sizes.append(len(faces))
            return faces

        bound = set()
        for mod_name, module in list(sys.modules.items()):
            if module is not None and mod_name.split(".")[0] == "crnkit":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
                        bound.add(mod_name)
        assert {"crnkit", "crnkit.geometry", "crnkit.classify"} <= bound
        net, temp = load(name)
        report = classify(net)
        assert report.face_count > 0 and sizes == [report.face_count]
        fast_paths(net)
        assert sizes[1:] in ([], [report.face_count])
        sizes.clear()
        cutoff_scan(net, temp, [1.0] * net.n_species, theta_grid=[2.0], direction_samples=0)
        assert sizes == [report.face_count]


def _fraction_view(net):
    """The network's rows restated in Fractions: sources, fluxes, distinct
    sources in order of first appearance, and the arrangement normals."""
    sources = [r.source.coeffs for r in net.reactions]
    fluxes = [tuple(t - s for s, t in zip(r.source.coeffs, r.target.coeffs))
              for r in net.reactions]
    distinct = list(dict.fromkeys(sources))
    normals = fluxes + [tuple(x - y for x, y in zip(a, b))
                        for a, b in itertools.combinations(distinct, 2)]
    return sources, fluxes, distinct, normals


class TestIntegerView:
    """The network's one integer view against an in-test Fraction oracle."""

    @pytest.mark.parametrize("net", [load(name)[0] for name in sorted(CLASSIFICATION)]
                             + [parse_network(text)[0] for text in WIDE_COEFFICIENT_NETWORKS],
                             ids=[*sorted(CLASSIFICATION), "wide0", "wide1"])
    def test_rows_distinct_sources_and_normals(self, net):
        edges, sources, fluxes, source_of, distinct = net._exact
        want_sources, want_fluxes, want_distinct, want_normals = _fraction_view(net)
        assert [(net.complexes[a], net.complexes[b]) for a, b in edges] == [
            (r.source, r.target) for r in net.reactions]
        for cached, rows in ((sources, want_sources), (fluxes, want_fluxes)):
            lcm = math.lcm(*(x.denominator for row in rows for x in row))
            assert all(_int_tuple(row) for row in cached)
            assert list(cached) == [tuple(int(x * lcm) for x in row) for row in rows]
        lcm = math.lcm(*(x.denominator for row in want_sources for x in row))
        assert [tuple(F(x, lcm) for x in row) for row in distinct] == want_distinct
        assert [distinct[k] for k in source_of] == list(sources)
        normals = arrangement_normals(net)
        assert len(normals) == len(want_normals)
        for got, want in zip(normals, want_normals):
            assert _int_tuple(got)
            ratios = {F(g) / x for g, x in zip(got, want) if x}
            assert all(g == 0 for g, x in zip(got, want) if not x)
            assert len(ratios) <= 1 and all(q > 0 for q in ratios)
        got, want = enumerate_faces(normals), enumerate_faces(want_normals)
        assert np.array_equal(got.signs, want.signs)
        assert got.representatives.tolist() == want.representatives.tolist()
