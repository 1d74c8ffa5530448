"""Network model and the line-oriented description format: parsing,
serialization round-trips, stoichiometry, linkage structure, and the
package's import surface."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import crnkit
from crnkit import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    Species,
    StoichiometryInfo,
    Tempering,
    linkage_classes,
    parse_network,
    serialize_network,
    stoichiometric_subspace,
)
from crnkit.geometry import rank

from conftest import NETWORKS, load


F = Fraction


class TestParsing:
    def test_species_header_fixes_order(self):
        net, _ = parse_network("species: Y X\nX -> Y\n")
        assert net.species_names == ["Y", "X"]
        assert net.reactions[0].source.coeffs == (F(0), F(1))

    def test_first_appearance_order_without_header(self):
        net, _ = parse_network("B -> A\nC -> B\n")
        assert net.species_names == ["B", "A", "C"]

    def test_coefficient_forms_equivalent(self):
        for text in ["2A -> B", "2*A -> B", "2 A -> B"]:
            net, _ = parse_network(f"species: A B\n{text}\n")
            assert net.reactions[0].source.coeffs == (F(2), F(0))

    def test_fraction_and_decimal_coefficients_exact(self):
        net, _ = parse_network("species: A B\n1/2A + 0.25B -> B\n")
        assert net.reactions[0].source.coeffs == (F(1, 2), F(1, 4))

    def test_scientific_notation_rejected(self):
        with pytest.raises(ParseError):
            parse_network("species: A B\n1e3A -> B\n")

    def test_zero_complex(self):
        net, _ = parse_network("species: A\n0 -> A\n")
        assert net.reactions[0].source.coeffs == (F(0),)

    def test_reversible_expands_forward_then_backward(self):
        net, _ = parse_network("species: A B\nA <-> B\n")
        assert net.n_reactions == 2
        assert net.reactions[0].source.coeffs == (F(1), F(0))
        assert net.reactions[1].source.coeffs == (F(0), F(1))

    def test_rate_intervals(self):
        _, temp = parse_network("species: A B\nA -> B rate [1,2]\n")
        assert temp is not None
        assert temp.intervals == ((F(1), F(2)),)

    def test_singleton_interval(self):
        _, temp = parse_network("species: A B\nA -> B rate [3]\n")
        assert temp.intervals == ((F(3), F(3)),)

    def test_reversible_single_interval_applies_both_ways(self):
        _, temp = parse_network("species: A B\nA <-> B rate [1,2]\n")
        assert temp.intervals == ((F(1), F(2)), (F(1), F(2)))

    def test_reversible_two_intervals(self):
        _, temp = parse_network("species: A B\nA <-> B rate [1] [3,4]\n")
        assert temp.intervals == ((F(1), F(1)), (F(3), F(4)))

    def test_missing_rate_defaults_to_one(self):
        _, temp = parse_network("species: A B\nA -> B rate [2]\nB -> A\n")
        assert temp.intervals == ((F(2), F(2)), (F(1), F(1)))

    def test_no_rates_means_no_tempering(self):
        _, temp = parse_network("species: A B\nA -> B\n")
        assert temp is None

    def test_comments_ignored(self):
        net, _ = parse_network("# header\nspecies: A B  # two species\nA -> B\n")
        assert net.n_reactions == 1

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_network("species: A B\nA -> B\nA + -> B\n")
        assert "line 3" in str(err.value)

    def test_unknown_species_with_fixed_header(self):
        with pytest.raises(ParseError):
            parse_network("species: A\nA -> B\n")

    def test_duplicate_species_rejected(self):
        with pytest.raises(ParseError):
            parse_network("species: A A\nA -> A\n")

    def test_header_after_reactions_rejected(self):
        with pytest.raises(ParseError):
            parse_network("A -> B\nspecies: A B\n")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ParseError):
            parse_network("species: A B\nA -> B rate [0,1]\n")

    def test_inverted_interval_rejected(self):
        with pytest.raises(ParseError):
            parse_network("species: A B\nA -> B rate [2,1]\n")

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_network("species: A B\nA + B\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_network("# nothing here\n")

    def test_self_loop_allowed(self):
        net, _ = parse_network("species: A\nA -> A\n")
        assert net.reactions[0].flux == (F(0),)
        info = linkage_classes(net)
        assert info.weakly_reversible  # single complex is vacuously strong

    def test_duplicate_complexes_stored_once(self):
        net, _ = parse_network("species: A B\nA -> B\nB -> A\n")
        assert len(net.complexes) == 2

    @pytest.mark.parametrize("text, column", [
        ("1/0 A -> B", 1),
        ("A -> 2/0B", 6),
        ("A -> B rate [1,3/0]", 16),
    ], ids=["coefficient", "product", "endpoint"])
    def test_zero_denominator_is_a_parse_error(self, text, column):
        # a coefficient p/0 used to end in ZeroDivisionError
        with pytest.raises(ParseError, match="zero denominator") as err:
            parse_network(text)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text, column", [
        ("A + + B -> 0", 5),
        ("A ++ B -> 0", 4),
        ("0 -> A ++ B", 9),
        ("A -> B  rate  [ 1/0 ]", 17),
        ("A -> B rate [2,1]", 13),
        ("A -> B rate [1] [2]", 17),
        ("species: A\nA -> 2 * B", 10),
        ("A -> B $", 8),
        ("A + B  ", 8),
    ], ids=["empty-term", "empty-term-unspaced", "empty-term-product", "interval-number",
            "inverted-interval", "extra-interval", "unknown-species", "stray-character",
            "no-arrow"])
    def test_error_column_is_the_offending_token(self, text, column):
        # the column of the token itself, or one past the end of a line that
        # ends too soon; not the start of its term or the blank before it
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)

    def test_rate_is_a_species_unless_an_interval_follows(self):
        net, temp = parse_network("A -> rate\n")
        assert net.species_names == ["A", "rate"]
        assert temp is None
        net, temp = parse_network("species: rate A\nrate -> rate rate [2]\n")
        assert net.reactions[0].target.coeffs == (F(1), F(0))
        assert temp.intervals == ((F(2), F(2)),)

    def test_zero_complex_with_a_rate(self):
        net, temp = parse_network("0 -> 0 rate [1/4]\n")
        assert net.species == () and len(net.complexes) == 1
        assert temp.intervals == ((F(1, 4), F(1, 4)),)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_round_trip(self, name):
        net, temp = load(name)
        text = serialize_network(net, temp)
        net2, temp2 = parse_network(text)
        assert net2 == net
        assert temp2 == temp

    @pytest.mark.parametrize("intervals", [1, 3], ids=["short", "long"])
    def test_wrong_length_tempering_rejected(self, intervals):
        # a longer tempering used to lose its extra intervals without a word
        net, _ = load("ab_reversible")
        temp = Tempering(((F(1), F(2)),) * intervals)
        with pytest.raises(ValueError, match=f"tempering must have 2 intervals, got {intervals}"):
            serialize_network(net, temp)

    def test_formats_fractions(self):
        net, _ = parse_network("species: A B\n1/2A -> 3B\n")
        text = serialize_network(net)
        assert "1/2A" in text and "3B" in text


class TestTempering:
    def test_contains_is_exact(self):
        temp = Tempering(((F(1, 3), F(1, 2)),))
        assert temp.contains([F(1, 3)])
        assert temp.contains([F(2, 5)])
        assert not temp.contains([F(1, 3) - F(1, 10**12)])

    @pytest.mark.parametrize("rates", [(1.5,), (1.5, 1.5, 1.5, 99)], ids=["short", "long"])
    def test_wrong_length_rates_not_contained(self, rates):
        # zip used to judge only the shorter prefix, and answered True
        assert not Tempering(((F(1), F(2)),) * 3).contains(rates)

    def test_midpoints_lows_highs(self):
        temp = Tempering(((F(1), F(2)), (F(3), F(3))))
        assert np.allclose(temp.midpoints(), [1.5, 3.0])
        assert np.allclose(temp.lows(), [1.0, 3.0])
        assert np.allclose(temp.highs(), [2.0, 3.0])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Tempering(((F(2), F(1)),))
        with pytest.raises(ValueError):
            Tempering(((F(0), F(1)),))


class TestInputLengths:
    def test_wrong_length_rejected_under_optimized_python(self):
        # every per-species or per-reaction length check is a raise, not an
        # assert: each entry point's wrong-length cases pass under -O too
        here = Path(__file__).parent
        out = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(str(here / f"test_{name}.py")
               for name in ("network", "classify", "dynamics", "birch", "jets")),
             "-k", "wrong_length and not optimized"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout[-2000:]
        assert "32 passed" in out.stdout, out.stdout[-2000:]


class TestStoichiometry:
    def test_ab_reversible_one_dimensional(self):
        net, _ = load("ab_reversible")
        st = stoichiometric_subspace(net)
        assert st.dimension == 1
        assert len(st.Hperp_basis) == 1
        # conservation law is total mass x_A + x_B
        a, b = st.Hperp_basis[0]
        assert a == b != 0

    def test_reverse_lv_full_dimensional(self):
        net, _ = load("reverse_lv")
        st = stoichiometric_subspace(net)
        assert st.dimension == 2
        assert st.Hperp_basis == ()
        assert st.Hperp_matrix().shape == (0, 2)

    def test_futile_cycle_two_conservation_laws(self):
        net, _ = load("futile_cycle")
        st = stoichiometric_subspace(net)
        assert st.dimension == 3
        assert len(st.Hperp_basis) == 2
        # total substrate and total enzyme+carrier are conserved
        for law in [(1, 1, 1, 0, 0), (0, 0, 0, 1, 1)]:
            law = tuple(F(v) for v in law)
            assert rank(list(st.Hperp_basis) + [law]) == 2

    def test_h_and_hperp_are_orthogonal(self):
        for name in ["ab_reversible", "futile_cycle", "pyramid"]:
            net, _ = load(name)
            st = stoichiometric_subspace(net)
            for h in st.H_basis:
                for p in st.Hperp_basis:
                    assert sum(a * b for a, b in zip(h, p)) == 0

    def test_basis_dimensions_add_up(self):
        for name in sorted(NETWORKS):
            net, _ = load(name)
            st = stoichiometric_subspace(net)
            assert len(st.H_basis) == st.dimension
            assert st.dimension + len(st.Hperp_basis) == net.n_species


class TestLinkage:
    def test_two_classes_not_weakly_reversible(self):
        net, _ = load("endo_not_strong")
        info = linkage_classes(net)
        assert len(info.classes) == 2
        assert not info.weakly_reversible

    def test_prism_three_reversible_classes(self):
        net, _ = load("prism")
        info = linkage_classes(net)
        assert len(info.classes) == 3
        assert info.weakly_reversible

    def test_single_cycle_class(self):
        net, _ = load("chain_cycle")
        info = linkage_classes(net)
        assert len(info.classes) == 1
        assert info.weakly_reversible

    def test_chain_not_reversible(self):
        net, _ = load("a_to_b")
        assert not linkage_classes(net).weakly_reversible

    def test_class_subspaces_span_h(self):
        net, _ = load("pyramid")
        info = linkage_classes(net)
        st = stoichiometric_subspace(net)
        combined = [v for basis in info.class_subspaces for v in basis]
        assert rank(combined) == st.dimension


class TestStructureOnce:
    def test_same_objects_on_every_call(self):
        net, _ = load("futile_cycle")
        st = stoichiometric_subspace(net)
        assert stoichiometric_subspace(net) is st
        assert linkage_classes(net) is linkage_classes(net)

    @pytest.mark.parametrize("name", ["futile_cycle", "reverse_lv", "a_to_b"])
    def test_float_bases_built_once_and_read_only(self, name):
        net, _ = load(name)
        st = stoichiometric_subspace(net)
        # the same arrays for an instance built directly from the bases
        direct = StoichiometryInfo(st.H_basis, st.Hperp_basis, st.dimension)
        for info in (st, direct):
            for get in (info.Hperp_matrix, info.orthonormal_H, info.orthonormal_Hperp):
                M = get()
                assert get() is M
                assert not M.flags.writeable
                with pytest.raises(ValueError):
                    M[...] = 0
        Q = st.orthonormal_H()
        assert Q.shape == (net.n_species, st.dimension)
        assert np.allclose(Q.T @ Q, np.eye(st.dimension))
        assert direct.orthonormal_H().tobytes() == Q.tobytes()

    def test_closure_matches_graph_components(self, rng):
        # scipy's weak and strong components as the oracle: weakly
        # reversible iff every linkage class is one strong component
        from scipy.sparse.csgraph import connected_components

        pool = [Complex((F(a), F(b))) for a in range(3) for b in range(3)]
        wr = 0
        for _ in range(300):
            picks = rng.choice(len(pool), size=(int(rng.integers(1, 7)), 2))
            reactions = [Reaction(pool[a], pool[b]) for a, b in picks]
            if rng.random() < 0.5:
                reactions += [Reaction(r.target, r.source) for r in reactions
                              if rng.random() < 0.8]
            complexes = tuple(dict.fromkeys(c for r in reactions
                                            for c in (r.source, r.target)))
            net = ReactionNetwork(tuple(Species(s, i) for i, s in enumerate("AB")),
                                  complexes, tuple(reactions))
            index = {c: i for i, c in enumerate(complexes)}
            adj = np.zeros((len(complexes),) * 2)
            for r in reactions:
                adj[index[r.source], index[r.target]] = 1
            n_weak, weak = connected_components(adj, connection="weak")
            n_strong, _ = connected_components(adj, connection="strong")
            groups = {}
            for i, label in enumerate(weak):
                groups.setdefault(label, []).append(i)
            info = linkage_classes(net)
            assert info.classes == tuple(sorted(tuple(g) for g in groups.values()))
            assert info.weakly_reversible == (n_strong == n_weak)
            wr += info.weakly_reversible
        assert 50 < wr < 250


class TestPublicSurface:
    def test_every_exported_name_resolves_once(self):
        assert len(set(crnkit.__all__)) == len(crnkit.__all__)
        for name in crnkit.__all__:
            assert hasattr(crnkit, name), name
        namespace = {}
        exec("from crnkit import *", namespace)
        assert set(crnkit.__all__) <= set(namespace)


class TestModelValidation:
    def test_reaction_flux(self):
        src = Complex((F(2), F(0)))
        tgt = Complex((F(1), F(1)))
        assert Reaction(src, tgt).flux == (F(-1), F(1))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Complex((F(-1), F(0)))
