"""Derandomized property tests: the Birch residual meets its tolerance on
random slices of the small fixtures, serialization round-trips through the
parser, the parser reads any line or locates its error, every sampler
witness is a genuine violation, and rate-weighted pulls sum to the
mass-action field along toric rays."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crnkit import (  # noqa: E402
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    Species,
    Tempering,
    birch_point,
    is_w_endotactic,
    mass_action_rhs,
    parse_network,
    pull,
    sample_classify,
    serialize_network,
    stoichiometric_subspace,
)
from crnkit.geometry import dot  # noqa: E402

from conftest import NETWORKS, load  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

SMALL_FIXTURES = sorted(
    name for name in NETWORKS if 2 <= load(name)[0].n_species <= 5
)

log_coord = st.floats(min_value=-2.5, max_value=2.5)


@PROPERTY
@given(name=st.sampled_from(SMALL_FIXTURES), data=st.data())
def test_birch_residual_meets_tolerance(name, data):
    net, _ = load(name)
    n = net.n_species
    x0 = np.exp(data.draw(st.lists(log_coord, min_size=n, max_size=n)))
    alpha = np.exp(data.draw(st.lists(log_coord, min_size=n, max_size=n)))
    sol = birch_point(stoichiometric_subspace(net), x0, alpha, tol=1e-12)
    assert sol.residual <= 1e-12


coefficient = st.fractions(min_value=0, max_value=4, max_denominator=4)
rate = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@st.composite
def networks(draw):
    n = draw(st.integers(1, 4))
    side = st.tuples(*[coefficient] * n).map(Complex)
    reactions = draw(st.lists(st.tuples(side, side).map(lambda p: Reaction(*p)),
                              min_size=1, max_size=5))
    complexes = []
    for r in reactions:
        for c in (r.source, r.target):
            if c not in complexes:
                complexes.append(c)
    species = tuple(Species(f"S{i}", i) for i in range(n))
    net = ReactionNetwork(species, tuple(complexes), tuple(reactions))
    intervals = draw(st.none() | st.lists(
        st.tuples(rate, rate).map(sorted).map(tuple),
        min_size=len(reactions), max_size=len(reactions)))
    return net, None if intervals is None else Tempering(tuple(intervals))


@PROPERTY
@given(networks())
def test_parse_inverts_serialize(net_and_tempering):
    net, tempering = net_and_tempering
    assert parse_network(serialize_network(net, tempering)) == (net, tempering)


# network-file tokens, among them rate as a name, a zero denominator and
# scientific notation, with blanks, comments and line breaks
file_token = st.sampled_from(["A", "S1", "rate", "species", "0", "2", "1/2", "3/0", "0.25",
                              "1e3", "->", "<->", "+", "*", "[", "]", ",", ":", "#",
                              " ", "  ", "\n"])


@st.composite
def spliced_files(draw):
    """A serialized network with up to three tokens spliced in anywhere."""
    text = serialize_network(*draw(networks()))
    at = draw(st.integers(0, len(text)))
    return text[:at] + "".join(draw(st.lists(file_token, max_size=3))) + text[at:]


@PROPERTY
@given(spliced_files() | st.lists(file_token, max_size=30).map("".join))
def test_parser_returns_a_network_or_locates_its_error(text):
    try:
        parse_network(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


@PROPERTY
@given(networks(), st.integers(0, 2**16))
def test_sampler_witnesses_replay_as_violations(net_and_tempering, seed):
    net, _ = net_and_tempering
    sampled = sample_classify(net, n_samples=2000, seed=seed)
    w = sampled["endo_witness"]
    assert sampled["endotactic"] is (w is None)
    if w is not None:
        assert not is_w_endotactic(net, w)[0]
    w = sampled["strong_witness"]
    assert sampled["strongly_endotactic"] is (w is None)
    if w is not None:
        # some reaction vector is not orthogonal to w, and no reaction from a
        # source of maximal height along w points down
        heights = [dot(w, r.source.coeffs) for r in net.reactions]
        comps = [dot(w, r.flux) for r in net.reactions]
        assert any(c != 0 for c in comps)
        assert not any(c < 0 and h == max(heights) for c, h in zip(comps, heights))


@PROPERTY
@given(networks(), st.data())
def test_pulls_sum_to_the_rhs_along_the_ray(net_and_tempering, data):
    # sum_r k_r pull(r, w, theta) = <w, f(theta**w)>: theta**w has monomials
    # theta**<w, y_r>
    net, _ = net_and_tempering
    n, m = net.n_species, net.n_reactions
    w = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    theta = data.draw(st.floats(1.01, 10))
    k = np.array(data.draw(st.lists(st.floats(0.25, 4), min_size=m, max_size=m)))
    terms = [kr * pull(r, w, theta) for kr, r in zip(k, net.reactions)]
    rhs = float(w @ mass_action_rhs(net, k, theta ** w))
    assert sum(terms) == pytest.approx(rhs, rel=1e-9, abs=1e-12 * (1 + sum(map(abs, terms))))
