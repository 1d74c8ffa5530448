"""Exact deciders for w-endotactic, endotactic, and strongly endotactic
networks, with rational witness directions, weak-reversibility fast paths,
and a randomized falsification oracle.

The quantifier "for every direction w" is reduced to finitely many faces of
the central hyperplane arrangement whose normals are the reaction vectors
and the differences of distinct reactant complexes: both defining
predicates depend only on the signs of <w, flux_r> and <w, y_i - y_j>, so
they are constant on each face and it suffices to check one exact
representative per face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import (
    LimitExceeded,
    RationalVector,
    dot,
    enumerate_faces,
    is_zero,
    max_subset,
    primitive,
    vec,
    vsub,
)
from .network import (
    Reaction,
    ReactionNetwork,
    linkage_classes,
    stoichiometric_subspace,
)


@dataclass(frozen=True)
class ClassificationReport:
    weakly_reversible: bool
    endotactic: bool
    strongly_endotactic: bool
    witness: RationalVector | None
    fast_path: str | None
    face_count: int
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "weakly_reversible": self.weakly_reversible,
            "endotactic": self.endotactic,
            "strongly_endotactic": self.strongly_endotactic,
            "witness": None if self.witness is None else [str(x) for x in self.witness],
            "fast_path": self.fast_path,
            "face_count": self.face_count,
            "inconclusive": self.inconclusive,
        }


def is_w_endotactic(net: ReactionNetwork, w) -> tuple[bool, Reaction | None]:
    """Decide the endotactic condition in the single direction w (exact).

    The w-essential reactions R_w are those whose reaction vector is not
    orthogonal to w; the condition requires <w, flux> < 0 for every
    w-essential reaction whose source is maximal (along w) among the
    sources of R_w.  Vacuously true when R_w is empty.

    Returns:
        (True, None) or (False, violating_reaction).

    Raises:
        ValueError: w is zero.
    """
    w = vec(w)
    if is_zero(w):
        raise ValueError("direction w must be nonzero")
    essential = [r for r in net.reactions if dot(w, r.flux) != 0]
    if not essential:
        return True, None
    supp = set(max_subset([r.source.coeffs for r in essential], w))
    for r in essential:
        if tuple(r.source.coeffs) in supp and dot(w, r.flux) > 0:
            return False, r
    return True, None


# ---------------------------------------------------------------------------
# arrangement reduction


def arrangement_normals(net: ReactionNetwork) -> list[RationalVector]:
    """Normals whose sign pattern determines both deciders: all reaction
    vectors, then all differences of distinct source complexes."""
    normals = [r.flux for r in net.reactions]
    distinct = _distinct_sources(net)
    for a, b in itertools.combinations(distinct, 2):
        normals.append(vsub(a, b))
    return normals


def _distinct_sources(net: ReactionNetwork) -> list[RationalVector]:
    out: list[RationalVector] = []
    for r in net.reactions:
        c = tuple(r.source.coeffs)
        if c not in out:
            out.append(c)
    return out


class _Arrangement:
    """The arrangement's faces (LimitExceeded past the hyperplane limit) and
    what _conditions finds on each, read from the sign vectors alone: the
    flux signs, and each reaction's source rank (how many distinct sources
    lie strictly below it along the face), which orders the sources as
    <w, y> does.  No rational arithmetic runs per face."""

    def __init__(self, net: ReactionNetwork, limit: int | None):
        sources = _distinct_sources(net)
        self.faces = enumerate_faces(arrangement_normals(net), limit=limit)
        signs = np.array([f.signs for f in self.faces], dtype=np.int64)
        self.flux_signs = signs[:, :net.n_reactions]
        pair_signs = signs[:, net.n_reactions:]  # sign <w, y_i - y_j> for i < j
        i, j = np.array(list(itertools.combinations(range(len(sources)), 2)),
                        dtype=np.intp).reshape(-1, 2).T
        eye = np.eye(len(sources), dtype=np.int64)
        rank = (pair_signs > 0) @ eye[i] + (pair_signs < 0) @ eye[j]
        src_of = [sources.index(tuple(r.source.coeffs)) for r in net.reactions]
        self.endo_fail, self.strong_fail, self.top = _conditions(
            self.flux_signs, rank[:, src_of])


def _conditions(P: np.ndarray, Q: np.ndarray):
    """Per direction w (a row), whether the endotactic and the strong
    condition fail, and which reactions have a maximal source.  Column r
    needs only the sign of <w, flux_r> in P and the order of <w, y_r> within
    the row in Q, so any ordered dtype serves."""
    ess = P != 0
    floor = Q.min(initial=0)  # at most every entry
    supp = np.where(ess, Q, floor).max(axis=1, initial=floor)
    endo_fail = np.any(ess & (P > 0) & (Q == supp[:, None]), axis=1)
    top = Q == Q.max(axis=1, initial=floor)[:, None]
    strong_fail = np.any(ess, axis=1) & ~np.any(top & (P < 0), axis=1)
    return endo_fail, strong_fail, top


def _verdicts(net: ReactionNetwork, limit: int | None, sample_fallback: bool, seed: int):
    """(arrangement, endotactic witness, strong witness), a witness None
    when its condition holds: exact from one face enumeration or, past the
    hyperplane limit with sample_fallback, sampled (arrangement None)."""
    try:
        arr = _Arrangement(net, limit)
    except LimitExceeded:
        if not sample_fallback:
            raise
        res = sample_classify(net, seed=seed)
        return None, res["endo_witness"], res["strong_witness"]

    def least(mask):
        return min((arr.faces[i].representative for i in np.flatnonzero(mask)),
                   default=None)

    return arr, least(arr.endo_fail), least(arr.strong_fail & ~arr.endo_fail)


def is_endotactic(net: ReactionNetwork, limit: int | None = None,
                  sample_fallback: bool = False, seed: int = 0):
    """Decide whether the network is endotactic in every direction.

    Returns:
        (flag, witness) -- witness is an exact direction falsifying the
        condition when the flag is False.

    Raises:
        LimitExceeded: too many hyperplanes and sample_fallback is False.
        With sample_fallback=True the verdict comes from the random
        sampler instead and can only be trusted when False.
    """
    _, endo_wit, _ = _verdicts(net, limit, sample_fallback, seed)
    return endo_wit is None, endo_wit


def is_strongly_endotactic(net: ReactionNetwork, limit: int | None = None,
                           sample_fallback: bool = False, seed: int = 0):
    """Decide the strongly endotactic property.

    On top of the endotactic condition, every face representative w not
    orthogonal to the stoichiometric subspace must admit a reaction with
    <w, flux> < 0 whose source is maximal along w among all sources.

    Returns / Raises: as is_endotactic.
    """
    _, endo_wit, strong_wit = _verdicts(net, limit, sample_fallback, seed)
    witness = endo_wit or strong_wit
    return witness is None, witness


def _fast_path(net: ReactionNetwork, linkage, arrangement) -> str | None:
    """The first fast-path rule that fires (see fast_paths).  arrangement()
    gives the _Arrangement, or None past the hyperplane limit; it is called
    only when the face rule is reached."""
    if not linkage.weakly_reversible or not net.reactions:
        return None
    if len(linkage.classes) == 1:
        return "single_linkage_class"
    stoich = stoichiometric_subspace(net)
    if all(len(basis) == stoich.dimension for basis in linkage.class_subspaces):
        return "equal_class_subspaces"
    arr = arrangement()
    if arr is None:
        return None
    # per face and linkage class, how many members have a maximal source
    cx_index = {c.coeffs: i for i, c in enumerate(net.complexes)}
    top_cx = np.zeros((len(arr.faces), len(net.complexes)), dtype=bool)
    top_cx[:, [cx_index[r.source.coeffs] for r in net.reactions]] = arr.top
    counts = [top_cx[:, members].sum(axis=1) for members in linkage.classes]
    # a union of linkage classes holds the whole class of each member
    is_union = np.all([(c == 0) | (c == len(members))
                       for c, members in zip(counts, linkage.classes)], axis=0)
    if np.any(is_union & np.any(arr.flux_signs != 0, axis=1)):
        return None
    return "initial_support_criterion"


def fast_paths(net: ReactionNetwork, limit: int | None = None) -> str | None:
    """Sufficient conditions for strong endotacticity via weak reversibility.

    Tried in order, returning the first rule that fires:

    - "single_linkage_class": weakly reversible with one linkage class;
    - "equal_class_subspaces": weakly reversible and every linkage class has
      the full stoichiometric subspace;
    - "initial_support_criterion": weakly reversible and, on every
      arrangement face, directions whose maximal-reactant set is a union of
      linkage classes are orthogonal to the stoichiometric subspace.

    All three are sufficient only; None means no verdict, not a refutation.
    """
    def arrangement():
        try:
            return _Arrangement(net, limit)
        except LimitExceeded:
            return None

    return _fast_path(net, linkage_classes(net), arrangement)


def classify(net: ReactionNetwork, limit: int | None = None,
             sample_fallback: bool = False, seed: int = 0) -> ClassificationReport:
    """Full classification with witness, fast-path rule, and face count.

    Fast-path verdicts are cross-checked against the general decider
    whenever the arrangement is within limits; a disagreement raises
    AssertionError (it would mean a bug, not a property of the network).
    Past the limit with sample_fallback, a fast-path rule decides both
    classes and otherwise the sampler does (reported as inconclusive).

    Raises:
        LimitExceeded: arrangement too large and sample_fallback is False.
    """
    linkage = linkage_classes(net)
    arr, endo_wit, strong_wit = _verdicts(net, limit, sample_fallback, seed)
    rule = _fast_path(net, linkage, lambda: arr)
    endo = endo_wit is None
    strong = endo and strong_wit is None
    if rule is not None:
        if arr is not None and not strong:
            raise AssertionError(f"fast path {rule} contradicts the general decider")
        endo = strong = True
    return ClassificationReport(
        weakly_reversible=linkage.weakly_reversible,
        endotactic=endo,
        strongly_endotactic=strong,
        witness=endo_wit or strong_wit,
        fast_path=rule,
        face_count=0 if arr is None else len(arr.faces),
        inconclusive=arr is None and rule is None,
    )


# ---------------------------------------------------------------------------
# randomized falsification oracle


def _integer_scaled(vectors: list[RationalVector]) -> np.ndarray:
    if not vectors:
        return np.zeros((0, 0), dtype=np.int64)
    lcm = 1
    for v in vectors:
        for x in v:
            lcm = math.lcm(lcm, Fraction(x).denominator)
    return np.array([[int(Fraction(x) * lcm) for x in v] for v in vectors], dtype=np.int64)


def sample_classify(net: ReactionNetwork, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Probe the endotactic and strong conditions with random integer
    directions and exact integer arithmetic.

    A returned False is a proof (the witness direction falsifies the
    property); a returned True only means no counterexample was sampled.
    """
    rng = np.random.default_rng(seed)
    n = net.n_species
    F = _integer_scaled([r.flux for r in net.reactions])  # R x n
    S = _integer_scaled([r.source.coeffs for r in net.reactions])
    half = n_samples // 2
    W = np.vstack(
        [
            rng.integers(-9, 10, size=(half, n)),
            rng.integers(-60, 61, size=(n_samples - half, n)),
        ]
    ).astype(np.int64)
    W = W[np.any(W != 0, axis=1)]
    viol_endo, viol_strong, _ = _conditions(W @ F.T, W @ S.T)
    endo_idx = np.nonzero(viol_endo)[0]
    strong_idx = np.nonzero(viol_strong)[0]
    endo_w = vec(primitive(W[endo_idx[0]])) if len(endo_idx) else None
    strong_w = vec(primitive(W[strong_idx[0]])) if len(strong_idx) else None
    return {
        "endotactic": endo_w is None,
        "endo_witness": endo_w,
        "strongly_endotactic": strong_w is None,
        "strong_witness": strong_w,
    }
