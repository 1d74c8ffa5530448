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
    ArrangementFace,
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
    """The arrangement's faces (LimitExceeded past the hyperplane limit),
    with both per-direction predicates evaluated from a face's sign vector
    alone (no rational arithmetic per face)."""

    def __init__(self, net: ReactionNetwork, limit: int | None):
        self.sources = _distinct_sources(net)
        m = len(self.sources)
        self.src_of = [self.sources.index(tuple(r.source.coeffs)) for r in net.reactions]
        self.nr = net.n_reactions
        self.pair_pos = {}
        for k, (i, j) in enumerate(itertools.combinations(range(m), 2)):
            self.pair_pos[(i, j)] = self.nr + k
        self.faces = enumerate_faces(arrangement_normals(net), limit=limit)

    def _cmp(self, signs, a: int, b: int) -> int:
        # sign of <w, source_a - source_b>
        if a == b:
            return 0
        if a < b:
            return signs[self.pair_pos[(a, b)]]
        return -signs[self.pair_pos[(b, a)]]

    def _argmax(self, signs, subset) -> set[int]:
        best = [subset[0]]
        for e in subset[1:]:
            c = self._cmp(signs, best[0], e)
            if c == 0:
                best.append(e)
            elif c < 0:
                best = [e]
        return set(best)

    def w_endotactic(self, signs) -> bool:
        essential = [r for r in range(self.nr) if signs[r] != 0]
        if not essential:
            return True
        supp = self._argmax(signs, sorted({self.src_of[r] for r in essential}))
        return not any(signs[r] > 0 and self.src_of[r] in supp for r in essential)

    def in_Hperp(self, signs) -> bool:
        return all(signs[r] == 0 for r in range(self.nr))

    def strong_condition(self, signs) -> bool:
        # exempt for w orthogonal to every reaction vector
        if self.in_Hperp(signs):
            return True
        top = self._argmax(signs, list(range(len(self.sources))))
        return any(signs[r] < 0 and self.src_of[r] in top for r in range(self.nr))


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
    endo_bad: list[RationalVector] = []
    strong_bad: list[RationalVector] = []
    for f in arr.faces:
        if not arr.w_endotactic(f.signs):
            endo_bad.append(vec(primitive(f.representative)))
        elif not arr.strong_condition(f.signs):
            strong_bad.append(vec(primitive(f.representative)))
    return arr, min(endo_bad, default=None), min(strong_bad, default=None)


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
    cx_index = {c.coeffs: i for i, c in enumerate(net.complexes)}
    class_of = {m: set(members) for members in linkage.classes for m in members}
    for f in arr.faces:
        top = arr._argmax(f.signs, list(range(len(arr.sources))))
        top_cx = {cx_index[arr.sources[i]] for i in top}
        # a union of linkage classes holds the whole class of each member
        is_union = all(class_of[i] <= top_cx for i in top_cx)
        if is_union and not arr.in_Hperp(f.signs):
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
    P = W @ F.T  # <w, flux_r>
    Q = W @ S.T  # <w, source_r>
    ess = P != 0
    has_ess = np.any(ess, axis=1)
    low = np.iinfo(np.int64).min
    supp_val = np.where(ess, Q, low).max(axis=1)
    viol_endo = np.any((Q == supp_val[:, None]) & ess & (P > 0), axis=1)
    top_val = Q.max(axis=1) if Q.shape[1] else np.zeros(len(W), dtype=np.int64)
    sustaining_top = np.any((Q == top_val[:, None]) & (P < 0), axis=1)
    viol_strong = has_ess & ~sustaining_top
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
