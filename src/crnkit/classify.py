"""Exact deciders for w-endotactic, endotactic, and strongly endotactic
networks, with integer witness directions, weak-reversibility fast paths,
and a randomized falsification oracle.

The quantifier "for every direction w" is reduced to finitely many faces of
the central hyperplane arrangement whose normals are the reaction vectors
and the differences of distinct reactant complexes: both defining
predicates depend only on the signs of <w, flux_r> and <w, y_i - y_j>, so
they are constant on each face and it suffices to check one exact
representative per face.  The faces come from geometry.enumerate_faces
as integer arrays, once per call; _Arrangement reads verdicts off the rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import LimitExceeded, _int_dtype, enumerate_faces, primitive, vec
from .network import (
    Reaction,
    ReactionNetwork,
    _seed_of,
    linkage_classes,
    stoichiometric_subspace,
)


@dataclass(frozen=True)
class ClassificationReport:
    weakly_reversible: bool
    endotactic: bool
    strongly_endotactic: bool
    witness: tuple[int, ...] | None
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
        ValueError: w not one entry per species, or zero.
    """
    w = primitive(vec(w))  # a positive multiple: every sign and order is kept
    if len(w) != net.n_species:
        raise ValueError(f"direction w must have {net.n_species} entries, got {len(w)}")
    if not any(w):
        raise ValueError("direction w must be nonzero")
    bound = max(map(abs, w))
    S, F = _integer_rows(net, bound)
    W = np.array([w], dtype=_int_dtype(bound))
    endo_viol, _, _ = _conditions(F @ W.T, S @ W.T)
    violating = np.flatnonzero(endo_viol[:, 0])
    return (False, net.reactions[violating[0]]) if len(violating) else (True, None)


# ---------------------------------------------------------------------------
# arrangement reduction


def arrangement_normals(net: ReactionNetwork) -> list[tuple[int, ...]]:
    """Normals whose sign pattern determines both deciders, as integer
    tuples: all reaction vectors, then all differences of distinct source
    complexes (in order of first appearance), each a positive multiple of
    the rational vector."""
    _, _, fluxes, distinct = net._exact
    return [*fluxes, *(tuple(x - y for x, y in zip(a, b))
                       for a, b in itertools.combinations(distinct, 2))]


class _Arrangement:
    """The arrangement's faces as arrays (LimitExceeded past
    CRN_MAX_HYPERPLANES): sign rows and representatives, in enumerate_faces's
    order, and what _conditions finds on each: the flux signs from the sign
    rows, and the source heights <w, y> at each face's representative w,
    which lies inside the face and so orders the sources as its pair signs
    do.  top, like signs, has a row per face."""

    def __init__(self, net: ReactionNetwork):
        faces = enumerate_faces(arrangement_normals(net))
        self.signs, self.reps = faces.signs, faces.representatives
        self.flux_signs = self.signs[:, :net.n_reactions]
        S, _ = _integer_rows(net, int(np.abs(self.reps).max()))
        # without reactions the one face's placeholder representative has
        # no sources to order (and not n entries)
        heights = S @ self.reps.T if net.reactions else np.zeros((0, len(self.reps)), np.int64)
        endo_viol, self.strong_fail, top = _conditions(self.flux_signs.T, heights)
        self.endo_fail, self.top = endo_viol.any(axis=0), top.T

    def least(self, mask) -> tuple[int, ...] | None:
        """The lexicographically least representative among the rows in
        mask (None if there is none): the rows tied on every column so far
        are narrowed to the minimum of the next."""
        rows = np.flatnonzero(mask)
        if not len(rows):
            return None
        for column in self.reps.T:
            rows = rows[column[rows] == column[rows].min()]
        return tuple(self.reps[rows[0]].tolist())


def _integer_rows(net: ReactionNetwork, w_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, F): the source rows and the reaction vectors of net._exact as
    (R, n) integer matrices, (0, n) without reactions; S @ W.T and F @ W.T
    are every <w, y_r> and <w, flux_r> of the direction rows W, exactly (a
    positive multiple each, so every sign and order is kept).  Each matrix
    is int64 when w_bound, a bound on every |w_i|, times its largest row l1
    norm is below 2**63, and Python ints otherwise (geometry._int_dtype)."""
    def matrix(rows):
        norm = max((sum(map(abs, r)) for r in rows), default=0)
        return np.array(rows, dtype=_int_dtype(w_bound * norm)).reshape(len(rows), net.n_species)
    return tuple(map(matrix, net._exact[1:3]))


def _conditions(P: np.ndarray, Q: np.ndarray):
    """Per direction w (a column; a row per reaction): which reactions
    violate the endotactic condition (a w-essential reaction with a maximal
    source among the w-essential ones and <w, flux> > 0), whether the
    strong condition fails, and which reactions have a maximal source.
    Entry (r, w) needs only the sign of <w, flux_r> in P and the order of
    <w, y_r> within the column in Q, so any ordered dtype serves.  Every
    per-direction reduction runs over axis 0, so it is R - 1 elementwise
    operations on whole rows, whatever the number of directions."""
    ess = P != 0
    floor = Q.min(initial=0)  # at most every entry
    supp = np.where(ess, Q, floor).max(axis=0, initial=floor)
    endo_viol = ess & (P > 0) & (Q == supp)
    top = Q == Q.max(axis=0, initial=floor)
    strong_fail = ess.any(axis=0) & ~(top & (P < 0)).any(axis=0)
    return endo_viol, strong_fail, top


def _arrangement(net: ReactionNetwork, required: bool) -> _Arrangement | None:
    """The network's _Arrangement, the one place it is built; past
    CRN_MAX_HYPERPLANES, None, or LimitExceeded when it is required."""
    try:
        return _Arrangement(net)
    except LimitExceeded:
        if required:
            raise
        return None


def _verdicts(net: ReactionNetwork, sample_fallback: bool = False, seed: int = 0):
    """(arrangement, endotactic witness, strong witness), a witness None
    when its condition holds: exact from one face enumeration or, past the
    hyperplane cap with sample_fallback, sampled (arrangement None)."""
    arr = _arrangement(net, required=not sample_fallback)
    if arr is None:
        res = sample_classify(net, seed=seed)
        return None, res["endo_witness"], res["strong_witness"]
    return arr, arr.least(arr.endo_fail), arr.least(arr.strong_fail & ~arr.endo_fail)


def is_endotactic(net: ReactionNetwork):
    """Decide exactly whether the network is endotactic in every direction.

    Returns:
        (flag, witness) -- witness is an exact direction falsifying the
        condition when the flag is False.

    Raises:
        LimitExceeded: more distinct hyperplanes than CRN_MAX_HYPERPLANES
            (classify with sample_fallback=True gives a sampled verdict).
    """
    _, endo_wit, _ = _verdicts(net)
    return endo_wit is None, endo_wit


def is_strongly_endotactic(net: ReactionNetwork):
    """Decide exactly the strongly endotactic property.

    On top of the endotactic condition, every face representative w not
    orthogonal to the stoichiometric subspace must admit a reaction with
    <w, flux> < 0 whose source is maximal along w among all sources.

    Returns / Raises: as is_endotactic.
    """
    _, endo_wit, strong_wit = _verdicts(net)
    witness = endo_wit or strong_wit
    return witness is None, witness


def _fast_path(net: ReactionNetwork, linkage, arrangement) -> str | None:
    """The first fast-path rule that fires (see fast_paths).  arrangement()
    gives the _Arrangement, or None past the hyperplane cap; it is called
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
    top_cx = np.zeros((len(arr.signs), len(net.complexes)), dtype=bool)
    top_cx[:, [a for a, _ in net._exact[0]]] = arr.top
    counts = [top_cx[:, members].sum(axis=1) for members in linkage.classes]
    # a union of linkage classes holds the whole class of each member
    is_union = np.all([(c == 0) | (c == len(members))
                       for c, members in zip(counts, linkage.classes)], axis=0)
    if np.any(is_union & np.any(arr.flux_signs != 0, axis=1)):
        return None
    return "initial_support_criterion"


def fast_paths(net: ReactionNetwork) -> str | None:
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
    return _fast_path(net, linkage_classes(net), lambda: _arrangement(net, required=False))


def classify(net: ReactionNetwork, sample_fallback: bool = False,
             seed: int = 0) -> ClassificationReport:
    """Full classification with witness, fast-path rule, and face count.

    Fast-path verdicts are cross-checked against the general decider
    whenever the arrangement is within CRN_MAX_HYPERPLANES; a disagreement
    raises AssertionError (it would mean a bug, not a property of the
    network).  Past the cap with sample_fallback, the one way into the
    sampler, a fast-path rule decides both classes and otherwise
    sample_classify(net, seed=seed) does (reported as inconclusive).

    Raises:
        LimitExceeded: arrangement too large and sample_fallback is False.
        ValueError: seed not a nonnegative integer.
    """
    seed = _seed_of(seed)
    linkage = linkage_classes(net)
    arr, endo_wit, strong_wit = _verdicts(net, sample_fallback, seed)
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
        face_count=0 if arr is None else len(arr.signs),
        inconclusive=arr is None and rule is None,
    )


# ---------------------------------------------------------------------------
# randomized falsification oracle


# sampled directions have integer entries in [-_W_MAX, _W_MAX]
_W_MAX = 60
# most sampled directions drawn and tested at once, so memory stays one
# block whatever n_samples is
_BLOCK_ROWS = 4096
# most directions one call may sample: time grows linearly with n_samples
# (about 0.04 s per million on the 2-species reverse_lv and 0.07 s on the
# 6-reaction prism; 2 cores, Python 3.11.7, numpy 2.4.6), so the cap bounds it
_MAX_SAMPLES = 1_000_000


def sample_classify(net: ReactionNetwork, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Probe the endotactic and strong conditions with random integer
    directions and exact integer arithmetic.

    The directions are n_samples // 2 draws from [-9, 9]^n, then the rest
    from [-60, 60]^n.  They are drawn and tested in blocks of 64 rows,
    growing fourfold up to 4,096, and drawing stops once both conditions
    have a witness; blocked draws are the numbers one draw of all would
    give, so each witness is the first violating direction of the whole
    sequence, as if every direction were drawn and tested.  A zero
    direction violates neither condition.

    A returned False is a proof (the witness direction falsifies the
    property); a returned True only means no counterexample was sampled.

    Raises:
        ValueError: n_samples is negative or above 1,000,000; seed not a
        nonnegative integer.
    """
    seed = _seed_of(seed)
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if n_samples > _MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {_MAX_SAMPLES}, got {n_samples}")
    rng = np.random.default_rng(seed)
    n = net.n_species
    S, F = _integer_rows(net, _W_MAX)
    half = n_samples // 2
    endo_w = strong_w = None
    for bound, left in ((9, half), (_W_MAX, n_samples - half)):
        rows = 64
        while left and (endo_w is None or strong_w is None):
            W = rng.integers(-bound, bound + 1, size=(min(rows, left), n))
            left -= len(W)
            rows = min(4 * rows, _BLOCK_ROWS)
            viol_endo, viol_strong, _ = _conditions(F @ W.T, S @ W.T)
            viol_endo = viol_endo.any(axis=0)
            if endo_w is None and viol_endo.any():
                endo_w = primitive(W[viol_endo.argmax()].tolist())
            if strong_w is None and viol_strong.any():
                strong_w = primitive(W[viol_strong.argmax()].tolist())
    return {
        "endotactic": endo_w is None,
        "endo_witness": endo_w,
        "strongly_endotactic": strong_w is None,
        "strong_witness": strong_w,
    }
