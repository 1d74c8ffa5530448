"""Jet-frame diagnostics: pulls along toric rays, reaction levels
(sustaining / draining / inessential), the fundamental argmax-stabilization
check, domination monitoring for draining reactions, the worst-case
sum-of-pulls cutoff scan, and unit-jet extraction from direction sequences.

All quantities here are floating point, except the scan's zero-margin
faces (the sign rows of classify's _Arrangement, joined into clusters by
geometry's face incidence) and the integer test that picks a float
direction's dominant tier; the argmax stabilization is cross-checked in the
tests against the exact iterated maximal subsets of geometry.super_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .birch import _MAX_DIRECTION_SAMPLES, _in_band
from .classify import _Arrangement, _arrangement
from .geometry import _components, primitive
from .network import (
    ReactionNetwork,
    Reaction,
    Tempering,
    _floats,
    _in_float_range,
    _positive,
    _seed_of,
    _tempering_of,
    stoichiometric_subspace,
)
from .dynamics import _rowdot

# |<w_j, flux>| up to _LEVEL_TOL counts as zero at frame level j; _TIE_TOL
# scales the float argmax's ties (_ties)
_LEVEL_TOL = 1e-10
_TIE_TOL = 1e-9
_MAX_THETA_POINTS = 1_000  # cutoff_scan's grid thetas, at most (20x the CLI's 50)
# extract_unit_jet: residuals and coefficients up to _ZERO_TOL count as zero,
# and every level needs _MIN_PER_LEVEL usable indices
_ZERO_TOL = 1e-9
_MIN_PER_LEVEL = 5


@dataclass(frozen=True)
class Frame:
    """Mutually orthogonal unit vectors w_1..w_l (checked to 1e-12)."""

    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        V = np.array(self.vectors)
        G = V @ V.T
        if not np.max(np.abs(G - np.eye(len(V)))) <= 1e-12:  # nan fails too
            raise ValueError("frame vectors must be orthonormal to 1e-12")

    def __len__(self):
        return len(self.vectors)

    @property
    def w1(self) -> np.ndarray:
        return np.array(self.vectors[0])


# a norm past the float range reads inf: the direction is first divided by
# its largest |entry|; one that is not finite stays nan, which the Frame
# check rejects
@np.errstate(over="ignore", invalid="ignore")
def make_frame(*vectors) -> Frame:
    """Normalize, orthogonalize (stably), and wrap the given directions."""
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        for u in out:
            v = v - (v @ u) * u
        nrm = np.linalg.norm(v)
        if np.isinf(nrm):
            v = v / np.abs(v).max()
            nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValueError("frame directions are linearly dependent")
        out.append(v / nrm)
    return Frame(tuple(tuple(float(x) for x in v) for v in out))


@dataclass(frozen=True)
class JetSchedule:
    """Coefficient and theta schedules for building unit jets.

    beta_kind "power" is the default hierarchy beta_j(i) = i**(-(j-1));
    "decaying" is the stress schedule beta_j(i) = exp(-(j-1) i^2) whose
    theta(i)**beta_2(i) stays bounded.  theta_kind "exp" is log theta(i) =
    i; "slow" is log theta(i) = log(1 + 1/i).
    """

    beta_kind: str = "power"
    theta_kind: str = "exp"

    def __post_init__(self):
        if self.beta_kind not in ("power", "decaying"):
            raise ValueError(f"unknown beta schedule {self.beta_kind!r}")
        if self.theta_kind not in ("exp", "slow"):
            raise ValueError(f"unknown theta schedule {self.theta_kind!r}")

    def beta(self, j: int, i: float) -> float:
        if self.beta_kind == "power":
            return float(i) ** (-(j - 1))
        # 0.0 for j > 1 from i = 28 on: capping i keeps i^2 finite
        return math.exp(-(j - 1) * min(float(i), 1e10) ** 2)

    def log_theta(self, i: float) -> float:
        if self.theta_kind == "exp":
            return float(i)
        return math.log1p(1.0 / float(i))

    def coefficients(self, i: float, ell: int) -> np.ndarray:
        return np.array([self.beta(j, i) for j in range(1, ell + 1)])

    def direction(self, frame: Frame, i: float) -> np.ndarray:
        """The unit vector w(i) = normalize(sum beta_j(i) w_j)."""
        V = np.array(frame.vectors)
        v = self.coefficients(i, len(frame)) @ V
        return v / np.linalg.norm(v)


@dataclass(frozen=True)
class ReactionJetClass:
    kind: str  # "inessential" | "sustaining" | "draining"
    level: int | None


def pull(reaction: Reaction, w, theta: float) -> float:
    """<w, target - source> * theta ** <w, source>, theta > 1."""
    if theta <= 1:
        raise ValueError(f"theta must exceed 1, got {theta}")
    w = np.asarray(w, dtype=float)
    flux = _floats(reaction.flux, "a stoichiometric coefficient")
    src = _floats(reaction.source.coeffs, "a stoichiometric coefficient")
    return float((w @ flux) * theta ** (w @ src))


def level_and_type(reaction: Reaction, frame: Frame) -> ReactionJetClass:
    """Least frame level whose inner product with the reaction vector is
    nonzero decides the class: negative = sustaining, positive = draining,
    all zero = inessential."""
    return _level_and_type(_floats(reaction.flux, "a stoichiometric coefficient"), frame)


def _level_and_type(flux: np.ndarray, frame: Frame) -> ReactionJetClass:
    for j, w in enumerate(frame.vectors, start=1):
        d = float(np.asarray(w) @ flux)
        if abs(d) > _LEVEL_TOL:
            return ReactionJetClass("sustaining" if d < 0 else "draining", j)
    return ReactionJetClass("inessential", None)


def jets_fundamental_check(Q, frame: Frame, schedule: JetSchedule, i_range) -> dict:
    """Check that the argmax of <w(i), .> over Q stabilizes to the iterated
    maximal subset along the frame.

    Returns a report with the expected index set, the per-i argmax sets,
    and stabilized_at: the first i from which on every argmax equals the
    expectation, found in one backward scan (None if the last one differs).
    """
    V = np.array([[float(x) for x in q] for q in Q])
    if not len(V):
        raise ValueError("empty point set")
    expected = np.arange(len(V))
    for w in frame.vectors:
        expected = expected[_ties(_rowdot(V[expected], np.array(w)))]
    expected = set(expected.tolist())
    argmax_sets = []
    for i in i_range:
        # unnormalized combination: positive scaling never moves an argmax
        v = schedule.coefficients(i, len(frame)) @ np.array(frame.vectors)
        argmax_sets.append((i, set(_ties(V @ v).tolist())))
    stabilized_at = None
    for i, s in reversed(argmax_sets):
        if s != expected:
            break
        stabilized_at = i
    return {
        "expected": sorted(expected),
        "argmax_sets": [(i, sorted(s)) for i, s in argmax_sets],
        "stabilized_at": stabilized_at,
        "stabilized": stabilized_at is not None,
    }


def _ties(vals: np.ndarray) -> np.ndarray:
    """Indices of the values within _TIE_TOL * max(1, largest |value|) of the
    maximum: the float argmax, ties included."""
    return np.flatnonzero(vals.max() - vals <= _TIE_TOL * max(1.0, np.abs(vals).max()))


def _pull_terms(net: ReactionNetwork, tempering: Tempering, W):
    """The pull data of every direction row of W, each (directions x
    reactions): heights <w, y_r>, coefficients <w, flux_r>, and the
    tempering's worst-case rates (hi where the coefficient is positive, lo
    elsewhere) for a tempering from _tempering_of.  Each entry is the 1-D
    dot product a single direction would give."""
    W = np.asarray(W, dtype=float)[:, None, :]
    heights = _rowdot(W, net.source_matrix())
    coeffs = _rowdot(W, net.flux_matrix())
    return heights, coeffs, np.where(coeffs > 0, tempering.highs(), tempering.lows())


def _index_grid(i_max: float = 5000.0) -> np.ndarray:
    """domination_monitor's indices: 60 geometric steps from 1 to i_max, rounded, once each."""
    with np.errstate(over="ignore"):  # geomspace overflows inside near the float max
        return np.unique(np.rint(np.geomspace(1, i_max, 60)))


def domination_monitor(net: ReactionNetwork, frame: Frame, schedule: JetSchedule,
                       i_range=None, threshold: float = 1e3) -> dict:
    """For every draining reaction, look for a sustaining reaction whose
    pull outgrows it along the jet w(i), theta(i).

    Ratios are tracked in log10; a draining reaction counts as dominated
    when its best ratio is strictly increasing over the last decade of the
    index range and ends above the threshold.  This is finite-range
    evidence, not a proof; without a sustaining reaction there is no
    partner.  When w_1 is orthogonal to the stoichiometric subspace a
    warning is attached (domination can legitimately fail there).

    Raises:
        ValueError: i_range empty, or an index below 1 or not finite; a
        threshold not positive and finite.
    """
    if i_range is None:
        i_range = _index_grid()
    i_list = [float(i) for i in i_range]
    if not i_list or not all(1 <= i < math.inf for i in i_list):
        raise ValueError(f"i_range must be nonempty, finite and at least 1, got {i_range}")
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    B = stoichiometric_subspace(net).orthonormal_H()
    w1 = frame.w1
    proj = float(np.linalg.norm(B.T @ w1))
    warning = None
    if proj < 1e-9:
        warning = (
            "w1 is orthogonal to the stoichiometric subspace; "
            "pull domination may fail along this frame"
        )
    classes = [_level_and_type(flux, frame) for flux in net.flux_matrix()]
    sustaining = [i for i, c in enumerate(classes) if c.kind == "sustaining"]
    draining = [i for i, c in enumerate(classes) if c.kind == "draining"]
    heights, coeffs, _ = _pull_terms(
        net, _tempering_of(net, None), [schedule.direction(frame, i) for i in i_list])
    log_theta = np.array([schedule.log_theta(i) for i in i_list])
    # logs[r, col] = log |pull| of reaction r at the col-th jet point, -inf
    # where the pull vanishes (kept in log space so huge thetas never overflow;
    # log thetas near the float limit still give inf or nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = (np.log(np.abs(coeffs)) + heights * log_theta[:, None]).T
    late = np.array(i_list) >= i_list[-1] / 10
    entries = []
    for d in draining:
        entry = {
            "draining": d,
            "partner": None,
            "series": [],
            "increasing_last_decade": False,
            "terminal_ratio_log10": -np.inf,
            "dominated": False,
        }
        entries.append(entry)
        if not sustaining:
            continue
        with np.errstate(invalid="ignore"):
            series = logs[sustaining] - logs[d]
        # both pulls underflowing to zero gives an indeterminate ratio;
        # record it as such rather than claiming growth
        series[np.isinf(logs[sustaining]) & np.isinf(logs[d])] = np.nan
        # the partner: the first largest determinate terminal ratio, else the
        # first sustaining reaction
        ok = np.flatnonzero(~np.isnan(series[:, -1]))
        j = ok[np.argmax(series[ok, -1])] if len(ok) else 0
        log10r = np.clip(series[j] / math.log(10), -1e300, 1e300)
        increasing = np.all(np.diff(log10r[late]) > 0)
        terminal = float(log10r[-1])
        entry.update(
            partner=sustaining[j],
            series=[[i, float(v)] for i, v in zip(i_list, log10r)],
            increasing_last_decade=bool(increasing),
            terminal_ratio_log10=terminal,
            dominated=bool(increasing and terminal > math.log10(threshold)),
        )
    return {
        "warning": warning,
        "classes": [(c.kind, c.level) for c in classes],
        "entries": entries,
        "all_dominated": all(e["dominated"] for e in entries),
        "evidence": "finite-range",
    }


# ---------------------------------------------------------------------------
# worst-case sum of pulls


def _worst_case_margin(net: ReactionNetwork, tempering: Tempering | None, W):
    """Leading-order margin of the worst-case sum of pulls as theta grows:
    over the exactly computed dominant tier (sources maximizing <w, y>),
    the largest worst-case k_r <w, flux_r>.  Negative margins mean the sum
    is eventually negative along w; zero marks the transition.

    W is a matrix of finite direction rows, one margin per row.  A row's
    tier comes from the exact heights of primitive(row), a positive integer
    multiple of the float direction, against the integer source rows.
    """
    rows = np.asarray(W, dtype=float)
    _, coeffs, k_worst = _pull_terms(net, _tempering_of(net, tempering), rows)
    heights = (np.array([primitive(w) for w in rows.tolist()], dtype=object)
               @ np.array(net._exact[1], dtype=object).T)
    tier = heights == heights.max(axis=1)[:, None]
    return np.max(np.where(tier, k_worst * coeffs, -np.inf), axis=1)


def _theta_grid(theta_max: float = 1e6, points: int = 50) -> np.ndarray:
    """cutoff_scan's grid: points thetas geometrically spaced from 1.5 to theta_max."""
    return np.geomspace(1.5, theta_max, points)


def cutoff_scan(net: ReactionNetwork, tempering: Tempering | None, x0,
                theta_grid=None, direction_samples: int = 400, seed: int = 0) -> dict:
    """Scan directions for a uniform cutoff theta beyond which the
    worst-case sum of pulls is negative, and find the transition faces.

    The sum S(w, theta) = sum_r k_r theta**<w, y_r> <w, flux_r> is linear
    in each k_r, so the tempering's worst case is exact at interval
    endpoints (hi where the pull coefficient is positive, lo where it is
    negative).  Directions are one unit row per classification-arrangement
    face, then uniform unit samples.  A (direction, theta) point is eligible
    when theta**w lies in the invariant polyhedron of x0: always without
    conservation laws; with one law <a, theta**w> = b0, at the crossing
    theta refined by bisection between grid points (the grid alone almost
    never lands on it); with two or more, within the membership band
    ||A z - b|| <= 1e-3 * (1 + ||z||) that estimate_mu uses too, which
    under-reports eligible points.

    theta_hat is the least grid theta from which on every eligible point
    is negative.  Violations that persist into the top two decades of the
    grid mean no cutoff was found in range: theta_hat None, with the
    violating directions listed.  With no eligible point at all there is
    nothing to bound: theta_hat None, no violating directions.

    near_zero_clusters, the transitions, are the connected sets of faces
    whose leading-order margin is exactly 0 (see _zero_margin_clusters), so
    they do not depend on the samples and margin_delta is 0.0.  Past the
    hyperplane limit there are no faces and no clusters.

    Raises:
        ValueError: x0 not one positive finite value per species; the
        tempering (unit rates when None) not one interval per reaction;
        theta_grid empty, above 1,000 points, or a theta at most 1 or not
        finite; direction_samples negative or above 10,000; seed not a
        nonnegative integer; no directions (no faces and no samples); a
        network with no species.
    """
    n = net.n_species
    x0 = _positive(x0, n, "x0")
    tempering = _tempering_of(net, tempering)
    if n == 0:  # no unit direction exists, so the draw below would never end
        raise ValueError("a network with no species has no direction to scan")
    if theta_grid is None:
        theta_grid = _theta_grid()
    theta_grid = np.asarray(sorted(theta_grid), dtype=float)
    if (not 0 < len(theta_grid) <= _MAX_THETA_POINTS
            or not np.all((theta_grid > 1) & np.isfinite(theta_grid))):
        raise ValueError(f"theta_grid must have 1 to {_MAX_THETA_POINTS} points, each finite "
                         f"and above 1, got {theta_grid}")
    if direction_samples < 0:
        raise ValueError(f"direction_samples must be nonnegative, got {direction_samples}")
    if direction_samples > _MAX_DIRECTION_SAMPLES:
        raise ValueError(f"direction_samples must be at most {_MAX_DIRECTION_SAMPLES}, "
                         f"got {direction_samples}")
    rng = np.random.default_rng(_seed_of(seed))
    # one draw of the rows still missing, a row of norm at most 1e-12
    # dropped and redrawn after the others: the directions of one
    # standard_normal(n) call per sample
    dirs = np.zeros((0, n))
    while len(dirs) < direction_samples:
        V = rng.standard_normal((direction_samples - len(dirs), n))
        nrm = np.sqrt(_rowdot(V, V))
        keep = nrm > 1e-12
        dirs = np.concatenate([dirs, V[keep] / nrm[keep, None]])
    arr = _arrangement(net, required=False)
    # one unit row per face: its representative v times 1/|v| truncated to
    # 53 - bit_length(max |v_i|) bits, so each entry, sign and tie is exact
    with _in_float_range("a face representative"):
        R = np.zeros((0, n)) if arr is None else arr.reps.astype(float)
    bits = np.maximum(53 - np.frexp(np.abs(R).max(axis=1))[1], 1)
    mant, exp = np.frexp(1 / np.sqrt(_rowdot(R, R)))
    faces = R * np.ldexp(np.floor(np.ldexp(mant, bits)), exp - bits)[:, None]
    W = np.vstack([faces, dirs])
    if not len(W):
        raise ValueError("the scan has no directions")
    A = stoichiometric_subspace(net).Hperp_matrix()
    b = A @ x0
    heights, coeffs, k_worst = _pull_terms(net, tempering, W)
    pulls = k_worst * coeffs
    # bad_theta[di] = largest theta at which the worst-case sum is >= 0 at
    # an eligible point along direction di (-inf if none); one theta at a
    # time, so no directions x thetas array is built
    bad_theta = np.full(len(W), -np.inf)
    seen = False  # any eligible point at all
    # one law: phi = <a, theta**w> - b0 per direction (inf on overflow) at
    # the previous grid theta only, and per grid interval holding sign
    # changes of phi, (interval, directions, phi at the interval's low end)
    prev = np.full(len(W), np.inf)
    changes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, theta in enumerate(theta_grid):
            Z = theta ** W
            finite = np.all(np.isfinite(Z), axis=1)
            if A.shape[0] == 0:
                eligible = True
            elif A.shape[0] == 1:
                phi = np.where(finite, _rowdot(Z, A[0]) - b[0], np.inf)
                eligible = np.abs(phi) <= 1e-9 * (1 + abs(b[0]))
                d = np.flatnonzero(np.isfinite(prev) & np.isfinite(phi) & (prev != 0)
                                   & (phi != 0) & ~(prev * phi > 0))
                if len(d):
                    changes.append((np.full(len(d), t - 1), d, prev[d]))
                prev = phi
            else:
                eligible = finite & _in_band(Z, A, b)
            seen |= bool(np.any(eligible))
            S = _rowdot(theta ** heights, pulls)
            bad_theta[eligible & (S >= 0) & (S < np.inf)] = theta
        if changes:
            # bisect every sign change at once
            ti, di, f_lo = map(np.concatenate, zip(*changes))
            seen = True
            lo, hi = theta_grid[ti], theta_grid[ti + 1]
            for _ in range(80):
                mid = np.sqrt(lo * hi)
                Z = mid[:, None] ** W[di]
                f_mid = np.where(np.all(np.isfinite(Z), axis=1), _rowdot(Z, A[0]) - b[0], np.inf)
                # a root hit exactly pins lo = hi = mid from then on
                same = (f_lo < 0) == (f_mid < 0)
                lo = np.where(same | (f_mid == 0), mid, lo)
                hi = np.where(same & (f_mid != 0), hi, mid)
                f_lo = np.where(same, f_mid, f_lo)
            cross = np.sqrt(lo * hi)
            S = _rowdot(cross[:, None] ** heights[di], pulls[di])
            hit = (S >= 0) & (S < np.inf)
            np.maximum.at(bad_theta, di[hit], cross[hit])
    worst = float(np.max(bad_theta))
    theta_max = float(theta_grid[-1])
    violating = []
    if not seen:
        theta_hat = None
    elif worst == -np.inf:
        theta_hat = float(theta_grid[0])
    elif worst >= theta_max / 100:
        theta_hat = None
        violating = [[float(v) for v in w] for w in W[bad_theta >= theta_max / 100]]
    else:
        theta_hat = float(theta_grid[np.searchsorted(theta_grid, worst, "right")])
    return {
        "theta_hat": theta_hat,
        "violating_directions": violating,
        "near_zero_clusters": [] if arr is None else _zero_margin_clusters(arr, faces),
        "n_directions": len(W),
        "theta_grid": [float(t) for t in theta_grid],
        "margin_delta": 0.0,
    }


def _zero_margin_clusters(arr: _Arrangement, rows: np.ndarray) -> list[dict]:
    """One cluster per connected set of faces of margin 0, centered at its
    first face's row: a face fixes the dominant tier and each flux sign, so
    its margin is 0 when no tier flux sign is positive and one is 0."""
    tier = np.where(arr.top, arr.flux_signs, -1)
    zero = np.flatnonzero(~np.any(tier > 0, axis=1) & np.any(tier == 0, axis=1))
    roots, sizes = np.unique(_components(arr.signs[zero]), return_counts=True)
    return sorted(({"center": rows[zero[r]].tolist(), "size": int(size), "max_margin": 0.0}
                   for r, size in zip(roots, sizes)), key=lambda c: c["center"])


# ---------------------------------------------------------------------------
# unit-jet extraction


def extract_unit_jet(sequence) -> tuple[list[int], Frame]:
    """Extract an approximate unit jet (subsequence + frame) from a finite
    sequence of unit vectors.

    Mirrors the accumulation-point recursion: take the latest direction as
    the level's limit, keep indices with a positive component along it,
    project the kept residuals onto its orthogonal complement, and recurse
    until the residuals vanish (or n levels are found).  The surviving
    indices are then greedily thinned so every consecutive coefficient
    ratio beta_j / beta_{j+1} is strictly increasing.

    Raises:
        ValueError: fewer than five usable indices at some level.
    """
    W = [np.asarray(w, dtype=float) for w in sequence]
    if not W:
        raise ValueError("empty sequence")
    n = len(W[0])
    active = np.arange(len(W))
    residuals = np.array(W)  # by row, sqrt(_rowdot(r, r)) is np.linalg.norm(r)
    frame_vecs: list[np.ndarray] = []
    while len(frame_vecs) < n:
        R = residuals[active]
        nonzero = active[np.sqrt(_rowdot(R, R)) > _ZERO_TOL]
        if not len(nonzero):
            break
        anchor = residuals[nonzero[-1]]
        anchor = anchor / np.linalg.norm(anchor)
        keep = nonzero[_rowdot(residuals[nonzero], anchor) > _ZERO_TOL]
        if len(keep) < _MIN_PER_LEVEL:
            raise ValueError(
                f"only {len(keep)} usable directions at level "
                f"{len(frame_vecs) + 1}; need at least {_MIN_PER_LEVEL}"
            )
        frame_vecs.append(anchor)
        active = keep
        residuals[active] -= _rowdot(residuals[active], anchor)[:, None] * anchor
    if not frame_vecs:
        raise ValueError("no accumulation direction above tolerance")
    V = np.array(frame_vecs)
    betas = {i: V @ W[i] for i in active.tolist()}
    ell = len(frame_vecs)
    kept: list[int] = []
    for i in active.tolist():
        b = betas[i]
        if np.any(b[:ell] <= _ZERO_TOL):
            continue
        if kept:
            prev = betas[kept[-1]]
            ratios_ok = all(
                b[j] / b[j + 1] > prev[j] / prev[j + 1] for j in range(ell - 1)
            )
            if not ratios_ok:
                continue
        kept.append(i)
    if len(kept) < _MIN_PER_LEVEL:
        raise ValueError(
            f"only {len(kept)} indices survive the ratio monotonicity thinning; "
            f"need at least {_MIN_PER_LEVEL}"
        )
    return kept, make_frame(*frame_vecs)
