"""Pseudo-Helmholtz free energy, Birch points as the one point where the
toric fibre alpha * exp(H^perp) meets the slice x0 + H (found by strictly
convex minimization over the fibre's coordinates), and empirical verifiers
for the behaviour of toric rays near the conservation subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import StoichiometryInfo, _positive

_MAX_ITER = 200  # Newton steps birch_point takes before it gives up
_MAX_DIRECTION_SAMPLES = 10_000  # the verifiers' and cutoff_scan's samples, at most


class NoConvergence(Exception):
    """Iteration budget exhausted; carries the last iterate and residual."""

    def __init__(self, message: str, last=None, residual: float | None = None):
        super().__init__(message)
        self.last = last
        self.residual = residual


@dataclass(frozen=True)
class BirchSolution:
    point: tuple[float, ...]
    residual: float
    iterations: int


def g_alpha(x, alpha) -> float:
    """Sum of x_i log(x_i / alpha_i) - x_i with 0 log 0 = 0.

    Continuous up to the boundary of the nonnegative orthant.

    Raises:
        ValueError: alpha not as many finite positive values as x, or x
            negative.
    """
    x = np.asarray(x, dtype=float)
    alpha = _positive(alpha, len(x), "alpha")
    if np.any(x < 0):
        raise ValueError(f"x must be nonnegative, got {x}")
    pos = x > 0
    out = -x.sum()
    out += float(np.sum(x[pos] * np.log(x[pos] / alpha[pos])))
    return out


def grad_g_alpha(x, alpha) -> np.ndarray:
    """Componentwise log(x / alpha); requires x strictly positive and alpha
    as many finite positive values."""
    x = np.asarray(x, dtype=float)
    alpha = _positive(alpha, len(x), "alpha")
    if np.any(x <= 0):
        raise ValueError(f"gradient needs x > 0, got {x}")
    return np.log(x / alpha)


# far from the minimum, exp(Q lambda) leaves the float range (overflow to inf,
# underflow to 0); a step to such a point fails the positivity guard
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def birch_point(stoich: StoichiometryInfo, x0, alpha, tol: float = 1e-12,
                start_t=None) -> BirchSolution:
    """The unique point of (x0 + H) in the open orthant where log(x/alpha)
    is orthogonal to H.

    Every iterate lies on the toric fibre x = alpha * exp(Q lambda), Q an
    orthonormal basis of H^perp, so it is positive by construction.  The
    point of the fibre on x0 + H minimizes the strictly convex dual
    phi(lambda) = sum(alpha * exp(Q lambda)) - <lambda, Q^T x0>, with
    gradient Q^T (x - x0) and Hessian Q^T diag(x) Q; it is found with damped
    Newton steps and Armijo backtracking, halved until the step vanishes in
    floating point.  The residual reported is max(||P_H log(x/alpha)||,
    ||A (x - x0)||) with A the conservation rows.  The walk stops where it is
    at most tol and the miss ||A (x - x0)|| at most tol * min(1, ||A||_inf *
    max x0), so a small x0 is met to tol relative.

    start_t, coordinates t along the orthonormal basis B of H, starts the
    walk from the fibre point whose log-ratio is the projection onto
    H^perp of that of x0 + B t: lambda_0 = Q^T log((x0 + B t) / alpha).

    Degenerate subspaces short-circuit: with H^perp = {0} the answer is
    alpha itself, with H = {0} it is x0.

    Raises:
        NoConvergence: 200 Newton steps taken, no step accepted, a
            singular Hessian, a non-finite Newton step, or a step back to
            an earlier iterate (the message gives the reason and the
            iteration; carries the last iterate).
        ValueError: x0 or alpha not one positive finite value per species,
            tol not positive and finite, or x0 + B t not strictly positive.
    """
    x0 = _positive(x0, stoich.n_species, "x0")
    alpha = _positive(alpha, stoich.n_species, "alpha")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    A = stoich.Hperp_matrix()
    B = stoich.orthonormal_H()
    Q = stoich.orthonormal_Hperp()

    def residual_of(x):
        """(the reported residual, the miss ||A (x - x0)||)"""
        miss = np.linalg.norm(A @ (x - x0))
        return max(np.linalg.norm(B.T @ np.log(x / alpha)), miss), miss

    if B.shape[1] == 0:
        return BirchSolution(tuple(x0), residual_of(x0)[0], 0)
    if A.shape[0] == 0:
        return BirchSolution(tuple(alpha), residual_of(alpha)[0], 0)

    start = x0 if start_t is None else x0 + B @ np.asarray(start_t, dtype=float)
    if np.any(start <= 0):
        raise ValueError("starting point must be strictly positive")
    c = Q.T @ x0
    lam = Q.T @ (np.log(start) - np.log(alpha))
    x = alpha * np.exp(Q @ lam)

    def stop(reason):
        return NoConvergence(f"no convergence to {tol}: {reason} at iteration {it}",
                             last=tuple(x), residual=res)

    miss_tol = tol * min(1.0, np.abs(A).sum(axis=1).max() * x0.max())
    seen = {lam.tobytes()}
    for it in range(_MAX_ITER + 1):
        res, miss = residual_of(x)
        if res <= tol and miss <= miss_tol:
            return BirchSolution(tuple(x), res, it)
        if it == _MAX_ITER:
            raise stop("the iteration cap was reached")
        g = Q.T @ (x - x0)
        try:
            step = np.linalg.solve(Q.T @ (Q * x[:, None]), -g)
        except np.linalg.LinAlgError:
            raise stop("the Hessian is singular") from None
        if not np.all(np.isfinite(step)):
            raise stop("the Newton step is not finite")
        total, pull = x.sum(), lam @ c
        f0 = total - pull
        slope = float(g @ step)
        # near the minimum, the rounding of phi's two terms (a few ulps of the
        # larger) swamps the Armijo decrease; a step that lowers the residual
        # is then accepted
        flat = 4 * np.spacing(max(total, abs(pull)))
        s = 1.0
        while not np.array_equal(lam_n := lam + s * step, lam):
            xn = alpha * np.exp(Q @ lam_n)
            if np.all((xn > 0) & (xn < np.inf)):
                fn = xn.sum() - lam_n @ c
                if fn <= f0 + 1e-4 * s * slope or (
                    abs(fn - f0) <= flat and residual_of(xn)[0] < res
                ):
                    break
            s *= 0.5
        else:
            raise stop("no step was accepted")
        # at the rounding floor accepted steps can cycle; each step is a
        # function of lambda alone, so a repeated iterate never converges
        if lam_n.tobytes() in seen:
            raise stop("a step returned to an earlier iterate")
        seen.add(lam_n.tobytes())
        lam, x = lam_n, xn


# ---------------------------------------------------------------------------
# empirical verifiers


def _unit(v):
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


def _direction_samples(stoich: StoichiometryInfo, count: int, rng):
    """Unit directions in and near H^perp (plus a few generic ones)."""
    n = stoich.n_species
    if n == 0:  # no unit direction exists, so the draw below would never end
        raise ValueError("a network with no species has no direction to sample")
    if not 1 <= count <= _MAX_DIRECTION_SAMPLES:
        raise ValueError(f"samples must be 1 to {_MAX_DIRECTION_SAMPLES}, got {count}")
    B = stoich.orthonormal_H()
    Qperp = stoich.orthonormal_Hperp()
    out = []
    eps_grid = [0.0, 1e-3, 1e-2, 1e-1, 0.3, 1.0]
    while len(out) < count:
        if Qperp.shape[1]:
            u = Qperp @ rng.standard_normal(Qperp.shape[1])
            u = _unit(u)
            v = B @ rng.standard_normal(B.shape[1]) if B.shape[1] else np.zeros(n)
            v = _unit(v)
            eps = eps_grid[len(out) % len(eps_grid)]
            w = _unit(u + eps * v)
        else:
            w = _unit(rng.standard_normal(n))
        if np.linalg.norm(w) > 0:
            out.append(w)
    return out


# toric rays run over theta in [1, _THETA_MAX]; Birch points solved to _VERIFY_TOL
_THETA_MAX = 1e6
_VERIFY_TOL = 1e-10
_MEMBERSHIP_BAND = 1e-3  # the relative miss of _in_band


def _in_band(Z, A, b) -> np.ndarray:
    """Whether each row z of Z has ||A z - b|| <= _MEMBERSHIP_BAND * (1 + ||z||),
    computed as the relative miss; every row does when A has no rows."""
    miss = np.linalg.norm(Z @ A.T - b, axis=1) / (1 + np.linalg.norm(Z, axis=1))
    return miss <= _MEMBERSHIP_BAND


def _ray_setup(stoich: StoichiometryInfo, x0, alpha, o_radius: float, samples: int,
               seed: int):
    """The checks and set-up both toric-ray verifiers share: x0 and alpha
    as float vectors, the sampled directions, and the Birch point solved to
    _VERIFY_TOL."""
    x0 = _positive(x0, stoich.n_species, "x0")
    alpha = _positive(alpha, stoich.n_species, "alpha")
    if not 0 < o_radius < np.inf:
        raise ValueError(f"o_radius must be positive and finite, got {o_radius}")
    dirs = _direction_samples(stoich, samples, np.random.default_rng(seed))
    xhat = np.array(birch_point(stoich, x0, alpha, tol=_VERIFY_TOL).point)
    return x0, alpha, dirs, xhat


def _toric_rays(alpha, directions, n_thetas):
    """Per direction w, the thetas of the geometric grid of n_thetas points
    on [1, _THETA_MAX] at which alpha * theta**w is finite, and those points
    as rows; its callers hold np.errstate(over="ignore")."""
    thetas = np.geomspace(1.0, _THETA_MAX, n_thetas)
    for w in directions:
        Z = alpha * thetas[:, None] ** w
        finite = np.all(np.isfinite(Z), axis=1)
        yield w, thetas[finite], Z[finite]


@np.errstate(over="ignore")
def verify_birch_boundary(stoich: StoichiometryInfo, x0, alpha, samples: int = 100,
                          o_radius: float = 0.5, seed: int = 0) -> dict:
    """Empirically check that toric rays from alpha in directions near
    H^perp stay away from the invariant polyhedron P outside the ball O of
    radius o_radius around the Birch point xhat.

    A direction w's min_bound is the least, over 40 thetas geometric in
    [1, 1e6], of max(||Q^T (z - x0)||, o_radius - ||z - xhat||) at z =
    alpha * theta**w, Q an orthonormal basis of H^perp: z's distance to the
    slice x0 + H, which contains P, or to the outside of O.  This lower
    bound on the distance to P minus O takes polynomial time; a point with
    bound 0 (on the slice and positive, so in P, and outside O) is a
    violation.

    Returns:
        dict with min_distance (the least min_bound), per_direction,
        violations, the Birch point used and o_radius; verdict is
        "empirical" by construction.

    Raises:
        ValueError: x0 or alpha not one positive finite value per species,
            samples outside 1..10,000, o_radius not positive and finite, or
            a network with no species (no direction to sample).
    """
    x0, alpha, dirs, xhat = _ray_setup(stoich, x0, alpha, o_radius, samples, seed)
    Q = stoich.orthonormal_Hperp()
    per_direction = []
    violations = []
    for w, thetas, Z in _toric_rays(alpha, dirs, 40):
        bound = np.maximum(np.linalg.norm((Z - x0) @ Q, axis=1),
                           o_radius - np.linalg.norm(Z - xhat, axis=1))
        w = [float(v) for v in w]
        violations += [{"w": w, "theta": float(t)} for t in thetas[bound == 0.0]]
        per_direction.append({"w": w, "min_bound": float(bound.min(initial=np.inf))})
    return {
        "birch_point": [float(v) for v in xhat],
        "o_radius": o_radius,
        "min_distance": float(min(p["min_bound"] for p in per_direction)),
        "per_direction": per_direction,
        "violations": violations,
        "verdict": "empirical",
    }


@np.errstate(over="ignore")
def estimate_mu(stoich: StoichiometryInfo, x0, alpha, o_radius: float,
                samples: int = 400, seed: int = 0) -> float:
    """Lower-bound estimate of the uniform projection bound: the minimum of
    ||P_H w|| over sampled unit directions whose toric ray from alpha meets
    the invariant polyhedron outside the ball O of the given radius around
    the Birch point.

    A ray, followed at 200 thetas geometric in [1, 1e6], meets it at a
    point z in the membership band ||A z - b|| <= 1e-3 * (1 + ||z||), with
    A z = b the conservation laws of x0 (any z without a law).
    Directions in H^perp never qualify (their rays meet P only at the Birch
    point, inside O), so they are excluded automatically.  The estimate is
    monotone nonincreasing in the sample count for a fixed seed and
    monotone nondecreasing in o_radius for fixed samples.

    Raises:
        ValueError: x0 or alpha not one positive finite value per species,
            samples outside 1..10,000, o_radius not positive and finite, or
            a network with no species (no direction to sample).
    """
    x0, alpha, dirs, xhat = _ray_setup(stoich, x0, alpha, o_radius, samples, seed)
    A = stoich.Hperp_matrix()
    b = A @ x0
    B = stoich.orthonormal_H()
    mu = np.inf
    for w, _, Z in _toric_rays(alpha, dirs, 200):
        ok = _in_band(Z, A, b) & (np.linalg.norm(Z - xhat, axis=1) >= o_radius)
        if np.any(ok):
            mu = min(mu, float(np.linalg.norm(B.T @ w)) if B.shape[1] else 0.0)
    return float(mu)
