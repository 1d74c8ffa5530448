"""Pseudo-Helmholtz free energy, Birch points as the one point where the
toric fibre alpha * exp(H^perp) meets the slice x0 + H (found by strictly
convex minimization over the fibre's coordinates), and empirical verifiers
for the behaviour of toric rays near the conservation subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .network import StoichiometryInfo


class NoConvergence(Exception):
    """Iteration budget exhausted; carries the last iterate and residual."""

    def __init__(self, message: str, last=None, residual: float | None = None):
        super().__init__(message)
        self.last = last
        self.residual = residual


@dataclass(frozen=True)
class ToricRay:
    """The curve theta -> base * theta**direction (componentwise), theta >= 1;
    theta = 1 gives the base point."""

    base: tuple[float, ...]
    direction: tuple[float, ...]

    def point(self, theta: float) -> np.ndarray:
        if theta < 1:
            raise ValueError(f"theta must be >= 1, got {theta}")
        return np.array(self.base) * theta ** np.array(self.direction)


@dataclass(frozen=True)
class BirchSolution:
    point: tuple[float, ...]
    residual: float
    iterations: int


def g_alpha(x, alpha) -> float:
    """Sum of x_i log(x_i / alpha_i) - x_i with 0 log 0 = 0.

    Continuous up to the boundary of the nonnegative orthant.

    Raises:
        ValueError: alpha not strictly positive, or x negative.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if np.any(x < 0):
        raise ValueError(f"x must be nonnegative, got {x}")
    pos = x > 0
    out = -x.sum()
    out += float(np.sum(x[pos] * np.log(x[pos] / alpha[pos])))
    return out


def grad_g_alpha(x, alpha) -> np.ndarray:
    """Componentwise log(x / alpha); requires x strictly positive."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if np.any(x <= 0):
        raise ValueError(f"gradient needs x > 0, got {x}")
    return np.log(x / alpha)


# far from the minimum, exp(Q lambda) leaves the float range (overflow to inf,
# underflow to 0); a step to such a point fails the positivity guard
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def birch_point(stoich: StoichiometryInfo, x0, alpha, tol: float = 1e-12,
                start_t=None, max_iter: int = 200) -> BirchSolution:
    """The unique point of (x0 + H) in the open orthant where log(x/alpha)
    is orthogonal to H.

    Every iterate lies on the toric fibre x = alpha * exp(Q lambda), Q an
    orthonormal basis of H^perp, so it is positive by construction.  The
    point of the fibre on x0 + H minimizes the strictly convex dual
    phi(lambda) = sum(alpha * exp(Q lambda)) - <lambda, Q^T x0>, with
    gradient Q^T (x - x0) and Hessian Q^T diag(x) Q; it is found with damped
    Newton steps and Armijo backtracking.  The residual reported is
    max(||P_H log(x/alpha)||, ||A (x - x0)||) with A the conservation rows.

    start_t, coordinates t along the orthonormal basis B of H, starts the
    walk from the fibre point whose log-ratio is the projection onto
    H^perp of that of x0 + B t: lambda_0 = Q^T log((x0 + B t) / alpha).

    Degenerate subspaces short-circuit: with H^perp = {0} the answer is
    alpha itself, with H = {0} it is x0.

    Raises:
        NoConvergence: iteration cap exceeded, no step accepted, a
            singular Hessian, or a step back to an earlier iterate (the
            message gives the reason and the iteration; carries the last
            iterate).
        ValueError: x0, alpha or tol not positive and finite, or x0 + B t
            not strictly positive.
    """
    x0 = np.asarray(x0, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if not (np.all((x0 > 0) & (x0 < np.inf)) and np.all((alpha > 0) & (alpha < np.inf))):
        raise ValueError(f"x0 and alpha must be strictly positive and finite, "
                         f"got x0 = {x0}, alpha = {alpha}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    A = stoich.Hperp_matrix()
    B = stoich.orthonormal_H()
    Q = stoich.orthonormal_Hperp()

    def residual_of(x):
        return max(np.linalg.norm(B.T @ np.log(x / alpha)), np.linalg.norm(A @ (x - x0)))

    if B.shape[1] == 0:
        return BirchSolution(tuple(x0), residual_of(x0), 0)
    if A.shape[0] == 0:
        return BirchSolution(tuple(alpha), residual_of(alpha), 0)

    start = x0 if start_t is None else x0 + B @ np.asarray(start_t, dtype=float)
    if np.any(start <= 0):
        raise ValueError("starting point must be strictly positive")
    c = Q.T @ x0
    lam = Q.T @ (np.log(start) - np.log(alpha))
    x = alpha * np.exp(Q @ lam)

    def stop(reason):
        return NoConvergence(f"no convergence to {tol}: {reason} at iteration {it}",
                             last=tuple(x), residual=res)

    seen = {lam.tobytes()}
    for it in range(max_iter + 1):
        res = residual_of(x)
        if res <= tol:
            return BirchSolution(tuple(x), res, it)
        if it == max_iter:
            raise stop("the iteration cap was reached")
        g = Q.T @ (x - x0)
        try:
            step = np.linalg.solve(Q.T @ (Q * x[:, None]), -g)
        except np.linalg.LinAlgError:
            raise stop("the Hessian is singular") from None
        total, pull = x.sum(), lam @ c
        f0 = total - pull
        slope = float(g @ step)
        # near the minimum, the rounding of phi's two terms (a few ulps of the
        # larger) swamps the Armijo decrease; a step that lowers the residual
        # is then accepted
        flat = 4 * np.spacing(max(total, abs(pull)))
        s = 1.0
        while s >= 1e-18:
            lam_n = lam + s * step
            xn = alpha * np.exp(Q @ lam_n)
            if np.all((xn > 0) & (xn < np.inf)):
                fn = xn.sum() - lam_n @ c
                if fn <= f0 + 1e-4 * s * slope or (
                    abs(fn - f0) <= flat and residual_of(xn) < res
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


def _project_onto_polyhedron(z, A, b):
    """Euclidean projection onto {x >= 0, A x = b} by enumerating active
    (zeroed) coordinate sets; returns (point, distance).  Exponential in the
    dimension, meant for small systems."""
    z = np.asarray(z, dtype=float)
    n = len(z)
    best = None
    idx = list(range(n))
    for k in range(n + 1):
        for zeros in itertools.combinations(idx, k):
            free = [i for i in idx if i not in zeros]
            if not free:
                x = np.zeros(n)
                if A.shape[0] and np.linalg.norm(A @ x - b) > 1e-9:
                    continue
                cand = x
            else:
                Af = A[:, free] if A.shape[0] else np.zeros((0, len(free)))
                # minimize ||xf - zf||^2 subject to Af xf = b
                m = Af.shape[0]
                KKT = np.block(
                    [[np.eye(len(free)), Af.T], [Af, np.zeros((m, m))]]
                )
                rhs = np.concatenate([z[free], b])
                try:
                    sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
                except np.linalg.LinAlgError:
                    continue
                xf = sol[: len(free)]
                if np.any(xf < -1e-9):
                    continue
                if m and np.linalg.norm(Af @ xf - b) > 1e-7 * (1 + np.linalg.norm(b)):
                    continue
                cand = np.zeros(n)
                cand[free] = np.maximum(xf, 0.0)
            dist = float(np.linalg.norm(cand - z))
            if best is None or dist < best[1]:
                best = (cand, dist)
        if best is not None and k >= 1:
            # deeper active sets cannot improve once we have an interior hit
            if best[1] == 0.0:
                break
    return best


def _unit(v):
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


def _direction_samples(stoich: StoichiometryInfo, n: int, count: int, rng):
    """Unit directions in and near H^perp (plus a few generic ones)."""
    if n == 0:  # no unit direction exists, so the draw below would never end
        raise ValueError("a network with no species has no direction to sample")
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


def verify_birch_boundary(stoich: StoichiometryInfo, x0, alpha, samples: int = 100,
                          o_radius: float = 0.5, seed: int = 0) -> dict:
    """Empirically check that toric rays from alpha in directions near
    H^perp stay away from the invariant polyhedron outside a ball O around
    the Birch point.

    For sampled (w, theta) the reported quantity is a valid lower bound on
    the distance from alpha * theta**w to P minus O: the larger of the
    distance to P and the distance to the complement of O.

    Returns:
        dict with min_distance, per_direction list, violations (samples
        landing in P outside O), and the Birch point used; verdict is
        "empirical" by construction.

    Raises:
        ValueError: a network with no species (no direction to sample).
    """
    x0 = np.asarray(x0, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = len(x0)
    xhat = np.array(birch_point(stoich, x0, alpha, tol=_VERIFY_TOL).point)
    A = stoich.Hperp_matrix()
    b = A @ x0 if A.shape[0] else np.zeros(0)
    rng = np.random.default_rng(seed)
    thetas = np.geomspace(1.0, _THETA_MAX, 40)
    per_direction = []
    violations = []
    for w in _direction_samples(stoich, n, max(1, samples), rng):
        dmin = np.inf
        for theta in thetas:
            z = alpha * theta ** w
            if not np.all(np.isfinite(z)):
                continue
            proj = _project_onto_polyhedron(z, A, b)
            dist_P = proj[1] if proj else np.inf
            dist_notO = max(0.0, o_radius - float(np.linalg.norm(z - xhat)))
            bound = max(dist_P, dist_notO)
            if bound == 0.0:
                violations.append({"w": [float(v) for v in w], "theta": float(theta)})
            dmin = min(dmin, bound)
        per_direction.append(
            {"w": [float(v) for v in w], "min_bound": float(dmin)}
        )
    return {
        "birch_point": [float(v) for v in xhat],
        "o_radius": o_radius,
        "min_distance": float(min(p["min_bound"] for p in per_direction)),
        "per_direction": per_direction,
        "violations": violations,
        "verdict": "empirical",
    }


def estimate_mu(stoich: StoichiometryInfo, x0, alpha, o_radius: float,
                samples: int = 400, seed: int = 0, membership_band: float = 1e-3) -> float:
    """Lower-bound estimate of the uniform projection bound: the minimum of
    ||P_H w|| over sampled unit directions whose toric ray from alpha meets
    the invariant polyhedron outside the ball O of the given radius around
    the Birch point.

    Directions in H^perp never qualify (their rays meet P only at the Birch
    point, inside O), so they are excluded automatically.  The estimate is
    monotone nonincreasing in the sample count for a fixed seed and
    monotone nondecreasing in o_radius for fixed samples.

    Raises:
        ValueError: a network with no species (no direction to sample).
    """
    x0 = np.asarray(x0, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = len(x0)
    xhat = np.array(birch_point(stoich, x0, alpha).point)
    A = stoich.Hperp_matrix()
    b = A @ x0 if A.shape[0] else np.zeros(0)
    B = stoich.orthonormal_H()
    rng = np.random.default_rng(seed)
    thetas = np.geomspace(1.0, _THETA_MAX, 200)
    mu = np.inf
    for w in _direction_samples(stoich, n, samples, rng):
        Z = alpha[None, :] * thetas[:, None] ** w[None, :]
        finite = np.all(np.isfinite(Z), axis=1)
        Z = Z[finite]
        if not len(Z):
            continue
        miss = (
            np.linalg.norm(Z @ A.T - b, axis=1) / (1 + np.linalg.norm(Z, axis=1))
            if A.shape[0]
            else np.zeros(len(Z))
        )
        ok = (miss <= membership_band) & np.all(Z >= -1e-9, axis=1)
        ok &= np.linalg.norm(Z - xhat, axis=1) >= o_radius
        if np.any(ok):
            mu = min(mu, float(np.linalg.norm(B.T @ w)) if B.shape[1] else 0.0)
    return float(mu)
