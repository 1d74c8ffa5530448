"""Mass-action dynamics: vector field, adaptive embedded Runge-Kutta
integration that refuses to cross the boundary, piecewise-constant rate
selections from a tempering (the differential-inclusion semantics), steady
states, and free-energy evaluation along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .birch import NoConvergence, g_alpha, grad_g_alpha, _orthonormal_H
from .network import (
    ReactionNetwork,
    StoichiometryInfo,
    Tempering,
    _unit_tempering,
    stoichiometric_subspace,
)

_MODES = ("constant-mid", "constant-sampled", "piecewise-constant", "fixed")


@dataclass(frozen=True)
class RatePolicy:
    """How rate constants are selected from a tempering over time.

    constant-mid: interval midpoints, fixed in time.
    constant-sampled: one uniform draw per reaction at t = 0.
    piecewise-constant: fresh uniform draws every dt time units.
    fixed: the supplied rates (validated against the tempering).
    """

    mode: str
    seed: int = 0
    dt: float = 0.1
    rates: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "fixed" and self.rates is None:
            raise ValueError("fixed policy needs rates")
        if self.mode == "piecewise-constant" and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    rate_log: tuple[tuple[float, tuple[float, ...]], ...]
    events: tuple[dict, ...]

    def rates_at(self, t) -> np.ndarray:
        """Rates of the last segment starting at or before t (the first
        segment's for t before it), one row per time for an array of times;
        segment starts are ascending."""
        i = np.searchsorted([t0 for t0, _ in self.rate_log], t, side="right")
        return np.array([k for _, k in self.rate_log])[np.maximum(i - 1, 0)]


@dataclass(frozen=True)
class SteadyState:
    x: tuple[float, ...]
    residual: float


def _monomials(net: ReactionNetwork, x: np.ndarray) -> np.ndarray:
    """x**y_r for every source y_r (0**0 = 1) of a state, or of each row of a
    stack of states; non-finite where undefined."""
    with np.errstate(all="ignore"):
        return np.prod(np.power(x[..., None, :], net.source_matrix()), axis=-1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the others; each is
    the 1-D a @ b to the bit (np.sum(a * b, -1) and einsum round otherwise)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rhs(net: ReactionNetwork, k: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """The mass-action field at x, or None where a monomial is undefined."""
    mono = _monomials(net, x)
    if not np.all(np.isfinite(mono)):
        return None
    return (k * mono) @ net.flux_matrix()


def mass_action_rhs(net: ReactionNetwork, k, x) -> np.ndarray:
    """Sum over reactions of k_r * x**source_r * (target_r - source_r).

    Monomials x**y are componentwise powers (0**0 = 1); states that make a
    monomial undefined (zeros with negative exponents, negative coordinates
    with fractional exponents) raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    f = _rhs(net, np.asarray(k, dtype=float), x)
    if f is None:
        raise ValueError(f"monomials undefined at x = {x}")
    return f


def _mass_action_jacobian(net: ReactionNetwork, k, x):
    w = np.asarray(k, dtype=float) * _monomials(net, x)
    return net.flux_matrix().T @ (w[:, None] * (net.source_matrix() / x[None, :]))


# Dormand-Prince 5(4) pair: row i of A weights the stages before stage i; the
# last row doubles as the 5th-order weights (FSAL), and E is it minus the 4th-
# order weights.  Within a segment the system is autonomous: no nodes c_i.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_DP_E = _DP_A[6] - np.array(
    [5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

# an adaptive run stops at the boundary once a rejected step shrinks below this
_H_MIN = 1e-12


def _float_bounds(tempering: Tempering):
    """Float interval endpoints guaranteed to lie inside the exact rational
    intervals, so sampled rates pass exact containment checks."""
    lo = np.empty(len(tempering))
    hi = np.empty(len(tempering))
    for i, (l, h) in enumerate(tempering.intervals):
        lf, hf = float(l), float(h)
        if Fraction(lf) < l:
            lf = np.nextafter(lf, np.inf)
        if Fraction(hf) > h:
            hf = np.nextafter(hf, -np.inf)
        lo[i], hi[i] = lf, hf
    return lo, hi


def _positive_rates(k, n: int, name: str) -> np.ndarray:
    """k as floats, or ValueError unless it is n finite positive rates."""
    k = np.asarray(k, dtype=float)
    if k.shape != (n,) or not np.all(np.isfinite(k) & (k > 0)):
        raise ValueError(f"{name} must be {n} finite positive rates, got {k}")
    return k


def _segments(policy: RatePolicy, tempering: Tempering, t_end: float, max_steps: int):
    """(start, end, rates) of each segment of the policy, drawn lazily after
    the policy's checks (see simulate): one segment on [0, t_end] but for
    piecewise-constant, whose segment i starts at i * dt (np.arange(0,
    t_end, dt) to the bit; a last start that rounds onto t_end is dropped)
    and draws fresh uniform rates."""
    if policy.mode == "fixed":
        rates = _positive_rates(policy.rates, len(tempering), "fixed rates")
        if not tempering.contains(rates):
            raise ValueError(f"fixed rates {policy.rates} outside the tempering")
        yield 0.0, t_end, rates
        return
    if policy.mode == "constant-mid":
        yield 0.0, t_end, tempering.midpoints()
        return
    lo, hi = _float_bounds(tempering)
    rng = np.random.default_rng(np.random.SeedSequence(policy.seed))
    if policy.mode == "constant-sampled":
        yield 0.0, t_end, lo + rng.random(len(lo)) * (hi - lo)
        return
    dt = policy.dt
    # every segment but the last takes a step (one shorter than the end
    # tolerance of simulate needs dt < 1e-13 t_end), so such a run could
    # only end at the step limit
    if t_end / dt - 2 > max_steps:
        raise ValueError(f"piecewise-constant run of {t_end / dt:.3g} segments "
                         f"exceeds max_steps = {max_steps}")
    n = math.ceil(t_end / dt)  # np.arange's count
    for i in range(n):
        end = min((i + 1) * dt, t_end) if i + 1 < n else t_end
        yield i * dt, end, lo + rng.random(len(lo)) * (hi - lo)
        if end == t_end:
            return


def _dp_step(net: ReactionNetwork, k: np.ndarray, x: np.ndarray, f: np.ndarray, h: float):
    """The 5th-order point of one Dormand-Prince step of size h from x (f the
    field there) and the step's stages, or None unless every stage is
    defined and the point is positive and finite."""
    K = np.empty((7, len(x)))
    K[0] = f
    for i in range(1, 7):
        fs = _rhs(net, k, x + h * (_DP_A[i, :i] @ K[:i]))
        if fs is None:
            return None
        K[i] = fs
    x_new = x + h * (_DP_A[6] @ K)
    return (x_new, K) if np.all((x_new > 0) & (x_new < np.inf)) else None


def simulate(net: ReactionNetwork, tempering: Tempering | None, policy: RatePolicy,
             x0, t_end: float, rtol: float = 1e-8, atol: float = 1e-10,
             fixed_h: float | None = None, watch_box=None,
             max_steps: int = 5_000_000) -> Trajectory:
    """Integrate the mass-action system with rates selected by the policy.

    Embedded 5(4) pair with adaptive steps; a step is rejected when the
    error estimate exceeds one or when a stage is undefined or the new
    point is not positive and finite.  When a rejected step has shrunk
    below 1e-12, a boundary-approach event is emitted and integration stops
    (states are never clamped).  Rates are constant within each policy
    segment, the segments are drawn lazily as integration reaches them, and
    each is logged with its start.  fixed_h disables adaptivity (error
    control and rejection are skipped, positivity still stops the run).
    watch_box, if given as (lo, hi) arrays, logs entered-set / left-set
    events.

    Raises:
        ValueError: t_end, a tolerance or an x0 entry not positive and
        finite; fixed rates not one finite positive rate per reaction or
        outside the tempering; a piecewise-constant run with more segments
        than max_steps allows.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol}, atol={atol}")
    x = np.asarray(x0, dtype=float)
    if not np.all((x > 0) & (x < np.inf)):
        raise ValueError(f"x0 must be strictly positive and finite, got {x}")
    if tempering is None:
        tempering = _unit_tempering(net.n_reactions)
    if len(tempering) != net.n_reactions:
        raise ValueError("tempering length does not match reaction count")

    t = 0.0
    h = fixed_h if fixed_h is not None else min(1e-3, t_end / 10)
    times, states, rate_log, events = [], [], [], []
    box = None if watch_box is None else [np.asarray(watch_box[i], float) for i in (0, 1)]
    inside = False

    def record(t, x):
        nonlocal inside
        times.append(t)
        states.append(x)
        if box is not None:
            now_in = bool(np.all(x >= box[0]) and np.all(x <= box[1]))
            if now_in != inside:
                events.append({"type": "entered-set" if now_in else "left-set", "time": t})
            inside = now_in

    record(t, x)
    steps = 0
    stop = None
    for start, end, k in _segments(policy, tempering, t_end, max_steps):
        rate_log.append((start, tuple(float(v) for v in k)))
        f = _rhs(net, k, x)
        if f is None:
            stop = "boundary-approach"
        while stop is None and t < end - 1e-14 * max(1.0, end):
            steps += 1
            if steps > max_steps:
                stop = "step-limit"
                break
            h_try = min(h, end - t)
            step = _dp_step(net, k, x, f, h_try)
            if step is not None:
                x_new, K = step
                sc = atol + rtol * np.maximum(x, x_new)
                err = float(np.sqrt(np.mean((h_try * (_DP_E @ K) / sc) ** 2)))
            accept = step is not None and (fixed_h is not None or err <= 1.0)
            if accept:
                t, x, f = t + h_try, x_new, K[6]  # FSAL: the last stage is f at x_new
                record(t, x)
            if fixed_h is None:
                h = h_try * ((min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0)
                             if step is not None else 0.5)
            if not accept and (fixed_h is not None or h < _H_MIN):
                stop = "boundary-approach"
        if stop is not None:
            events.append({"type": stop, "time": t})
            break
    return Trajectory(np.array(times), np.array(states), tuple(rate_log), tuple(events))


def conservation_residual(traj: Trajectory, stoich: StoichiometryInfo) -> float:
    """Max over recorded times of ||A (x(t) - x(0))|| for the conservation
    rows A; identically zero when there are no conservation laws."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    A = stoich.Hperp_matrix()
    if A.shape[0] == 0:
        return 0.0
    diffs = traj.states - traj.states[0]
    return float(np.max(np.linalg.norm(diffs @ A.T, axis=1)))


# ||f|| at an accepted steady state, as a share of the gross flux
# sum_r k_r x^y_r ||y'_r - y_r||: genuine solutions on the fixtures measure
# at most 4e-6, points where every term is merely small (next to the
# boundary) 0.11 or more
_CANCELLATION = 1e-3


def find_steady_state(net: ReactionNetwork, k, x0, tol: float = 1e-10,
                      max_iter: int = 80, seed: int = 0) -> SteadyState:
    """Positive steady state in the stoichiometric class of x0.

    Damped Newton on the reduced system B^T f(x0 + B t) = 0 (B an
    orthonormal basis of the stoichiometric subspace), restarted from x0
    plus 8 random in-class perturbations; if all starts stall, integrates
    to t = 50 and polishes from there.  A point counts only where the
    reaction terms cancel (see _CANCELLATION), not where they are all small.

    Raises:
        ValueError: x0 or tol not positive and finite, or k not a finite
        positive rate per reaction.
        NoConvergence: no positive steady state found (legitimately
        possible, e.g. any network whose rhs never vanishes).
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all((x0 > 0) & (x0 < np.inf)):
        raise ValueError(f"x0 must be strictly positive and finite, got {x0}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    k = _positive_rates(k, net.n_reactions, "k")
    stoich = stoichiometric_subspace(net)
    B = _orthonormal_H(stoich)
    d = B.shape[1]
    if d == 0:
        f = _rhs(net, k, x0)
        return SteadyState(tuple(x0), float(np.linalg.norm(f)))

    def newton(t_start):
        t = t_start.copy()
        x = x0 + B @ t
        if np.any(x <= 0):
            return None
        for _ in range(max_iter):
            f = _rhs(net, k, x)
            if f is None:
                return None
            F = B.T @ f
            nrm = np.linalg.norm(F)
            if nrm <= tol:
                return x
            try:
                J = B.T @ _mass_action_jacobian(net, k, x) @ B
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                return None
            s = 1.0
            improved = False
            while s >= 1e-14:
                tn = t + s * step
                xn = x0 + B @ tn
                if np.all(xn > 0):
                    fn = _rhs(net, k, xn)
                    if fn is not None and np.linalg.norm(B.T @ fn) < nrm:
                        t, x = tn, xn
                        improved = True
                        break
                s *= 0.5
            if not improved:
                return None
        return None

    def accepted(x):
        if x is None:
            return None
        f = _rhs(net, k, x)
        gross = (k * _monomials(net, x)) @ np.linalg.norm(net.flux_matrix(), axis=1)
        residual = float(np.linalg.norm(f))
        return SteadyState(tuple(x), residual) if residual <= _CANCELLATION * gross else None

    rng = np.random.default_rng(seed)
    starts = [np.zeros(d)]
    for _ in range(8):
        starts.append(rng.standard_normal(d) * 0.3 * float(np.linalg.norm(x0)))
    for t_start in starts:
        found = accepted(newton(t_start))
        if found is not None:
            return found
    # last resort: ride the flow toward an attractor, then polish
    pinned = Tempering(tuple((Fraction(v), Fraction(v)) for v in k))
    traj = simulate(net, pinned, RatePolicy("fixed", rates=tuple(float(v) for v in k)),
                    x0, t_end=50.0, rtol=1e-9, atol=1e-12)
    x_end = traj.states[-1]
    if np.all(x_end > 0):
        found = accepted(newton(B.T @ (x_end - x0)))
        if found is not None:
            return found
    raise NoConvergence(f"no positive steady state found from x0 = {x0}")


def g_along(traj: Trajectory, net: ReactionNetwork, alpha=None) -> np.ndarray:
    """Per-sample free energy and its instantaneous derivative: rows
    (t, g(x(t)), <log(x/alpha), f(x(t))>), alpha defaulting to all ones and
    f taken at the rates of the segment holding t (Trajectory.rates_at).

    Raises:
        ValueError: at the first sample where g_alpha, grad_g_alpha or
        mass_action_rhs would raise (a coordinate at most 0, alpha not
        positive, an undefined monomial).
    """
    X = traj.states
    alpha = np.ones(X.shape[1]) if alpha is None else np.asarray(alpha, dtype=float)
    k = traj.rates_at(traj.times)
    mono = _monomials(net, X)
    bad = ~np.all(np.isfinite(mono), axis=1) | np.any(X <= 0, axis=1) | np.any(alpha <= 0)
    if np.any(bad):
        i = np.argmax(bad)
        # the per-sample checks, in their order, raise for the first bad sample
        mass_action_rhs(net, k[i], X[i]), g_alpha(X[i], alpha), grad_g_alpha(X[i], alpha)
    # one vector @ matrix product per sample, as _rhs computes f
    f = ((k * mono)[:, None, :] @ net.flux_matrix())[:, 0, :]
    log_ratio = np.log(X / alpha)
    g = -X.sum(axis=1) + np.sum(X * log_ratio, axis=1)
    return np.column_stack([traj.times, g, _rowdot(log_ratio, f)])
