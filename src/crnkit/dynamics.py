"""Mass-action dynamics: vector field, adaptive embedded Runge-Kutta
integration that refuses to cross the boundary, piecewise-constant rate
selections from a tempering (the differential-inclusion semantics), steady
states, and free-energy evaluation along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isfinite

import numpy as np

from .birch import NoConvergence, g_alpha, grad_g_alpha
from .network import (
    ReactionNetwork,
    StoichiometryInfo,
    Tempering,
    _positive,
    _tempering_of,
    stoichiometric_subspace,
)

_MODES = ("constant-mid", "constant-sampled", "piecewise-constant", "fixed")


@dataclass(frozen=True)
class RatePolicy:
    """How rate constants are selected from a tempering over time.

    constant-mid: interval midpoints, fixed in time.
    constant-sampled: one uniform draw per reaction at t = 0.
    piecewise-constant: fresh uniform draws every dt time units.
    fixed: the supplied rates (validated against the tempering), the one
    mode that takes rates.
    """

    mode: str
    seed: int = 0
    dt: float = 0.1
    rates: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if (self.mode == "fixed") != (self.rates is not None):
            raise ValueError(f"the fixed policy needs rates and no other takes them, "
                             f"got mode {self.mode!r} with rates {self.rates}")
        if not 0 < self.dt < np.inf:
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
    stack of states, in numpy; non-finite where undefined.  Only
    find_steady_state's pseudo-transient loop calls it, for the reduced
    field and its Jacobian, under np.errstate(all="ignore"); every other
    field value is _field's."""
    return np.multiply.reduce(np.power(x[..., None, :], net.source_matrix()), axis=-1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the others; each is
    the 1-D a @ b to the bit (np.sum(a * b, -1) and einsum round otherwise)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _power(v: float, e) -> float:
    """v**e for a source exponent e: math.pow where e is a float (not
    integral); for an int e, repeated squaring and multiplication (v * v
    for 2, v * (v * v) for 3), log2(e) steps and no pow."""
    if e.__class__ is float:
        return math.pow(v, e)
    p, e = (v if e & 1 else 1.0), e >> 1
    while e:
        v *= v
        if e & 1:
            p *= v
        e >>= 1
    return p


# what _field raises where a monomial is undefined: math.pow's domain error
# and overflow, and _field's own error for a non-finite monomial
_UNDEFINED = (ValueError, OverflowError)


def _field(terms, k, x) -> list[float]:
    """The mass-action field at x in Python floats, from the network's
    _mass_action_terms, the rates k and the state x as float sequences.

    Each monomial is the product of its powers in species order, times k_r;
    each component sums its reactions' terms in reaction order, left to
    right, from 0.0.  So the result depends on IEEE arithmetic and, for
    fractional exponents, math.pow, not on numpy's SIMD dispatch or a BLAS
    kernel.  Raises ValueError or
    OverflowError where a monomial is undefined or not finite (_UNDEFINED).
    """
    f = [0.0] * len(x)
    for kr, source, flux in zip(k, *terms):
        m = 1.0
        for s, e in source:
            v = x[s]
            if e == 1:
                m *= v
            elif e == 2:  # _power's value, without the call
                m *= v * v
            else:
                m *= _power(v, e)
        if not isfinite(m):
            raise ValueError("monomial not finite")
        w = kr * m
        for s, c in flux:
            f[s] += w * c
    return f


def mass_action_rhs(net: ReactionNetwork, k, x) -> np.ndarray:
    """Sum over reactions of k_r * x**source_r * (target_r - source_r).

    Monomials x**y are componentwise powers (0**0 = 1), evaluated by
    _field, the field simulate steps on.  Any real rates are taken; k not
    one rate per reaction, x not one entry per species, and states that
    make a monomial undefined (zeros with negative exponents, negative
    coordinates with fractional exponents) or not finite raise ValueError.
    """
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    if k.shape != (net.n_reactions,) or x.shape != (net.n_species,):
        raise ValueError(f"k and x must have {net.n_reactions} and {net.n_species} entries, "
                         f"got shapes {k.shape} and {x.shape}")
    try:
        return np.array(_field(net._mass_action_terms, k.tolist(), x.tolist()))
    except _UNDEFINED:
        raise ValueError(f"monomials undefined at x = {x}") from None


# Dormand-Prince 5(4) pair: row i of A weights the stages before stage i; the
# last row doubles as the 5th-order weights (FSAL), and E is it minus the 4th-
# order weights.  Within a segment the system is autonomous: no nodes c_i.
# _dp5 writes these out as literals; the test suite's per-stage reference
# loops over them
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
# a run stops with a step-limit event after this many steps, accepted or not
_MAX_STEPS = 5_000_000


def _dp5(terms, k, x, f1, h, rtol, atol):
    """One Dormand-Prince step of size h from x (f1 the field there), in
    Python floats: (x_new, stages, err), err the RMS of the scaled error
    estimate (0 for a state without species), or None unless every stage is
    finite and x_new is positive and finite.

    Each stage's state is x + h * (its weighted stages, summed left to
    right), the 7th state is x_new, and the error terms add in stage order,
    so every value is fixed by _field's and these float operations.  A
    monomial that is
    undefined or not finite at a stage's state ends the step there."""
    try:
        f2 = _field(terms, k, [a + h * (1 / 5 * p1) for a, p1 in zip(x, f1)])
        f3 = _field(terms, k, [a + h * (3 / 40 * p1 + 9 / 40 * p2)
                               for a, p1, p2 in zip(x, f1, f2)])
        f4 = _field(terms, k, [a + h * (44 / 45 * p1 - 56 / 15 * p2 + 32 / 9 * p3)
                               for a, p1, p2, p3 in zip(x, f1, f2, f3)])
        f5 = _field(terms, k, [a + h * (19372 / 6561 * p1 - 25360 / 2187 * p2
                                        + 64448 / 6561 * p3 - 212 / 729 * p4)
                               for a, p1, p2, p3, p4 in zip(x, f1, f2, f3, f4)])
        f6 = _field(terms, k, [a + h * (9017 / 3168 * p1 - 355 / 33 * p2 + 46732 / 5247 * p3
                                        + 49 / 176 * p4 - 5103 / 18656 * p5)
                               for a, p1, p2, p3, p4, p5 in zip(x, f1, f2, f3, f4, f5)])
        x_new = [a + h * (35 / 384 * p1 + 500 / 1113 * p3 + 125 / 192 * p4
                          - 2187 / 6784 * p5 + 11 / 84 * p6)
                 for a, p1, p3, p4, p5, p6 in zip(x, f1, f3, f4, f5, f6)]
        f7 = _field(terms, k, x_new)
    except _UNDEFINED:
        return None
    if not all(map(isfinite, chain(f1, f2, f3, f4, f5, f6, f7))):
        return None
    acc = 0.0
    for a, b, p1, p3, p4, p5, p6, p7 in zip(x, x_new, f1, f3, f4, f5, f6, f7):
        if not (b > 0.0 and isfinite(b)):
            return None
        e = h * ((35 / 384 - 5179 / 57600) * p1 + (500 / 1113 - 7571 / 16695) * p3
                 + (125 / 192 - 393 / 640) * p4 + (-2187 / 6784 + 92097 / 339200) * p5
                 + (11 / 84 - 187 / 2100) * p6 - 1 / 40 * p7) / (atol + rtol * (a if a > b else b))
        acc += e * e
    return x_new, (f1, f2, f3, f4, f5, f6, f7), math.sqrt(acc / len(x)) if x else 0.0


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


def _segments(policy: RatePolicy, tempering: Tempering, t_end: float):
    """(start, end, rates) of each segment of the policy, drawn lazily after
    the policy's checks (see simulate): one segment on [0, t_end] but for
    piecewise-constant, whose segment i starts at i * dt (np.arange(0,
    t_end, dt) to the bit; a last start that rounds onto t_end is dropped)
    and draws fresh uniform rates.  constant-sampled is its one-segment
    case, dt = t_end."""
    if policy.mode == "fixed":
        rates = _positive(policy.rates, len(tempering), "fixed rates")
        if not tempering.contains(rates):
            raise ValueError(f"fixed rates {policy.rates} outside the tempering")
        yield 0.0, t_end, rates
        return
    if policy.mode == "constant-mid":
        yield 0.0, t_end, tempering.midpoints()
        return
    lo, hi = _float_bounds(tempering)
    rng = np.random.default_rng(np.random.SeedSequence(policy.seed))
    dt = policy.dt if policy.mode == "piecewise-constant" else t_end
    # every segment but the last takes a step (one shorter than the end
    # tolerance of simulate needs dt < 1e-13 t_end), so such a run could
    # only end at the step limit
    if t_end / dt - 2 > _MAX_STEPS:
        raise ValueError(f"piecewise-constant run of {t_end / dt:.3g} segments "
                         f"exceeds the step limit of {_MAX_STEPS}")
    n = math.ceil(t_end / dt)  # np.arange's count
    for i in range(n):
        end = min((i + 1) * dt, t_end) if i + 1 < n else t_end
        yield i * dt, end, lo + rng.random(len(lo)) * (hi - lo)
        if end == t_end:
            return


def simulate(net: ReactionNetwork, tempering: Tempering | None, policy: RatePolicy,
             x0, t_end: float, rtol: float = 1e-8, atol: float = 1e-10) -> Trajectory:
    """Integrate the mass-action system with rates selected by the policy.

    Embedded 5(4) pair with adaptive steps, stepped in Python floats by
    _dp5; a step is rejected when the error estimate exceeds one or when a
    stage is undefined or not finite or the new point is not positive and
    finite.  When a rejected step has shrunk below 1e-12, a
    boundary-approach event is emitted and integration stops (states are
    never clamped); after 5,000,000 steps a step-limit event is emitted
    instead.  Rates are constant within each policy segment, the segments
    are drawn lazily as integration reaches them, and each is logged with
    its start.  Accepted times and states go into float arrays that double
    when full and are trimmed at the end.

    Raises:
        ValueError: t_end or a tolerance not positive and finite; x0 not one
        positive finite value per species; the tempering (unit rates when
        None) not one interval per reaction; fixed rates not one finite
        positive rate per reaction or outside the tempering; a
        piecewise-constant run with more segments than the step limit allows.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol}, atol={atol}")
    x = _positive(x0, net.n_species, "x0").tolist()
    tempering = _tempering_of(net, tempering)
    terms = net._mass_action_terms

    t = 0.0
    h = min(1e-3, t_end / 10)
    times, states = np.empty(256), np.empty((256, len(x)))
    times[0], states[0] = t, x
    count = 1
    rate_log, events = [], []
    steps = 0
    stop = None
    for start, end, k in _segments(policy, tempering, t_end):
        k = k.tolist()
        rate_log.append((start, tuple(k)))
        try:
            f = _field(terms, k, x)
        except _UNDEFINED:
            stop = "boundary-approach"
        while stop is None and t < end - 1e-14 * max(1.0, end):
            steps += 1
            if steps > _MAX_STEPS:
                stop = "step-limit"
                break
            h_try = min(h, end - t)
            step = _dp5(terms, k, x, f, h_try, rtol, atol)
            if step is not None:
                x_new, stages, err = step
            accept = step is not None and err <= 1.0
            if accept:
                t, x, f = t + h_try, x_new, stages[6]  # FSAL: the last stage is f at x_new
                if count == len(times):
                    times = np.concatenate((times, np.empty_like(times)))
                    states = np.concatenate((states, np.empty_like(states)))
                times[count], states[count] = t, x
                count += 1
            h = h_try * ((min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0)
                         if step is not None else 0.5)
            if not accept and h < _H_MIN:
                stop = "boundary-approach"
        if stop is not None:
            events.append({"type": stop, "time": t})
            break
    return Trajectory(times[:count].copy(), states[:count].copy(), tuple(rate_log), tuple(events))


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


# pseudo-transient continuation in find_steady_state: at most this many
# steps, accepted or retried, and its pseudo time step delta at most this.
# Where ||F|| rises along the flow, switched evolution relaxation keeps delta
# small and the loop follows the flow slowly: on 2,000 pyramid starts (k in
# [0.5, 2]^5, x0 log-uniform in [0.01, 100]^3) 15 need more than 400 steps
# and 2 more than 1,000
_PTC_STEPS = 1000
_DELTA_MAX = 1e12


# far from 1 the search's monomials, products and norms overflow, or meet as
# inf - inf; a step with such a value is retried with a smaller delta
@np.errstate(all="ignore")
def find_steady_state(net: ReactionNetwork, k, x0, tol: float = 1e-10) -> SteadyState:
    """Positive steady state in the stoichiometric class of x0.

    Pseudo-transient continuation (Kelley & Keyes 1998) on the reduced
    system F(t) = B^T f(x0 + B t) = 0, B an orthonormal basis of the
    stoichiometric subspace: each step solves (I/delta - J) s = F for the
    reduced Jacobian J, so it follows the flow while delta is small and is
    a Newton step once delta is large.  delta starts at 1/||J(x0)||_F (the
    Frobenius norm bounds ||J||_2 from above and needs no SVD) and grows
    by switched evolution relaxation, delta * ||F_old|| / ||F_new||
    (capped at 1e12); it is halved and the step retried when the trial
    point leaves the open orthant, a monomial is undefined, ||F|| is not
    finite or the solve is singular.  While J has a non-finite entry it is
    taken as 0 (an explicit flow step, delta starting at 1e-3).  At most
    1,000 steps, nothing drawn at random.  It stops where ||F|| <= tol *
    min(1, gross), gross = sum_r k_r x^y_r ||y'_r - y_r|| >= ||F||: relative
    below gross = 1, so terms that are all small but do not cancel never
    pass, and absolute above.  So tol must lie in (0, 1).

    Raises:
        ValueError: x0 not one positive finite value per species, tol not
        in (0, 1), or k not one finite positive rate per reaction.
        NoConvergence: no positive steady state found (legitimately
        possible, e.g. any network whose rhs never vanishes); carries the
        last iterate and its ||F||.
    """
    x0 = _positive(x0, net.n_species, "x0")
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    k = _positive(k, net.n_reactions, "k")
    B = stoichiometric_subspace(net).orthonormal_H()
    d = B.shape[1]
    if d == 0:
        return SteadyState(tuple(x0), float(np.linalg.norm(mass_action_rhs(net, k, x0))))

    S = net.source_matrix()
    FB = net.flux_matrix() @ B  # the reaction vectors in the basis B
    lengths = np.linalg.norm(net.flux_matrix(), axis=1)

    def at(t):
        """(x, w, F, ||F||, gross) at x = x0 + B t: w = k x^y, F = B^T f =
        w @ FB, gross = w @ ||flux rows||; None off the open orthant or where
        ||F|| is not finite (an undefined monomial makes it so)."""
        x = x0 + B @ t
        if not np.all(x > 0):
            return None
        w = k * _monomials(net, x)
        F = w @ FB
        nrm = np.linalg.norm(F)
        return (x, w, F, nrm, w @ lengths) if np.isfinite(nrm) else None

    def jacobian(x, w):
        """B^T Df(x) B, or None where an entry is not finite."""
        J = FB.T @ (w[:, None] * (S / x)) @ B
        return J if np.isfinite(J).all() else None

    t = np.zeros(d)
    x, w, F, nrm, gross = at(t) or (x0, None, None, np.inf, 1.0)
    J = None if w is None else jacobian(x, w)
    delta = 1e-3 if J is None else min(1 / np.linalg.norm(J), _DELTA_MAX)
    for _ in range(_PTC_STEPS):
        if F is None or nrm <= tol * min(1, gross):
            break
        try:
            s = np.linalg.solve(np.eye(d) / delta - (0 if J is None else J), F)
        except np.linalg.LinAlgError:
            trial = None
        else:
            trial = at(t + s)
        if trial is None:
            delta /= 2
            continue
        t = t + s
        delta = min(delta * nrm / trial[3], _DELTA_MAX)
        x, w, F, nrm, gross = trial
        J = jacobian(x, w)
    if nrm <= tol * min(1, gross):
        return SteadyState(tuple(x), float(np.linalg.norm(w @ net.flux_matrix())))  # ||f||
    raise NoConvergence(f"no positive steady state found from x0 = {x0}",
                        last=tuple(x), residual=float(nrm))


# inf (or nan) past the float range, and monomials undefined at samples that
# the per-sample checks then reject
@np.errstate(all="ignore")
def g_along(traj: Trajectory, net: ReactionNetwork, alpha=None) -> np.ndarray:
    """Per-sample free energy and its instantaneous derivative: rows
    (t, g(x(t)), <log(x/alpha), f(x(t))>), alpha defaulting to all ones and
    f taken at the rates of the segment holding t (Trajectory.rates_at).

    Raises:
        ValueError: alpha not one positive finite value per species; at
        the first sample where g_alpha, grad_g_alpha or mass_action_rhs
        would raise (a coordinate at most 0, an undefined monomial).
    """
    X = traj.states
    alpha = np.ones(net.n_species) if alpha is None else _positive(alpha, net.n_species, "alpha")
    k = traj.rates_at(traj.times)
    # mass_action_rhs's field, one sample at a time, up to the first sample
    # where a monomial is undefined
    terms, f = net._mass_action_terms, []
    for ki, xi in zip(k.tolist(), X.tolist()):
        try:
            f.append(_field(terms, ki, xi))
        except _UNDEFINED:
            break
    bad = np.any(X <= 0, axis=1)
    bad[len(f):] = True
    if np.any(bad):
        i = np.argmax(bad)
        # the per-sample checks, in their order, raise for the first bad sample
        mass_action_rhs(net, k[i], X[i]), g_alpha(X[i], alpha), grad_g_alpha(X[i], alpha)
    log_ratio = np.log(X / alpha)
    g = -X.sum(axis=1) + np.sum(X * log_ratio, axis=1)
    return np.column_stack([traj.times, g, _rowdot(log_ratio, np.array(f))])
