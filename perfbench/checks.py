"""Output checks made apart from crnkit.

Every check recomputes what it needs with the benchmark's own code (its own
reader for the network text, its own direction sampler, margins and
conservation laws) or with scipy as an oracle, and returns a list of
problems; an empty list means the output passed.  scipy is imported inside
the checks that need it, which run after the timed passes, so it stays out
of ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

ENVELOPE = ("tool", "version", "schema", "command", "seed")
_TERM = re.compile(r"^\s*([0-9./]*)\s*\*?\s*([A-Za-z_][A-Za-z0-9_]*)\s*$")


# ---------------------------------------------------------------------------
# the benchmark's own reader for network text


def read_network(text: str):
    """(species, reactions) from network text with a species header; each
    reaction is (source, target, (lo, hi)) with Fraction coefficients."""
    species, reactions = [], []

    def side(s):
        coeffs = [Fraction(0)] * len(species)
        if s.strip() != "0":
            for term in s.split("+"):
                m = _TERM.match(term)
                coeffs[species.index(m.group(2))] += Fraction(m.group(1) or 1)
        return tuple(coeffs)

    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            species = line[len("species:"):].split()
            continue
        arrow = "<->" if "<->" in line else "->"
        lhs, rhs = line.split(arrow, 1)
        intervals = []
        if re.search(r"\brate\b", rhs):
            rhs, rates = re.split(r"\brate\b", rhs, maxsplit=1)
            for body in re.findall(r"\[([^\]]*)\]", rates):
                ends = [Fraction(x.strip()) for x in body.split(",")]
                intervals.append((ends[0], ends[-1]))
        unit = (Fraction(1), Fraction(1))
        forward = intervals[0] if intervals else unit
        reactions.append((side(lhs), side(rhs), forward))
        if arrow == "<->":
            reactions.append((side(rhs), side(lhs), intervals[-1] if intervals else unit))
    return species, reactions


def _integer_rows(rows) -> np.ndarray:
    """Scale rational rows by one common denominator; the direction
    conditions are invariant under positive scaling."""
    rows = [[Fraction(x) for x in r] for r in rows]
    lcm = 1
    for r in rows:
        for x in r:
            lcm = math.lcm(lcm, x.denominator)
    return np.array([[int(x * lcm) for x in r] for r in rows], dtype=np.int64)


def network_arrays(text: str):
    """(sources, fluxes) as integer matrices, one row per reaction."""
    _, reactions = read_network(text)
    src = [s for s, _, _ in reactions]
    flux = [[b - a for a, b in zip(s, t)] for s, t, _ in reactions]
    both = _integer_rows([*src, *flux])
    return both[: len(src)], both[len(src):]


# ---------------------------------------------------------------------------
# classify-batch


def sample_directions(n: int, seed: int, count: int = 6000) -> np.ndarray:
    """Every integer direction in [-2, 2]^n (so axis and diagonal directions
    are always present) plus `count` random ones in [-40, 40]^n."""
    small = np.array(list(itertools.product(range(-2, 3), repeat=n)), dtype=np.int64)
    rng = np.random.default_rng([seed, 99])
    W = np.vstack([small, rng.integers(-40, 41, size=(count, n))])
    return W[np.any(W != 0, axis=1)]


def direction_violations(S: np.ndarray, F: np.ndarray, W: np.ndarray):
    """Per direction: (endotactic violated, strong condition violated).

    Endotactic along w: among reactions with <w, flux> != 0, none whose
    source maximizes <w, y> over those reactions' sources has
    <w, flux> > 0.  Strong along w (w not orthogonal to every flux): some
    reaction whose source maximizes <w, y> over all sources has
    <w, flux> < 0.
    """
    P = W @ F.T
    Q = W @ S.T
    ess = P != 0
    low = np.iinfo(np.int64).min
    top_ess = np.where(ess, Q, low).max(axis=1, initial=low)
    endo_bad = np.any(ess & (Q == top_ess[:, None]) & (P > 0), axis=1)
    top_all = Q.max(axis=1)
    strong_bad = np.any(ess, axis=1) & ~np.any((Q == top_all[:, None]) & (P < 0), axis=1)
    return endo_bad, strong_bad


def replay_witness(text: str, w):
    """Exact (endotactic violated, strong violated) along one rational w."""
    S, F = network_arrays(text)
    Wi = _integer_rows([w])
    if not np.any(Wi):
        return False, False
    e, s = direction_violations(S, F, Wi)
    return bool(e[0]), bool(s[0])


def weakly_reversible_oracle(text: str) -> bool:
    """Every linkage class strongly connected, from scipy's components of
    the complex graph."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    _, reactions = read_network(text)
    index = {}
    for s, t, _ in reactions:
        index.setdefault(s, len(index))
        index.setdefault(t, len(index))
    rows = [index[s] for s, _, _ in reactions]
    cols = [index[t] for _, t, _ in reactions]
    G = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(index), len(index)))
    n_weak, _ = connected_components(G, directed=True, connection="weak")
    n_strong, _ = connected_components(G, directed=True, connection="strong")
    return n_weak == n_strong


def check_classification(text: str, out, seed: int, expected=None) -> list[str]:
    """One classify-batch task's output: the report, the fast-path rule and
    crnkit's own sampler verdicts."""
    problems = []
    rep, rule, sampled = out["report"], out["fast_path"], out["sampled"]
    got = (rep.weakly_reversible, rep.endotactic, rep.strongly_endotactic)
    if expected is not None and tuple(got) != tuple(expected):
        problems.append(f"verdicts {got} differ from the hand-analysis table {expected}")
    if rep.strongly_endotactic and not rep.endotactic:
        problems.append("strongly endotactic but not endotactic")
    if rep.weakly_reversible != weakly_reversible_oracle(text):
        problems.append(f"weakly_reversible={rep.weakly_reversible} disagrees with scipy")
    if rule != rep.fast_path:
        problems.append(f"fast_paths gave {rule!r}, the report {rep.fast_path!r}")
    if rule is not None and not rep.strongly_endotactic:
        problems.append(f"fast path {rule!r} fired on a network not strongly endotactic")
    S, F = network_arrays(text)
    endo_bad, strong_bad = direction_violations(S, F, sample_directions(S.shape[1], seed))
    if rep.endotactic and endo_bad.any():
        problems.append("endotactic verdict contradicted by a sampled direction")
    if rep.strongly_endotactic and strong_bad.any():
        problems.append("strong verdict contradicted by a sampled direction")
    if not rep.endotactic:
        if rep.witness is None or not replay_witness(text, rep.witness)[0]:
            problems.append(f"witness {rep.witness} does not violate the endotactic condition")
    elif not rep.strongly_endotactic:
        if rep.witness is None or not replay_witness(text, rep.witness)[1]:
            problems.append(f"witness {rep.witness} does not violate the strong condition")
    elif rep.witness is not None:
        problems.append("strongly endotactic network reported with a witness")
    for flag, key, which, verdict in (
            ("endotactic", "endo_witness", 0, rep.endotactic),
            ("strongly_endotactic", "strong_witness", 1, rep.strongly_endotactic)):
        if sampled[flag]:
            continue
        if verdict:
            problems.append(f"crnkit's sampler refutes the exact {flag} verdict")
        if sampled[key] is None or not replay_witness(text, sampled[key])[which]:
            problems.append(f"sampler {key} {sampled[key]} does not replay as a violation")
    return problems


def check_classify_batch(workload, outputs) -> list[str]:
    table = workload.context["tables"]["CLASSIFICATION"]
    problems = []
    for i, (task, out) in enumerate(zip(workload.tasks, outputs)):
        fixture = task.meta.get("fixture")
        expected = table[fixture] if fixture else None
        for p in check_classification(task.meta["text"], out, workload.seed + i, expected):
            problems.append(f"{task.name}: {p}")
    return problems


# ---------------------------------------------------------------------------
# trajectories


def check_trajectory(times, states, events, t_end: float, rate_log=None,
                     rate_box=None) -> list[str]:
    """Reached t_end with no event, all states positive and finite, and
    every logged rate inside rate_box."""
    times, states = np.asarray(times, float), np.asarray(states, float)
    problems = []
    if events:
        problems.append(f"events {[e['type'] for e in events]}")
    if times[-1] != t_end:
        problems.append(f"stopped at t={times[-1]} before t_end={t_end}")
    if not np.all(np.isfinite(states)) or np.any(states <= 0):
        problems.append("a state is not positive")
    if np.any(np.diff(times) <= 0):
        problems.append("times are not increasing")
    if rate_box is not None:
        rates = np.array([k for _, k in rate_log], dtype=float)
        if rates.size == 0 or rates.min() < rate_box[0] or rates.max() > rate_box[1]:
            problems.append(f"logged rates leave {rate_box}")
    return problems


def tail_box(trajectories, t_from: float):
    """Smallest box holding every state at t >= t_from."""
    lo, hi = math.inf, 0.0
    for times, states in trajectories:
        tail = np.asarray(states)[np.asarray(times) >= t_from]
        lo, hi = min(lo, float(tail.min())), max(hi, float(tail.max()))
    return lo, hi


def check_boxes(boxes: dict) -> list[str]:
    """Positive trapping boxes for each rate seed that agree within 10%:
    the permanence the paper proves, seen from two rate selections."""
    problems = []
    for seed, (lo, hi) in boxes.items():
        if not (lo > 0 and np.isfinite(hi)):
            problems.append(f"seed {seed}: tail box ({lo}, {hi}) is not a positive box")
    (lo1, hi1), (lo2, hi2) = boxes.values()
    if abs(lo1 - lo2) > 0.1 * max(lo1, lo2) or abs(hi1 - hi2) > 0.1 * max(hi1, hi2):
        problems.append(f"tail boxes {list(boxes.values())} differ by more than 10%")
    return problems


def conservation_laws(text: str) -> np.ndarray:
    """Orthonormal rows spanning the left nullspace of the flux matrix."""
    from scipy.linalg import null_space

    _, F = network_arrays(text)
    return null_space(F.astype(float)).T


def check_birch(text: str, payload) -> list[str]:
    """A Birch point: positive, in x0 + S (the conservation laws agree) and
    with log(x / alpha) orthogonal to S (every flux vector)."""
    x, x0, alpha = (np.asarray(payload[k], float) for k in ("point", "x0", "alpha"))
    if not np.all(x > 0):
        return [f"birch point {list(x)} is not positive"]
    _, F = network_arrays(text)
    off_class = np.abs(conservation_laws(text) @ (x - x0)).max(initial=0.0)
    off_normal = np.abs(F @ np.log(x / alpha)).max() / np.abs(F).max()
    if not (off_class <= 1e-9 * max(1.0, np.abs(x0).max()) and off_normal <= 1e-9):
        return [f"birch point {list(x)}: off x0 + S by {off_class:.3g}, "
                f"log(x/alpha) off S-perp by {off_normal:.3g}"]
    return []


def check_conservation(states, laws: np.ndarray, tol: float = 1e-8) -> list[str]:
    states = np.asarray(states, float)
    drift = np.abs((states - states[0]) @ laws.T).max()
    if not drift <= tol:
        return [f"conserved totals drift by {drift:.3g} > {tol}"]
    return []


def reference_solution(text: str, rates, x0, times) -> np.ndarray:
    """scipy's LSODA on the mass-action system, at the given times."""
    from scipy.integrate import solve_ivp

    S, F = network_arrays(text)
    S, F = S.astype(float), F.astype(float)
    k = np.asarray(rates, dtype=float)

    def rhs(_, x):
        return (k * np.prod(np.power(np.maximum(x, 0.0), S), axis=1)) @ F

    sol = solve_ivp(rhs, (0.0, float(times[-1])), np.asarray(x0, float), method="LSODA",
                    t_eval=times, rtol=1e-11, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def reference_points(times) -> np.ndarray:
    """The 25 sample indices compared against the reference solution."""
    return np.linspace(0, len(times) - 1, 25).astype(int)


def check_against_reference(states, reference: np.ndarray, atol: float = 1e-6) -> list[str]:
    gap = np.abs(np.asarray(states, float) - reference).max()
    if not gap <= atol:
        return [f"differs from solve_ivp by {gap:.3g} > {atol}"]
    return []


# ---------------------------------------------------------------------------
# cutoff scan


def worst_case_margin(text: str, w) -> float:
    """Leading-order worst-case margin along w: over the sources maximizing
    <w, y> exactly (w read as exact binary fractions), the largest
    k_r <w, flux_r> with k_r at the interval end that makes it worst."""
    wf = [Fraction(float(x)) for x in w]
    _, reactions = read_network(text)
    vals = [sum(a * b for a, b in zip(wf, s)) for s, _, _ in reactions]
    top = max(vals)
    margin = -math.inf
    for (s, t, (lo, hi)), v in zip(reactions, vals):
        if v != top:
            continue
        coeff = sum(a * (b - c) for a, c, b in zip(wf, s, t))
        margin = max(margin, float((hi if coeff > 0 else lo) * coeff))
    return margin


REVERSE_LV_TRANSITIONS = ((-1.0, 0.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5)))


def check_scan(text: str, result, transitions=None) -> list[str]:
    """Every near-zero cluster center's recomputed margin lies within
    margin_delta of zero (and matches the reported one); on reverse_lv the
    clusters sit exactly at the three transition directions."""
    problems = []
    clusters = result["near_zero_clusters"]
    delta = result["margin_delta"]
    for c in clusters:
        m = worst_case_margin(text, c["center"])
        if not (m >= -delta and abs(m - c["max_margin"]) <= 1e-9 * max(1.0, abs(m))):
            problems.append(f"cluster at {c['center']}: margin {m} (reported "
                            f"{c['max_margin']}) outside [-{delta}, inf)")
    if transitions is not None:
        if len(clusters) != len(transitions):
            problems.append(f"{len(clusters)} near-zero clusters, expected {len(transitions)}")
        for target in transitions:
            gaps = [math.acos(max(-1.0, min(1.0, float(np.dot(c["center"], target)))))
                    for c in clusters]
            if not gaps or min(gaps) >= 0.05:
                problems.append(f"no cluster within 0.05 rad of {target}")
    return problems


# ---------------------------------------------------------------------------
# cli-reports


def check_envelope(text: str, command: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    keys = list(payload)[: len(ENVELOPE)]
    if keys != list(ENVELOPE) or payload["tool"] != "crnkit" or payload["command"] != command:
        return payload, [f"envelope keys {keys} / command {payload.get('command')!r}"]
    return payload, []


def read_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def check_csv(text: str) -> list[str]:
    """Positive x columns, and a g column equal to sum(x log x - x)."""
    header, rows = read_csv(text)
    if len(rows) == 0:
        return ["csv has no rows"]
    X = rows[:, [i for i, h in enumerate(header) if h.startswith("x_")]]
    if np.any(X <= 0):
        return ["an x column is not positive"]
    g = np.sum(X * np.log(X) - X, axis=1)
    gap = np.abs(g - rows[:, header.index("g")]).max()
    if not gap <= 1e-9 * max(1.0, float(np.abs(g).max())):
        return [f"g column off by {gap:.3g}"]
    return []


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"root element is {root.tag}"]
    return []


def check_cli_call(kind: str, argv, code: int, text: str, fixture_text=None,
                   expected=None, laws=None) -> list[str]:
    """One CLI call: exit 0, then the check for its kind of report."""
    if code != 0:
        return [f"exit code {code}"]
    if kind == "simulate-csv":
        return check_csv(text)
    if kind.endswith("-svg"):
        return check_svg(text)
    payload, problems = check_envelope(text, argv[0])
    if problems:
        return problems
    if kind == "classify" and expected is not None:
        got = (payload["weakly_reversible"], payload["endotactic"],
               payload["strongly_endotactic"])
        if got != tuple(expected):
            problems.append(f"verdicts {got} differ from the table {tuple(expected)}")
    elif kind == "classify-direction":
        w = [Fraction(x) for x in payload["direction"]]
        inward = not replay_witness(fixture_text, w)[0]
        if payload["w_endotactic"] is not inward:
            problems.append(f"w_endotactic={payload['w_endotactic']} along {w}, "
                            f"the benchmark finds {inward}")
    elif kind == "birch-closed-form":
        if not np.allclose(payload["point"], (1.0, 3.0), rtol=0, atol=1e-10):
            problems.append(f"birch point {payload['point']} is not (1, 3)")
    elif kind == "birch":
        problems += check_birch(fixture_text, payload)
    elif kind == "steady-known":
        if not np.allclose(payload["x"], (1.0, 1.0), rtol=0, atol=1e-10):
            problems.append(f"steady state {payload['x']} is not (1, 1)")
    elif kind == "steady":
        if not (payload["residual"] <= 1e-8 and min(payload["x"]) > 0):
            problems.append(f"residual {payload['residual']} at {payload['x']}")
    elif kind == "scan-json":
        transitions = REVERSE_LV_TRANSITIONS if argv[1].endswith("reverse_lv.crn") else None
        problems += check_scan(fixture_text, payload, transitions)
    elif kind == "simulate-json":
        problems += check_trajectory(payload["times"], payload["states"], payload["events"],
                                     payload["t_end"], payload["rate_log"], (1.0, 2.0))
    elif kind == "simulate-futile":
        states = np.asarray(payload["states"])
        problems += check_trajectory(payload["times"], states, payload["events"],
                                     payload["t_end"])
        problems += check_conservation(states, laws)
        idx = reference_points(payload["times"])
        rates = payload["rate_log"][0][1]
        ref = reference_solution(fixture_text, rates, states[0],
                                 np.asarray(payload["times"])[idx])
        problems += check_against_reference(states[idx], ref)
    return problems


def check_cli_reports(workload, outputs, t_from: float) -> list[str]:
    tables = workload.context["tables"]
    networks, table = tables["NETWORKS"], tables["CLASSIFICATION"]
    problems, by_seed = [], {}
    for task, out in zip(workload.tasks, outputs):
        kind, fixture = task.meta["kind"], task.meta.get("fixture")
        text = out["bytes"].decode()
        laws = conservation_laws(networks[fixture]) if kind == "simulate-futile" else None
        found = check_cli_call(kind, out["argv"], out["code"], text,
                               networks.get(fixture), table.get(fixture), laws)
        problems += [f"{task.name}: {p}" for p in found]
        if kind == "simulate-json" and not found:
            payload = json.loads(text)
            by_seed.setdefault(task.meta["policy_seed"], []).append(
                (payload["times"], payload["states"]))
    if len(by_seed) == 2:
        problems += check_boxes({s: tail_box(t, t_from) for s, t in by_seed.items()})
    return problems
