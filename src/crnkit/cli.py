"""Command-line front end: classify | birch | simulate | steady | scan | jets.

Outputs are deterministic: identical (input, flags, seed) produce
byte-identical JSON/CSV/SVG.  Every report embeds the tool name, version,
schema version, and seed; nothing time- or host-dependent is emitted.

Exit codes: 0 success, 1 parse/usage error or invalid value, 2 arrangement
limit exceeded, 3 no convergence; every failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, SCHEMA_VERSION
from .birch import NoConvergence, birch_point
from .classify import classify, is_w_endotactic
from .dynamics import RatePolicy, find_steady_state, g_along, simulate
from .geometry import LimitExceeded
from .jets import (_MAX_THETA_POINTS, JetSchedule, _worst_case_margin, cutoff_scan,
                   domination_monitor, make_frame)
from .network import ParseError, _unit_tempering, parse_network, stoichiometric_subspace


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for limits)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _envelope(command: str, seed: int) -> dict:
    return {
        "tool": "crnkit",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
    }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _emit(payload: dict, out_path: str | None):
    text = json.dumps(_jsonify(payload), indent=2) + "\n"
    _write_text(text, out_path)


def _write_text(text: str, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return parse_network(text)


def _parse_vector(text: str, n: int, name: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"{name} needs {n} comma-separated values, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{name}: cannot parse {text!r} as rationals")


def _parse_floats(text: str, n: int, name: str) -> np.ndarray:
    vals = _parse_vector(text, n, name)
    return np.array([float(v) for v in vals])


# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    net, _ = _load(args.file)
    payload = _envelope("classify", args.seed)
    payload["species"] = list(net.species_names)
    if args.direction is not None:
        w = _parse_vector(args.direction, net.n_species, "--direction")
        ok, violation = is_w_endotactic(net, w)
        payload["direction"] = [str(c) for c in w]
        payload["w_endotactic"] = ok
        payload["violating_reaction"] = (
            None if violation is None else net.reactions.index(violation)
        )
    else:
        report = classify(net, sample_fallback=args.sample_fallback, seed=args.seed)
        payload.update(report.to_dict())
    _emit(payload, args.out)
    return 0


def cmd_birch(args) -> int:
    net, _ = _load(args.file)
    stoich = stoichiometric_subspace(net)
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    alpha = _parse_floats(args.alpha, net.n_species, "--alpha")
    sol = birch_point(stoich, x0, alpha, tol=args.tol)
    payload = _envelope("birch", args.seed)
    payload["x0"] = [float(v) for v in x0]
    payload["alpha"] = [float(v) for v in alpha]
    payload["point"] = list(sol.point)
    payload["residual"] = sol.residual
    payload["iterations"] = sol.iterations
    _emit(payload, args.out)
    return 0


def _rates(text: str, net, name: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _parse_floats(text, net.n_reactions, name))


def cmd_simulate(args) -> int:
    net, tempering = _load(args.file)
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    rates = None if args.rates is None else _rates(args.rates, net, "--rates")
    policy = RatePolicy(mode=args.policy, seed=args.seed, dt=args.dt, rates=rates)
    traj = simulate(net, tempering, policy, x0, args.t_end)
    alpha = None
    if args.alpha is not None:
        alpha = _parse_floats(args.alpha, net.n_species, "--alpha")
    if args.format == "csv":
        _write_text(_trajectory_csv(net, traj, alpha), args.out)
        return 0
    if args.format == "svg":
        _write_text(_trajectory_svg(net, traj), args.out)
        return 0
    payload = _envelope("simulate", args.seed)
    payload["policy"] = policy.mode
    payload["t_end"] = float(args.t_end)
    payload["species"] = list(net.species_names)
    payload["times"] = [float(t) for t in traj.times]
    payload["states"] = [[float(v) for v in row] for row in traj.states]
    payload["events"] = list(traj.events)
    payload["rate_log"] = [
        [float(t), [float(k) for k in ks]] for t, ks in traj.rate_log
    ]
    _emit(payload, args.out)
    return 0


def _trajectory_csv(net, traj, alpha=None) -> str:
    G = g_along(traj, net, alpha=alpha)
    cols = ["t"] + [f"x_{s}" for s in net.species_names] + ["g", "dg_dt"]
    lines = [",".join(cols)]
    for row_idx in range(len(traj.times)):
        vals = [repr(float(traj.times[row_idx]))]
        vals += [repr(float(v)) for v in traj.states[row_idx]]
        vals += [repr(float(G[row_idx, 1])), repr(float(G[row_idx, 2]))]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _svg_header(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _trajectory_svg(net, traj, width: int = 640, height: int = 480) -> str:
    margin = 50.0
    times = np.asarray(traj.times, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    t_lo, t_hi = float(times[0]), float(times[-1])
    x_lo, x_hi = 0.0, float(states.max()) or 1.0
    span_t = (t_hi - t_lo) or 1.0
    span_x = (x_hi - x_lo) or 1.0

    def sx(t):
        return margin + (t - t_lo) / span_t * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - x_lo) / span_x * (height - 2 * margin)

    parts = [_svg_header(width, height)]
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
    )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" font-size="14" '
        f'text-anchor="middle">t</text>\n'
    )
    for s_idx, name in enumerate(net.species_names):
        color = _SVG_COLORS[s_idx % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(times[i]):.2f},{sy(states[i, s_idx]):.2f}" for i in range(len(times))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>\n'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{sy(states[-1, s_idx]) + 4:.2f}" '
            f'font-size="12" fill="{color}">{name}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def cmd_steady(args) -> int:
    net, tempering = _load(args.file)
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    if tempering is None:
        tempering = _unit_tempering(net.n_reactions)
    if args.k is not None:
        k = _rates(args.k, net, "--k")
    else:
        k = tuple(tempering.midpoints())
    ss = find_steady_state(net, k, x0, tol=args.tol)
    payload = _envelope("steady", args.seed)
    payload["k"] = list(k)
    payload["x"] = [float(v) for v in ss.x]
    payload["residual"] = float(ss.residual)
    _emit(payload, args.out)
    return 0


def cmd_scan(args) -> int:
    net, tempering = _load(args.file)
    if args.x0 is not None:
        x0 = _parse_floats(args.x0, net.n_species, "--x0")
    else:
        x0 = np.ones(net.n_species)
    if not 1 < args.theta_max < np.inf:
        raise ValueError(f"--theta-max must be finite and above 1, got {args.theta_max}")
    if args.theta_points > _MAX_THETA_POINTS:  # before the grid it sizes is built
        raise ValueError(f"--theta-points must be at most {_MAX_THETA_POINTS}, "
                         f"got {args.theta_points}")
    if args.format == "svg" and net.n_species != 2:  # before the scan it would plot
        raise ParseError("svg scan output needs a 2-species network")
    report = cutoff_scan(
        net,
        tempering,
        x0,
        theta_grid=np.geomspace(1.5, args.theta_max, args.theta_points),
        direction_samples=args.samples,
        seed=args.seed,
    )
    if args.format == "svg":
        _write_text(_scan_svg(net, tempering, report), args.out)
        return 0
    payload = _envelope("scan", args.seed)
    payload.update(report)
    _emit(payload, args.out)
    return 0


def _scan_svg(net, tempering, report, width: int = 480, height: int = 480) -> str:
    """Direction-circle plot of the worst-case leading margin for 2-species
    networks, with near-zero clusters marked."""
    cx, cy, r0 = width / 2, height / 2, min(width, height) / 2 - 40
    angles = np.linspace(0, 2 * np.pi, 361)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    margins = _worst_case_margin(net, tempering, circle)
    scale = max(1.0, float(np.abs(margins).max()))
    radii = r0 / 2 * (1 + margins / (2 * scale))
    parts = [_svg_header(width, height)]
    parts.append(
        f'<circle cx="{cx}" cy="{cy}" r="{r0 / 2:.1f}" fill="none" '
        f'stroke="#888" stroke-dasharray="4 4"/>\n'
    )
    pts = [f"{cx + rr * c:.2f},{cy - rr * s:.2f}" for rr, (c, s) in zip(radii, circle)]
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>\n'
    )
    for cluster in report["near_zero_clusters"]:
        vx, vy = cluster["center"]
        parts.append(
            f'<circle cx="{cx + r0 / 2 * vx:.2f}" cy="{cy - r0 / 2 * vy:.2f}" '
            f'r="5" fill="#d62728"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def cmd_jets(args) -> int:
    net, _ = _load(args.file)
    vecs = []
    for chunk in args.frame.split(";"):
        vecs.append(_parse_floats(chunk, net.n_species, "--frame"))
    frame = make_frame(*vecs)
    schedule = JetSchedule(beta_kind=args.schedule, theta_kind=args.theta_schedule)
    if not 1 <= args.i_max < np.inf:
        raise ValueError(f"--i-max must be finite and at least 1, got {args.i_max}")
    with np.errstate(over="ignore"):  # geomspace overflows inside near the float max
        i_range = np.unique(np.rint(np.geomspace(1, args.i_max, 60)))
    report = domination_monitor(
        net, frame, schedule, i_range=i_range, threshold=args.threshold
    )
    payload = _envelope("jets", args.seed)
    payload["frame"] = [[float(v) for v in w] for w in frame.vectors]
    payload["schedule"] = {"beta": args.schedule, "theta": args.theta_schedule}
    payload["reaction_classes"] = [
        {"kind": kind, "level": level} for kind, level in report.pop("classes")
    ]
    payload.update(report)
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crnkit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"crnkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("file", help="network description file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="decide endotactic classes")
    common(p)
    p.add_argument("--direction", default=None,
                   help="comma-separated rational direction for a single check")
    p.add_argument("--sample-fallback", action="store_true",
                   help="fall back to sampling when the arrangement limit is hit")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("birch", help="solve for the Birch point")
    common(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_birch)

    p = sub.add_parser("simulate", help="integrate mass-action dynamics")
    common(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--policy", default="constant-mid",
                   choices=["constant-mid", "constant-sampled",
                            "piecewise-constant", "fixed"])
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--rates", default=None,
                   help="comma-separated rates for --policy fixed")
    p.add_argument("--alpha", default=None, help="reference point for g columns")
    p.add_argument("--format", default="json", choices=["json", "csv", "svg"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("steady", help="find a positive steady state")
    common(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--k", default=None, help="comma-separated rate constants")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("scan", help="worst-case sum-of-pulls cutoff scan")
    common(p)
    p.add_argument("--x0", default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--theta-max", type=float, default=1e6)
    p.add_argument("--theta-points", type=int, default=50)
    p.add_argument("--format", default="json", choices=["json", "svg"])
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("jets", help="jet-frame domination monitor")
    common(p)
    p.add_argument("--frame", required=True,
                   help="semicolon-separated comma vectors, e.g. '0,-1;-1,0'")
    p.add_argument("--schedule", default="power", choices=["power", "decaying"])
    p.add_argument("--theta-schedule", default="exp", choices=["exp", "slow"])
    p.add_argument("--i-max", type=float, default=5000.0)
    p.add_argument("--threshold", type=float, default=1e3)
    p.set_defaults(func=cmd_jets)
    return parser


# options whose value is a vector; a value such as '-1,0' would otherwise
# be read as an unknown option
_VECTOR_OPTIONS = frozenset({"--direction", "--x0", "--alpha", "--rates", "--k", "--frame"})
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """'--x0 -1,1' becomes '--x0=-1,1'."""
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_vectors(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"crnkit: parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an invalid value the library rejected; numpy may wrap long arrays
        # in the message over several lines
        print(f"crnkit: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"crnkit: limit exceeded: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"crnkit: no convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
