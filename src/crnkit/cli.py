"""Command-line front end: classify | birch | simulate | steady | scan | jets.

One pipeline serves every subcommand: main parses the arguments, loads the
network once, hands it to the subcommand, and writes what comes back.  A
subcommand only builds its result: a payload dict, which main puts after
the envelope and dumps as JSON, or the finished CSV or SVG text.  One
writer sends either to stdout or to --out.

Outputs are deterministic: identical (input, flags, seed) produce
byte-identical JSON/CSV/SVG.  Every JSON report embeds the tool name,
version, schema version, and seed; nothing time- or host-dependent is
emitted.

Exit codes: 0 success, 1 parse/usage error, invalid value or unwritable
--out, 2 arrangement limit exceeded, 3 no convergence; every failure prints
one line to stderr.
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
from .jets import (_MAX_THETA_POINTS, JetSchedule, _index_grid, _theta_grid,
                   _worst_case_margin, cutoff_scan, domination_monitor, make_frame)
from .network import ParseError, _tempering_of, parse_network, stoichiometric_subspace


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
        if obj.dtype.kind in "iuf" and np.isfinite(obj).all():
            return obj.tolist()  # Python ints and finite floats, as the loop gives
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write(text: str, out_path: str | None):
    """text to stdout (out_path None or "-") or to the file out_path;
    ValueError, a one-line exit 1, when the file cannot be written."""
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}")


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:  # whatever the locale's encoding
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 ({exc.reason})")
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
    try:
        return np.array([float(v) for v in vals])
    except OverflowError:  # a rational such as 1e400 parses but has no float
        raise ParseError(f"{name}: {text} has an entry outside the float range")


# ---------------------------------------------------------------------------


def cmd_classify(args, net, tempering) -> dict:
    if args.direction is None:
        report = classify(net, sample_fallback=args.sample_fallback, seed=args.seed)
        return {"species": list(net.species_names), **report.to_dict()}
    w = _parse_vector(args.direction, net.n_species, "--direction")
    ok, violation = is_w_endotactic(net, w)
    return {"species": list(net.species_names), "direction": [str(c) for c in w],
            "w_endotactic": ok,
            "violating_reaction": None if violation is None else net.reactions.index(violation)}


def cmd_birch(args, net, tempering) -> dict:
    stoich = stoichiometric_subspace(net)
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    alpha = _parse_floats(args.alpha, net.n_species, "--alpha")
    sol = birch_point(stoich, x0, alpha, tol=args.tol)
    return {"x0": x0, "alpha": alpha, "point": sol.point, "residual": sol.residual,
            "iterations": sol.iterations}


def cmd_simulate(args, net, tempering) -> dict | str:
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    rates = (None if args.rates is None
             else tuple(_parse_floats(args.rates, net.n_reactions, "--rates").tolist()))
    policy = RatePolicy(mode=args.policy, seed=args.seed, dt=args.dt, rates=rates)
    traj = simulate(net, tempering, policy, x0, args.t_end)
    alpha = None if args.alpha is None else _parse_floats(args.alpha, net.n_species, "--alpha")
    if args.format == "csv":
        return _trajectory_csv(net, traj, alpha)
    if args.format == "svg":
        return _trajectory_svg(net, traj)
    return {"policy": policy.mode, "t_end": args.t_end, "species": net.species_names,
            "times": traj.times, "states": traj.states, "events": traj.events,
            "rate_log": traj.rate_log}


def _trajectory_csv(net, traj, alpha=None) -> str:
    G = g_along(traj, net, alpha=alpha)
    cols = ["t"] + [f"x_{s}" for s in net.species_names] + ["g", "dg_dt"]
    rows = np.column_stack([traj.times, traj.states, G[:, 1:]]).tolist()
    return "\n".join([",".join(cols)] + [",".join(map(repr, row)) for row in rows]) + "\n"


def _svg_header(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _trajectory_svg(net, traj) -> str:
    width, height, margin = 640, 480, 50.0
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


def cmd_steady(args, net, tempering) -> dict:
    x0 = _parse_floats(args.x0, net.n_species, "--x0")
    k = (_tempering_of(net, tempering).midpoints() if args.k is None
         else _parse_floats(args.k, net.n_reactions, "--k"))
    ss = find_steady_state(net, k, x0, tol=args.tol)
    return {"k": k, "x": ss.x, "residual": ss.residual}


def cmd_scan(args, net, tempering) -> dict | str:
    x0 = (np.ones(net.n_species) if args.x0 is None
          else _parse_floats(args.x0, net.n_species, "--x0"))
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
        theta_grid=_theta_grid(args.theta_max, args.theta_points),
        direction_samples=args.samples,
        seed=args.seed,
    )
    return _scan_svg(net, tempering, report) if args.format == "svg" else report


def _scan_svg(net, tempering, report) -> str:
    """Direction-circle plot of the worst-case leading margin for 2-species
    networks, with near-zero clusters marked."""
    width = height = 480
    cx, cy, r0 = width / 2, height / 2, width / 2 - 40
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


def cmd_jets(args, net, tempering) -> dict:
    vecs = []
    for chunk in args.frame.split(";"):
        vecs.append(_parse_floats(chunk, net.n_species, "--frame"))
    frame = make_frame(*vecs)
    schedule = JetSchedule(beta_kind=args.schedule, theta_kind=args.theta_schedule)
    if not 1 <= args.i_max < np.inf:
        raise ValueError(f"--i-max must be finite and at least 1, got {args.i_max}")
    report = domination_monitor(net, frame, schedule, i_range=_index_grid(args.i_max),
                                threshold=args.threshold)
    return {
        "frame": frame.vectors,
        "schedule": {"beta": args.schedule, "theta": args.theta_schedule},
        "reaction_classes": [{"kind": kind, "level": level}
                             for kind, level in report.pop("classes")],
        **report,
    }


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
        net, tempering = _load(args.file)
        result = args.func(args, net, tempering)
        if isinstance(result, dict):
            result = json.dumps(_jsonify({**_envelope(args.subcommand, args.seed), **result}),
                                indent=2) + "\n"
        _write(result, args.out)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
