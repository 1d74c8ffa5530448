"""Reaction network data model: species, complexes, reactions, temperings,
network parsing/serialization, and graph-level structure (linkage classes,
weak reversibility, stoichiometric subspace).

Stoichiometric coefficients are exact rationals throughout.  Derived
structure (integer rows and distinct sources for every exact decider, float
matrices, the stoichiometric subspace, linkage classes) is computed once per
network on first use and shared; arrays are read-only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .geometry import (
    RationalVector,
    _subspaces,
    row_space_basis,
)


class ParseError(ValueError):
    """Syntax or semantic error in a network file, with 1-based position
    (line None for a command-line value, which has none)."""

    def __init__(self, message: str, line: int | None = None, column: int = 1):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Species:
    name: str
    index: int


@dataclass(frozen=True)
class Complex:
    """A formal nonnegative rational combination of species."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if c < 0:
                raise ValueError(f"complex coefficients must be nonnegative, got {self.coeffs}")

    def __len__(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class Reaction:
    source: Complex
    target: Complex

    @property
    def flux(self) -> RationalVector:
        """Reaction vector target - source (derived, never stored)."""
        return tuple(t - s for s, t in zip(self.source.coeffs, self.target.coeffs))


@dataclass(frozen=True)
class Tempering:
    """Per-reaction compact positive rate intervals [lo, hi]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for i, (lo, hi) in enumerate(self.intervals):
            if not (0 < lo <= hi):
                raise ValueError(f"interval {i} must satisfy 0 < lo <= hi, got [{lo}, {hi}]")

    def __len__(self):
        return len(self.intervals)

    def contains(self, rates) -> bool:
        return all(lo <= Fraction(k) <= hi for (lo, hi), k in zip(self.intervals, rates))

    def midpoints(self) -> np.ndarray:
        return np.array([float((lo + hi) / 2) for lo, hi in self.intervals])

    def lows(self) -> np.ndarray:
        return np.array([float(lo) for lo, _ in self.intervals])

    def highs(self) -> np.ndarray:
        return np.array([float(hi) for _, hi in self.intervals])


_UNIT_INTERVAL = (Fraction(1), Fraction(1))


def _unit_tempering(n_reactions: int) -> Tempering:
    """Every rate fixed at 1: the default wherever no tempering is given."""
    return Tempering((_UNIT_INTERVAL,) * n_reactions)


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[Species, ...]
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate species names in {names}")
        for i, s in enumerate(self.species):
            if s.index != i:
                raise ValueError(f"species {s.name} has index {s.index}, expected {i}")
        n = len(self.species)
        for c in self.complexes:
            if len(c) != n:
                raise ValueError(f"complex {c.coeffs} has length {len(c)}, expected {n}")
        known = set(self.complexes)
        for r in self.reactions:
            if r.source not in known or r.target not in known:
                raise ValueError("reaction endpoints must be listed in complexes")

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    @property
    def species_names(self) -> list[str]:
        return [s.name for s in self.species]

    def source_matrix(self) -> np.ndarray:
        """Reactions-by-species float matrix of source coefficients (read-only)."""
        return self._float_matrices[0]

    def flux_matrix(self) -> np.ndarray:
        """Reactions-by-species float matrix of reaction vectors (read-only)."""
        return self._float_matrices[1]

    @cached_property
    def _float_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        Y = np.array([[float(c) for c in r.source.coeffs] for r in self.reactions])
        F = np.array([[float(c) for c in r.flux] for r in self.reactions])
        Y.flags.writeable = F.flags.writeable = False
        return Y, F

    @cached_property
    def _exact(self):
        """(edges, sources, fluxes, source_of, distinct): each reaction's
        (source, target) complex index; the source rows and the reaction
        vectors as Python-int tuples, each matrix times the lcm of its own
        denominators (a positive multiple, so every sign and order of
        <w, row> is kept); each reaction's index into distinct, the distinct
        source rows in order of first appearance."""
        index = {c: i for i, c in enumerate(self.complexes)}
        edges = tuple((index[r.source], index[r.target]) for r in self.reactions)
        sources = _over_lcm([r.source.coeffs for r in self.reactions])
        fluxes = _over_lcm([r.flux for r in self.reactions])
        distinct: dict[tuple[int, ...], int] = {}
        source_of = tuple(distinct.setdefault(row, len(distinct)) for row in sources)
        return edges, sources, fluxes, source_of, tuple(distinct)

    @cached_property
    def _stoichiometry(self) -> StoichiometryInfo:
        H, Hperp = _subspaces(self._exact[2], self.n_species)
        return StoichiometryInfo(tuple(H), tuple(Hperp), len(H))

    @cached_property
    def _linkage(self) -> LinkageInfo:
        n = len(self.complexes)
        edges, _, fluxes, _, _ = self._exact
        # one Warshall closure of both, on bitset rows: bit j of row i says i reaches j
        directed, linked = reach = [[1 << i for i in range(n)] for _ in range(2)]
        for rows, arcs in zip(reach, (edges, edges + tuple((b, a) for a, b in edges))):
            for a, b in arcs:
                rows[a] |= 1 << b
        for k in range(n):
            for rows in reach:
                for i, row in enumerate(rows):
                    if row >> k & 1:
                        rows[i] = row | rows[k]
        classes = [tuple(j for j in range(n) if row >> j & 1)
                   for i, row in enumerate(linked) if row & -row == 1 << i]  # i least
        # the directed closure is symmetric iff every target reaches its source
        return LinkageInfo(tuple(classes), all(directed[b] >> a & 1 for a, b in edges),
                           tuple(tuple(row_space_basis(
                               [row for row, (a, _) in zip(fluxes, edges) if a in members],
                               self.n_species)) for members in classes))


def _over_lcm(rows) -> tuple[tuple[int, ...], ...]:
    lcm = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * lcm) for x in row) for row in rows)


@dataclass(frozen=True)
class StoichiometryInfo:
    """Exact bases for the stoichiometric subspace H and its orthogonal
    complement (the conservation laws); the float matrix of H^perp and
    orthonormal bases of H and H^perp are built once per instance,
    read-only."""

    H_basis: tuple[RationalVector, ...]
    Hperp_basis: tuple[RationalVector, ...]
    dimension: int

    @property
    def n_species(self) -> int:
        for basis in (self.H_basis, self.Hperp_basis):
            if basis:
                return len(basis[0])
        return 0

    def Hperp_matrix(self) -> np.ndarray:
        return self._float_bases[0]

    def orthonormal_H(self) -> np.ndarray:
        """n x d matrix with orthonormal columns spanning H (d may be 0)."""
        return self._float_bases[1]

    def orthonormal_Hperp(self) -> np.ndarray:
        """n x (n - d) matrix with orthonormal columns spanning H^perp."""
        return self._float_bases[2]

    @cached_property
    def _float_bases(self) -> tuple[np.ndarray, ...]:
        n = self.n_species
        H, Hperp = (np.array([[float(x) for x in v] for v in basis], dtype=float)
                    .reshape(len(basis), n) for basis in (self.H_basis, self.Hperp_basis))
        Q, Qperp = (np.linalg.qr(M.T)[0][:, :len(M)] if len(M) else np.zeros((n, 0))
                    for M in (H, Hperp))
        for M in (Hperp, Q, Qperp):
            M.flags.writeable = False
        return Hperp, Q, Qperp


@dataclass(frozen=True)
class LinkageInfo:
    """Partition of the complexes into linkage classes plus weak
    reversibility and each class's own stoichiometric subspace basis."""

    classes: tuple[tuple[int, ...], ...]
    weakly_reversible: bool
    class_subspaces: tuple[tuple[RationalVector, ...], ...]


# ---------------------------------------------------------------------------
# parsing

_NUMBER = re.compile(r"(\d+/\d+|\d+\.\d+|\.\d+|\d+)")
_SCI = re.compile(r"(\d+\.?\d*|\.\d+)[eE][+-]?\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INTERVAL = re.compile(r"\[\s*([^\],]+?)\s*(?:,\s*([^\],]+?)\s*)?\]")


def _parse_side(text: str, line_no: int, col0: int, species_order: list[str],
                fixed: bool) -> dict[str, Fraction]:
    """Parse one side of a reaction into a species -> coefficient map."""
    stripped = text.strip()
    if stripped == "0":
        return {}
    if not stripped:
        raise ParseError("empty complex", line_no, col0 + 1)
    coeffs: dict[str, Fraction] = {}
    for term in stripped.split("+"):
        pos = col0 + text.find(term)
        term_s = term.strip()
        if not term_s:
            raise ParseError("empty term in complex", line_no, pos + 1)
        if _SCI.match(term_s):
            raise ParseError(
                f"scientific notation not allowed in {term_s!r}", line_no, pos + 1
            )
        m = _NUMBER.match(term_s)
        if m:
            coeff = Fraction(m.group(1))
            rest = term_s[m.end():].lstrip()
            if rest.startswith("*"):
                rest = rest[1:].lstrip()
        else:
            coeff = Fraction(1)
            rest = term_s
        name_m = _NAME.fullmatch(rest)
        if name_m is None:
            raise ParseError(f"cannot read term {term_s!r}", line_no, pos + 1)
        name = name_m.group(0)
        if fixed and name not in species_order:
            raise ParseError(f"unknown species {name!r}", line_no, pos + 1)
        if name not in species_order:
            species_order.append(name)
        coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
    return coeffs


def _parse_number(text: str, line_no: int, col: int) -> Fraction:
    t = text.strip()
    if _SCI.fullmatch(t):
        raise ParseError(f"scientific notation not allowed in {t!r}", line_no, col)
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot read number {t!r}", line_no, col) from None


def _parse_intervals(text: str, line_no: int, col0: int):
    out = []
    pos = 0
    while pos < len(text):
        chunk = text[pos:]
        if not chunk.strip():
            break
        m = _INTERVAL.match(chunk.lstrip())
        if m is None:
            raise ParseError(
                f"expected interval like [lo,hi], got {chunk.strip()!r}",
                line_no,
                col0 + pos + 1,
            )
        lo = _parse_number(m.group(1), line_no, col0 + pos + 1)
        hi = _parse_number(m.group(2), line_no, col0 + pos + 1) if m.group(2) else lo
        if not (0 < lo <= hi):
            raise ParseError(
                f"interval must satisfy 0 < lo <= hi, got [{lo},{hi}]",
                line_no,
                col0 + pos + 1,
            )
        out.append((lo, hi))
        pos += len(chunk) - len(chunk.lstrip()) + m.end()
    return out


def parse_network(text: str) -> tuple[ReactionNetwork, Tempering | None]:
    """Parse the line-oriented network format.

    Grammar (UTF-8, '#' starts a comment):

        species: A B C              # optional, fixes species order
        2A + B -> C  rate [1,2]     # rate interval optional
        A <-> B      rate [1] [3,3] # reversible: one interval per direction

    A complex is ``0`` or a '+'-separated sum of ``coeff*Name`` terms; the
    ``*`` is optional and coefficients may be integers, fractions ``p/q``,
    or finite decimals (read exactly).  ``<->`` expands to two reactions,
    forward first.  If any reaction carries a rate interval, a Tempering is
    returned with unspecified reactions defaulting to [1, 1].

    Returns:
        (network, tempering) with tempering None when no rates appear.

    Raises:
        ParseError: with 1-based line and column of the offending token.
    """
    species_order: list[str] = []
    fixed = False
    raw: list[tuple[dict, dict, object]] = []  # (lhs, rhs, intervals-or-None)
    any_rate = False
    for line_no, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0]
        if not line.strip():
            continue
        if line.strip().startswith("species:"):
            if raw or fixed:
                raise ParseError(
                    "species header must precede all reactions",
                    line_no,
                    line.find("species:") + 1,
                )
            names = line.strip()[len("species:"):].split()
            if not names:
                raise ParseError("empty species header", line_no, 1)
            for name in names:
                if not _NAME.fullmatch(name):
                    raise ParseError(f"bad species name {name!r}", line_no, 1)
                if name in species_order:
                    raise ParseError(f"duplicate species {name!r}", line_no, 1)
                species_order.append(name)
            fixed = True
            continue
        reversible = "<->" in line
        arrow = "<->" if reversible else "->"
        if "->" not in line:
            raise ParseError("expected '->' or '<->'", line_no, 1)
        lhs_text, rhs_full = line.split(arrow, 1)
        rate_m = re.search(r"\brate\b", rhs_full)
        if rate_m:
            rhs_text = rhs_full[: rate_m.start()]
            intervals = _parse_intervals(
                rhs_full[rate_m.end():],
                line_no,
                len(lhs_text) + len(arrow) + rate_m.end(),
            )
            if not intervals:
                raise ParseError("'rate' with no interval", line_no,
                                 len(lhs_text) + len(arrow) + rate_m.start() + 1)
            want = 2 if reversible else 1
            if len(intervals) > want:
                raise ParseError(
                    f"expected at most {want} interval(s), got {len(intervals)}",
                    line_no,
                    len(lhs_text) + len(arrow) + rate_m.start() + 1,
                )
            if reversible and len(intervals) == 1:
                intervals = [intervals[0], intervals[0]]
            any_rate = True
        else:
            rhs_text = rhs_full
            intervals = None
        lhs = _parse_side(lhs_text, line_no, 0, species_order, fixed)
        rhs = _parse_side(rhs_text, line_no, len(lhs_text) + len(arrow), species_order, fixed)
        raw.append((lhs, rhs, intervals[0] if intervals else None))
        if reversible:
            raw.append((rhs, lhs, intervals[1] if intervals else None))
    if not raw:
        raise ParseError("no reactions found", max(1, text.count("\n") + 1), 1)

    species = tuple(Species(name, i) for i, name in enumerate(species_order))

    def to_complex(side: dict) -> Complex:
        return Complex(tuple(side.get(name, Fraction(0)) for name in species_order))

    complexes: list[Complex] = []
    seen: set[Complex] = set()
    reactions = []
    intervals_out = []
    for lhs, rhs, interval in raw:
        src, tgt = to_complex(lhs), to_complex(rhs)
        for c in (src, tgt):
            if c not in seen:
                seen.add(c)
                complexes.append(c)
        reactions.append(Reaction(src, tgt))
        intervals_out.append(interval if interval else _UNIT_INTERVAL)
    net = ReactionNetwork(species, tuple(complexes), tuple(reactions))
    tempering = Tempering(tuple(intervals_out)) if any_rate else None
    return net, tempering


def _format_coeff(c: Fraction) -> str:
    return str(c)  # Fraction renders as 'p' or 'p/q'


def _format_complex(cx: Complex, names: list[str]) -> str:
    terms = []
    for c, name in zip(cx.coeffs, names):
        if c == 0:
            continue
        terms.append(name if c == 1 else f"{_format_coeff(c)}{name}")
    return " + ".join(terms) if terms else "0"


def serialize_network(net: ReactionNetwork, tempering: Tempering | None = None) -> str:
    """Render a network (one line per reaction) so that parse_network
    round-trips to an equal network and tempering."""
    names = net.species_names
    lines = ["species: " + " ".join(names)]
    for i, r in enumerate(net.reactions):
        line = f"{_format_complex(r.source, names)} -> {_format_complex(r.target, names)}"
        if tempering is not None:
            lo, hi = tempering.intervals[i]
            line += f" rate [{_format_coeff(lo)},{_format_coeff(hi)}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure


def stoichiometric_subspace(net: ReactionNetwork) -> StoichiometryInfo:
    """Exact bases for H = span of the reaction vectors and for H-perp, with
    dim(H) + |Hperp_basis| = n (rank-nullity over the rationals).  Computed
    once per network: every call returns the same object."""
    return net._stoichiometry


def linkage_classes(net: ReactionNetwork) -> LinkageInfo:
    """Linkage classes (weak components of the reaction graph, ascending, by
    least complex), weak reversibility (a symmetric reachability closure) and
    each class's subspace; once per network: every call returns one object."""
    return net._linkage

