"""Reaction network data model: species, complexes, reactions, temperings,
network parsing/serialization, and graph-level structure (linkage classes,
weak reversibility, stoichiometric subspace).

Stoichiometric coefficients are exact rationals throughout.  Derived
structure (integer rows and distinct sources for every exact decider, float
matrices, the stoichiometric subspace, linkage classes) is computed once per
network on first use and shared; arrays are read-only.  The compiled
mass-action kernel is not among them: dynamics keeps one per process for
each (n_species, _mass_action_terms), so a network holds plain, picklable
data only.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager, suppress
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


# the absent coefficient and the implicit one, shared by every parsed complex
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Complex:
    """A formal nonnegative rational combination of species."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if c is not _ZERO and c < 0:  # parsed complexes share _ZERO: no comparison
                raise ValueError(f"complex coefficients must be nonnegative, got {self.coeffs}")
        # the dataclass hash, taken once: a Fraction's hash takes a modular inverse
        object.__setattr__(self, "_hash", hash((self.coeffs,)))

    def __len__(self):
        return len(self.coeffs)

    def __hash__(self):
        return self._hash


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
        """Whether rates has one value per interval, each inside it."""
        rates = tuple(rates)
        return len(rates) == len(self.intervals) and \
            all(lo <= Fraction(k) <= hi for (lo, hi), k in zip(self.intervals, rates))

    def midpoints(self) -> np.ndarray:
        return _floats(((lo + hi) / 2 for lo, hi in self.intervals), "a rate interval endpoint")

    def lows(self) -> np.ndarray:
        return _floats((lo for lo, _ in self.intervals), "a rate interval endpoint")

    def highs(self) -> np.ndarray:
        return _floats((hi for _, hi in self.intervals), "a rate interval endpoint")


_UNIT_INTERVAL = (Fraction(1), Fraction(1))


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
            if len(c.coeffs) != n:
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
        with _in_float_range("a stoichiometric coefficient"):
            Y = np.array([[float(c) for c in r.source.coeffs] for r in self.reactions])
            F = np.array([[float(c) for c in r.flux] for r in self.reactions])
        Y.flags.writeable = F.flags.writeable = False
        return Y, F

    @cached_property
    def _mass_action_terms(self):
        """(sources, fluxes), one entry per reaction: the nonzero source
        coefficients as (species, exponent) pairs, an int exponent where it
        is integral and a float otherwise, and the nonzero reaction-vector
        entries as (species, float coefficient) pairs; the sparse rows that
        the mass-action kernel is written out from, and its cache key with
        n_species (dynamics._kernel)."""
        with _in_float_range("a stoichiometric coefficient"):
            sources = tuple(tuple((i, int(c) if c.denominator == 1 else float(c))
                                  for i, c in enumerate(r.source.coeffs) if c)
                            for r in self.reactions)
            fluxes = tuple(tuple((i, float(c)) for i, c in enumerate(r.flux) if c)
                           for r in self.reactions)
        return sources, fluxes

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


def _positive(v, n: int, name: str) -> np.ndarray:
    """v as n floats, or ValueError unless it is n finite positive values."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{name} must be {n} finite positive values, got {v}")
    return v


def _seed_of(seed) -> int:
    """seed as an int, or ValueError unless it is a nonnegative integer
    (a Python or numpy int): the one seed rule, as numpy's generators take
    no other."""
    with suppress(TypeError):
        if operator.index(seed) >= 0:
            return operator.index(seed)
    raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _tempering_of(net: ReactionNetwork, tempering: Tempering | None) -> Tempering:
    """The tempering, every rate fixed at 1 when it is None (the one default
    for unit rates); ValueError unless it has one interval per reaction."""
    if tempering is None:
        return Tempering((_UNIT_INTERVAL,) * net.n_reactions)
    if len(tempering) != net.n_reactions:
        raise ValueError(f"tempering must have {net.n_reactions} intervals, got {len(tempering)}")
    return tempering


@contextmanager
def _in_float_range(what: str):
    """The one rule for a network's float views: an exact entry past the
    float range (float() overflows) is a ValueError naming what holds it,
    one line at the CLI, not an OverflowError."""
    try:
        yield
    except OverflowError:
        raise ValueError(f"{what} is outside the float range") from None


def _floats(values, what: str) -> np.ndarray:
    """The exact values as a float array, under _in_float_range(what)."""
    with _in_float_range(what):
        return np.array([float(v) for v in values])


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
        with _in_float_range("a stoichiometric basis vector"):
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

# one token after optional blanks: sci is matched only to be refused, rate is
# the keyword only where '[' follows, and bad is a character that starts no token
_TOKEN = re.compile(r"""\s*(?:
    (?P<sci>(?:\d+\.?\d*|\.\d+)[eE][+-]?\d+)
  | (?P<number>\d+/\d+|\d+\.\d+|\.\d+|\d+)
  | (?P<rate>rate(?=\s*\[))
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><?->|[+*\[\],:])
  | (?P<bad>\S))""", re.VERBOSE)


def _scan(line: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based column) of every token, then ("end", "", len + 1)."""
    tokens = []
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("end", "", len(line) + 1))
    return tokens


def _unexpected(token, line_no: int, expected: str) -> ParseError:
    kind, text, col = token
    if kind == "sci":
        return ParseError(f"scientific notation not allowed in {text!r}", line_no, col)
    got = "end of line" if kind == "end" else repr(text)
    return ParseError(f"expected {expected}, got {got}", line_no, col)


def _number(token, line_no: int) -> Fraction:
    """The one number rule, for coefficients and rate endpoints: an integer,
    p/q or a finite decimal, read exactly."""
    kind, text, col = token
    if kind != "number":
        raise _unexpected(token, line_no, "a number")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", line_no, col) from None
    except ValueError:  # an integer past int's digit limit
        raise ParseError(f"cannot read number {text!r}", line_no, col) from None


def _read_complex(tokens, i: int, line_no: int, names: dict[str, int],
                  fixed: bool) -> tuple[dict[int, Fraction], int]:
    """The complex from tokens[i] on ('0' alone is the empty one), as {species
    index: coefficient}, and the index after it; a new name joins names unless fixed."""
    if tokens[i][1] == "0" and tokens[i + 1][0] != "name" and tokens[i + 1][1] != "*":
        return {}, i + 1
    coeffs: dict[int, Fraction] = {}
    while True:
        coeff = _ONE
        if tokens[i][0] == "number":
            coeff = _number(tokens[i], line_no)
            i += 2 if tokens[i + 1][1] == "*" else 1
        kind, name, col = tokens[i]
        if kind != "name":
            raise _unexpected(tokens[i], line_no, "a species")
        index = names.get(name)
        if index is None:
            if fixed:
                raise ParseError(f"unknown species {name!r}", line_no, col)
            index = names[name] = len(names)
        coeffs[index] = coeffs.get(index, _ZERO) + coeff
        if tokens[i + 1][1] != "+":
            return coeffs, i + 1
        i += 2


def _read_interval(tokens, i: int, line_no: int) -> tuple[tuple[Fraction, Fraction], int]:
    """The interval [lo] or [lo,hi] opened at tokens[i], and the index past its ']'."""
    lo = hi = _number(tokens[i + 1], line_no)
    end = i + 2
    if tokens[end][1] == ",":
        hi = _number(tokens[end + 1], line_no)
        end += 2
    if tokens[end][1] != "]":
        raise _unexpected(tokens[end], line_no, "']'")
    if not 0 < lo <= hi:
        raise ParseError(f"interval must satisfy 0 < lo <= hi, got [{lo},{hi}]",
                         line_no, tokens[i][2])
    return (lo, hi), end + 1


def parse_network(text: str) -> tuple[ReactionNetwork, Tempering | None]:
    """Parse the line-oriented network format.

    Grammar ('#' starts a comment):

        species: A B C              # optional, fixes species order
        2A + B -> C  rate [1,2]     # rate interval optional
        A <-> B      rate [1] [3,3] # reversible: one interval per direction

    A complex is ``0`` or a '+'-separated sum of ``coeff*Name`` terms; the
    ``*`` is optional.  One number rule serves coefficients and interval
    endpoints: an integer, a fraction ``p/q`` or a finite decimal, read
    exactly (no sign, no exponent).  ``rate`` is the keyword only where
    '[' follows it, and a species name elsewhere.  ``<->`` expands to two
    reactions, forward first.  If any reaction carries a rate interval, a
    Tempering is returned with unspecified reactions defaulting to [1, 1].

    Returns:
        (network, tempering) with tempering None when no rates appear.

    Raises:
        ParseError: with the 1-based line and the column of the offending
        token (one past the line's end when the line ends too soon).
    """
    names: dict[str, int] = {}  # species index by name, in the header's or first-use order
    fixed = False
    raw: list[tuple[dict, dict, tuple | None]] = []  # (lhs, rhs, interval)
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _scan(line.partition("#")[0])
        if len(tokens) == 1:
            continue
        if tokens[0][1] == "species" and tokens[1][1] == ":":
            if raw or fixed:
                raise ParseError("species header must precede all reactions", line_no,
                                 tokens[0][2])
            if len(tokens) == 3:
                raise ParseError("empty species header", line_no, tokens[2][2])
            for token in tokens[2:-1]:
                if token[0] != "name":
                    raise _unexpected(token, line_no, "a species name")
                if token[1] in names:
                    raise ParseError(f"duplicate species {token[1]!r}", line_no, token[2])
                names[token[1]] = len(names)
            fixed = True
            continue
        lhs, i = _read_complex(tokens, 0, line_no, names, fixed)
        arrow = tokens[i][1]
        if arrow not in ("->", "<->"):
            raise _unexpected(tokens[i], line_no, "'->' or '<->'")
        rhs, i = _read_complex(tokens, i + 1, line_no, names, fixed)
        intervals = []
        if tokens[i][0] == "rate":  # '[' follows, so at least one interval
            want = 2 if arrow == "<->" else 1
            i += 1
            while tokens[i][1] == "[":
                if len(intervals) == want:
                    raise ParseError(f"expected at most {want} interval(s)", line_no,
                                     tokens[i][2])
                interval, i = _read_interval(tokens, i, line_no)
                intervals.append(interval)
        if tokens[i][0] != "end":
            raise _unexpected(tokens[i], line_no, "'+', 'rate [lo,hi]' or end of line")
        raw.append((lhs, rhs, intervals[0] if intervals else None))
        if arrow == "<->":
            raw.append((rhs, lhs, intervals[-1] if intervals else None))
    if not raw:
        raise ParseError("no reactions found", max(1, text.count("\n") + 1), 1)

    n = len(names)
    # each distinct complex once, in order of first appearance, and the one
    # object every reaction with it holds
    distinct: dict[Complex, Complex] = {}

    def complex_of(side):
        cx = Complex(tuple(side.get(j, _ZERO) for j in range(n)))
        return distinct.setdefault(cx, cx)

    reactions = tuple(Reaction(complex_of(lhs), complex_of(rhs)) for lhs, rhs, _ in raw)
    net = ReactionNetwork(tuple(Species(name, j) for j, name in enumerate(names)),
                          tuple(distinct), reactions)
    given = [interval for *_, interval in raw]
    if not any(given):
        return net, None
    return net, Tempering(tuple(interval or _UNIT_INTERVAL for interval in given))


def _format_complex(cx: Complex, names: list[str]) -> str:
    terms = [name if c == 1 else f"{c}{name}" for c, name in zip(cx.coeffs, names) if c]
    return " + ".join(terms) or "0"


def serialize_network(net: ReactionNetwork, tempering: Tempering | None = None) -> str:
    """Render a network (one line per reaction) so that parse_network
    round-trips to an equal network and tempering; ValueError unless a
    given tempering has one interval per reaction."""
    if tempering is not None:
        tempering = _tempering_of(net, tempering)
    names = net.species_names
    lines = ["species: " + " ".join(names)]
    for i, r in enumerate(net.reactions):
        line = f"{_format_complex(r.source, names)} -> {_format_complex(r.target, names)}"
        if tempering is not None:
            lo, hi = tempering.intervals[i]
            line += f" rate [{lo},{hi}]"
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

