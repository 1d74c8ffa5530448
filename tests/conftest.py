"""Shared fixture networks.

NETWORKS maps a short name to a parseable description; CLASSIFICATION
expectations (weakly reversible, endotactic, strongly endotactic) are
frozen from hand analysis of each network's reactant geometry.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from crnkit import parse_network

# child processes (the CLI and python -O tests) import crnkit from src too,
# with or without PYTHONPATH set for pytest itself, and fail on a
# RuntimeWarning as pytest does
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
os.environ["PYTHONWARNINGS"] = ",".join(
    w for w in (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning") if w)

NETWORKS = {
    # 2X -> X, 0 -> Y, 2Y -> X + Y: strongly endotactic, not weakly reversible
    "reverse_lv": """\
species: X Y
2X -> X       rate [1,2]
0 -> Y        rate [1,2]
2Y -> X + Y   rate [1,2]
""",
    # 2A <-> A+B, B -> 0 -> 2B: endotactic but not strongly
    "endo_not_strong": """\
species: A B
2A <-> A + B
B -> 0
0 -> 2B
""",
    # 0 -> 3A+B, 2A -> B, 2B -> A+B: strongly endotactic, not weakly reversible
    "strong_not_wr": """\
species: A B
0 -> 3A + B   rate [1,2]
2A -> B       rate [3]
2B -> A + B   rate [4,5]
""",
    # three reactions with sources on a triangle; one maximal source reacts
    # outward, so not endotactic (but (1,0)-endotactic)
    "triangle_out": """\
species: A B
A + B -> A + 2B
9/4A + B -> 3A + 2B
11/2A + 3/2B -> 19/4A + 3/4B
""",
    "a_to_b": """\
species: A B
A -> B
""",
    # S0+F -> S1+E -> S2+F, S2 -> S1 -> S0: not endotactic, not persistent
    # when the second rate is below the fourth
    "futile_cycle": """\
species: S0 S1 S2 E F
S0 + F -> S1 + E   rate [1]
S1 + E -> S2 + F   rate [1]
S2 -> S1           rate [2]
S1 -> S0           rate [2]
""",
    # 0 -> A -> B -> C -> 0: weakly reversible single cycle
    "chain_cycle": """\
species: A B C
0 -> A
A -> B
B -> C
C -> 0
""",
    # 2A <-> B, 2B <-> C, 2C <-> A: weakly reversible, prism reactant polytope
    "prism": """\
species: A B C
2A <-> B
2B <-> C
2C <-> A
""",
    # 4A -> A+B+C -> 4B -> 4C -> 2A+2C: tetrahedron reactant polytope
    "tetrahedron": """\
species: A B C
4A -> A + B + C
A + B + C -> 4B
4B -> 4C
4C -> 2A + 2C
""",
    # 0 <-> A, B <-> 2B: endotactic but not strongly (witness (0,-1))
    "birth_death": """\
species: A B
0 <-> A
B <-> 2B
""",
    # A -> B -> C -> A with 2A <-> 3B: weakly reversible, not strongly
    "pyramid": """\
species: A B C
A -> B
B -> C
C -> A
2A <-> 3B
""",
    "ab_reversible": """\
species: A B
A <-> B
""",
    # two reversible pairs whose linkage-class subspaces both equal H
    "double_reversible": """\
species: A B
A <-> B
2A <-> 2B
""",
}

# (weakly_reversible, endotactic, strongly_endotactic); the twelve-network
# table mirrors the classification fixtures, with ex91 an alias of the
# strong-not-weakly-reversible network.
CLASSIFICATION = {
    "reverse_lv": (False, True, True),
    "endo_not_strong": (False, True, False),
    "strong_not_wr": (False, True, True),
    "triangle_out": (False, False, False),
    "a_to_b": (False, False, False),
    "futile_cycle": (False, False, False),
    "ex91": (False, True, True),
    "chain_cycle": (True, True, True),
    "prism": (True, True, True),
    "tetrahedron": (False, True, True),
    "birth_death": (True, True, False),
    "pyramid": (True, True, False),
}

ALIASES = {"ex91": "strong_not_wr"}

STRONGLY_ENDOTACTIC = [
    "reverse_lv",
    "strong_not_wr",
    "chain_cycle",
    "prism",
    "tetrahedron",
]

# hexagon vertex set: right edge is maximal for (1, 0) and its upper vertex
# (index 1) for (0, 1); the (1,0)+eps(0,1) argmax switches at eps = sqrt(3)
_S = math.sqrt(3) / 2
HEXAGON = [
    (0.0, _S),
    (0.75, _S / 2),
    (0.75, -_S / 2),
    (0.0, -_S),
    (-0.75, -_S / 2),
    (-0.75, _S / 2),
]
HEXAGON_Q2_INDEX = 1


def network_text(name: str) -> str:
    return NETWORKS[ALIASES.get(name, name)]


def load(name: str):
    net, tempering = parse_network(network_text(name))
    return net, tempering


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
