"""The benchmark's workloads, each a fixed list of tasks built from a seed.

Building a workload generates its inputs and parses every network its tasks
use; this is the work that ``setup_s`` times.  Running a task makes one call
into crnkit and returns the output unchanged for the checks in ``checks.py``.
Calls go through the ``crnkit`` package namespace at call time, so a tracer
that rebinds those names sees the benchmark's own calls as well as crnkit's
internal ones.

Nothing here imports scipy: oracle imports stay out of ``setup_s`` and
``peak_rss_mb``.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import crnkit
import crnkit.cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_FILE = ROOT / "tests" / "conftest.py"


@dataclass
class Task:
    """One closed-loop operation: ``run()`` makes the crnkit call(s)."""

    name: str
    stratum: str
    run: Callable[[], Any]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list[Task]
    context: dict = field(default_factory=dict)


def load_fixture_tables(path: Path = FIXTURE_FILE) -> dict:
    """NETWORKS, CLASSIFICATION and ALIASES from the test suite's fixture
    file, read as literals (pytest is not imported)."""
    wanted = {"NETWORKS", "CLASSIFICATION", "ALIASES"}
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in wanted:
                out[target.id] = ast.literal_eval(node.value)
    missing = wanted - set(out)
    if missing:
        raise RuntimeError(f"{path} lacks {sorted(missing)}")
    return out


def fixture_text(tables: dict, name: str) -> str:
    return tables["NETWORKS"][tables["ALIASES"].get(name, name)]


# ---------------------------------------------------------------------------
# network text generation (the program only ever sees the text)


def _complex_text(coeffs, names) -> str:
    terms = [n if c == 1 else f"{c}{n}" for c, n in zip(coeffs, names) if c]
    return " + ".join(terms) if terms else "0"


def network_text(n_species: int, reactions) -> str:
    names = [f"S{i}" for i in range(n_species)]
    lines = ["species: " + " ".join(names)]
    for src, tgt in reactions:
        lines.append(f"{_complex_text(src, names)} -> {_complex_text(tgt, names)}")
    return "\n".join(lines) + "\n"


def random_reactions(rng, n: int, m: int, max_coeff: int = 3):
    """Criterion 2's generator: m reactions between uniform random complexes
    with coefficients 0..max_coeff (a reaction may have source == target)."""
    return [
        (tuple(int(v) for v in rng.integers(0, max_coeff + 1, n)),
         tuple(int(v) for v in rng.integers(0, max_coeff + 1, n)))
        for _ in range(m)
    ]


def _hyperplane_key(v) -> tuple[int, ...] | None:
    """Primitive integer normal up to sign (None for the zero vector)."""
    g = math.gcd(*v)
    if g == 0:
        return None
    p = tuple(x // g for x in v)
    first = next(x for x in p if x)
    return p if first > 0 else tuple(-x for x in p)


def distinct_hyperplanes(reactions) -> int:
    """Distinct hyperplanes among the reaction vectors and the differences
    of distinct sources (the classification arrangement), counted by the
    benchmark itself."""
    keys = set()
    sources = []
    for src, tgt in reactions:
        keys.add(_hyperplane_key(tuple(b - a for a, b in zip(src, tgt))))
        if src not in sources:
            sources.append(src)
    for a, b in itertools.combinations(sources, 2):
        keys.add(_hyperplane_key(tuple(x - y for x, y in zip(a, b))))
    keys.discard(None)
    return len(keys)


def wide_reactions(rng, hyperplanes: int):
    """A 4-species network with four distinct sources (coefficients 0..3),
    one reaction from each plus ``hyperplanes - 10`` more from distinct
    sources, and exactly ``hyperplanes`` (10 to 14) distinct arrangement
    hyperplanes."""
    while True:
        sources = sorted({tuple(int(v) for v in rng.integers(0, 4, 4)) for _ in range(4)})
        if len(sources) != 4:
            continue
        extra = rng.choice(4, hyperplanes - 10, replace=False)
        reactions = [(s, tuple(int(v) for v in rng.integers(0, 4, 4)))
                     for s in [*sources, *(sources[i] for i in extra)]]
        if distinct_hyperplanes(reactions) == hyperplanes:
            return reactions


# ---------------------------------------------------------------------------
# classify-batch

# (species, reactions) -> networks: many cheap 2-species networks, so that
# the median falls inside a large block of similar tasks
SMALL_COUNTS = {**{(2, m): 8 for m in range(1, 6)}, **{(3, m): 2 for m in range(1, 6)}}
# distinct hyperplanes -> networks: 18 tasks, so the tail (the 11th slowest
# task) falls near the middle of the 10-hyperplane networks; with 12-14
# hyperplanes a network costs 0.8-5.6 s, up to 2.7x more on one seed than
# on another, too much for a steady pass (README)
WIDE_COUNTS = {10: 16, 11: 2}
SAMPLER_DIRECTIONS = 10_000


def _classify_task(net, seed: int):
    report = crnkit.classify(net)
    rule = crnkit.fast_paths(net)
    sampled = crnkit.sample_classify(net, n_samples=SAMPLER_DIRECTIONS, seed=seed)
    return {"report": report, "fast_path": rule, "sampled": sampled}


def build_classify_batch(seed: int) -> Workload:
    tables = load_fixture_tables()
    rng = np.random.default_rng([seed, 1])
    entries = []  # (name, stratum, text, meta)
    for name in tables["CLASSIFICATION"]:
        entries.append((f"fixture:{name}", "fixture", fixture_text(tables, name),
                        {"fixture": name}))
    for (n, m), count in SMALL_COUNTS.items():
        for i in range(count):
            text = network_text(n, random_reactions(rng, n, m))
            entries.append((f"small:{n}x{m}:{i}", f"small-{n}sp", text, {}))
    for h, count in WIDE_COUNTS.items():
        for i in range(count):
            text = network_text(4, wide_reactions(rng, h))
            entries.append((f"wide:{h}h:{i}", "wide", text, {"hyperplanes": h}))
    tasks = []
    for idx, (name, stratum, text, meta) in enumerate(entries):
        net, _ = crnkit.parse_network(text)
        meta = dict(meta, text=text)
        tasks.append(Task(name, stratum, lambda net=net, s=idx: _classify_task(net, s), meta))
    return Workload("classify-batch", seed, tasks, {"tables": tables})


# ---------------------------------------------------------------------------
# cli-reports

CLI_SIM_T_END = 80.0
FUTILE_T_END = 500.0
FUTILE_RATES = (1.0, 1.0, 2.0, 2.0)
FUTILE_X0 = (1.0, 1e-2, 1e-2, 1.0, 1e-2)
DIRECTION_FIXTURES = ("reverse_lv", "endo_not_strong", "triangle_out", "a_to_b",
                      "birth_death", "prism", "tetrahedron", "pyramid")
STEADY_FIXTURES = ("reverse_lv", "strong_not_wr", "chain_cycle", "prism", "tetrahedron")
# seeded direction and steady calls each: with them the cheap stratum holds
# two thirds of the tasks, so the median falls inside it
CHEAP_CALLS = 36
# fixed starts from a log grid, as in criterion 5: the seed draws only the
# rates, which leaves the number of steps within 1% from seed to seed
SIM_STARTS = ((0.05, 20.0), (20.0, 0.05), (20.0, 20.0))
# fixed Birch inputs (fixture, x0, alpha) on the fixtures with conservation
# laws; the first stalls crnkit's damped Newton (exit 3) on every run
BIRCH_INPUTS = (
    ("ab_reversible", "0.604708,1.63416", "1.16426,0.594742"),
    ("ab_reversible", "0.5,2", "2,0.5"),
    ("ab_reversible", "3,0.2", "0.7,0.7"),
    ("a_to_b", "1,1", "1,2"),
    ("a_to_b", "0.3,4", "5,0.2"),
    ("double_reversible", "1,2", "3,1"),
    ("double_reversible", "0.1,7", "2,2"),
    ("futile_cycle", "1,0.01,0.01,1,0.01", "1,1,1,1,1"),
    ("futile_cycle", "2,1,0.5,1,0.1", "0.5,2,1,1,3"),
)


class CliFailure(RuntimeError):
    """A CLI call that exited non-zero: a failed operation."""


def _cli_call(argv, out_path: Path):
    code = crnkit.cli.main([*argv, "--out", str(out_path)])
    if code != 0:
        raise CliFailure(f"{argv[0]} exited {code}")
    return {"argv": list(argv), "code": code, "out": out_path}


def _vec(values) -> str:
    return ",".join(f"{v:.6g}" for v in values)


def build_cli_reports(seed: int, work_dir: Path) -> Workload:
    tables = load_fixture_tables()
    work_dir.mkdir(parents=True, exist_ok=True)
    files, sizes = {}, {}
    for name, text in tables["NETWORKS"].items():
        path = work_dir / f"{name}.crn"
        path.write_text(text)
        files[name] = str(path)
        sizes[name] = crnkit.parse_network(text)[0].n_species
    rng = np.random.default_rng([seed, 4])

    def positive(name):
        return _vec(rng.uniform(0.5, 2.0, sizes[name]))

    calls = []  # (kind, stratum, argv, meta)
    for name in tables["NETWORKS"]:
        calls.append(("classify", "classify", ["classify", files[name]], {"fixture": name}))
    for name in ("reverse_lv", "triangle_out"):
        calls.append(("classify-direction", "classify",
                      ["classify", files[name], "--direction=1,0"], {"fixture": name}))
    calls.append(("birch-closed-form", "cheap",
                  ["birch", files["ab_reversible"], "--x0=2,2", "--alpha=1,3"], {}))
    for name, x0, alpha in BIRCH_INPUTS:
        calls.append(("birch", "cheap", ["birch", files[name], f"--x0={x0}", f"--alpha={alpha}"],
                      {"fixture": name}))
    calls.append(("steady-known", "cheap",
                  ["steady", files["reverse_lv"], "--x0=2,2", "--k=1,1,1"], {}))
    for i in range(CHEAP_CALLS):
        name = DIRECTION_FIXTURES[i % len(DIRECTION_FIXTURES)]
        w = np.zeros(sizes[name], dtype=int)
        while not w.any():
            w = rng.integers(-3, 4, sizes[name])
        calls.append(("classify-direction", "cheap", [
            "classify", files[name], f"--direction={','.join(map(str, w))}"], {"fixture": name}))
        name = STEADY_FIXTURES[i % len(STEADY_FIXTURES)]
        calls.append(("steady", "cheap", ["steady", files[name], f"--x0={positive(name)}",
                                          f"--seed={seed}"], {}))
    for name in ("reverse_lv", "prism", "tetrahedron"):
        Q, _ = np.linalg.qr(rng.standard_normal((sizes[name], sizes[name])))
        frame = ";".join(_vec(Q[:, j]) for j in range(sizes[name]))
        calls.append(("jets", "jets", ["jets", files[name], f"--frame={frame}"], {}))
    for fmt in ("json", "svg"):
        calls.append((f"scan-{fmt}", "scan", ["scan", files["reverse_lv"], "--x0=1,1",
                                              f"--format={fmt}", f"--seed={seed}"],
                      {"fixture": "reverse_lv"}))
    for name in ("ab_reversible", "futile_cycle"):
        calls.append(("scan-json", "scan", ["scan", files[name], f"--x0={positive(name)}",
                                            "--samples=100", f"--seed={seed}"],
                      {"fixture": name}))
    for policy_seed in (2 * seed + 1, 2 * seed + 2):
        for x0 in map(_vec, SIM_STARTS):
            for fmt in ("json", "csv", "svg"):
                calls.append((f"simulate-{fmt}", "simulate", [
                    "simulate", files["reverse_lv"], f"--x0={x0}",
                    f"--t-end={CLI_SIM_T_END:g}", "--policy=piecewise-constant",
                    f"--seed={policy_seed}", f"--format={fmt}"], {"policy_seed": policy_seed}))
    fx0 = np.asarray(FUTILE_X0) * np.exp(rng.uniform(-0.2, 0.2, 5))
    calls.append(("simulate-futile", "futile", [
        "simulate", files["futile_cycle"], f"--x0={_vec(fx0)}", f"--t-end={FUTILE_T_END:g}",
        "--policy=fixed", f"--rates={_vec(FUTILE_RATES)}"], {"fixture": "futile_cycle"}))
    tasks = []
    for idx, (kind, stratum, argv, meta) in enumerate(calls):
        out_path = work_dir / f"call{idx:02d}.out"
        tasks.append(Task(f"{kind}:{idx}", stratum,
                          lambda argv=argv, p=out_path: _cli_call(argv, p),
                          dict(meta, kind=kind)))
    return Workload("cli-reports", seed, tasks, {"tables": tables})


def build(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "classify-batch":
        workload = build_classify_batch(seed)
    elif name == "cli-reports":
        workload = build_cli_reports(seed, work_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # run the tasks in a fixed shuffled order, so that each stratum's tasks
    # spread over the whole pass: a slow second of the machine then moves a
    # few tasks of each stratum, not every task of one
    order = np.random.default_rng([seed, 0]).permutation(len(workload.tasks))
    workload.tasks = [workload.tasks[i] for i in order]
    return workload
