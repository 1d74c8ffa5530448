"""Tests of the benchmark's own output checks.

    python3 perfbench/selfcheck.py

Each test computes a real crnkit output, shows that its check accepts it,
then corrupts one thing in a copy and shows that the check rejects it.  The
file is not named test_*.py, so the repository's pytest suite does not
collect it; the functions still follow pytest's conventions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import crnkit  # noqa: E402
import crnkit.cli  # noqa: E402
import workloads  # noqa: E402

TABLES = workloads.load_fixture_tables()


def text_of(name):
    return workloads.fixture_text(TABLES, name)


def load(name):
    return crnkit.parse_network(text_of(name))


def classified(name):
    net, _ = load(name)
    return text_of(name), workloads._classify_task(net, 0)


def rejects(problems) -> bool:
    return len(problems) > 0


def test_flipped_strong_verdict_is_caught():
    text, out = classified("reverse_lv")
    expected = TABLES["CLASSIFICATION"]["reverse_lv"]
    assert checks.check_classification(text, out, 0, expected) == []
    bad = dict(out, report=dataclasses.replace(out["report"], strongly_endotactic=False))
    assert rejects(checks.check_classification(text, bad, 0, expected))
    # without the table, the missing witness still gives the flip away
    assert rejects(checks.check_classification(text, bad, 0))


def test_flipped_endotactic_verdict_is_contradicted_by_the_sampler():
    text, out = classified("a_to_b")
    assert checks.check_classification(text, out, 0) == []
    bad = dict(out, report=dataclasses.replace(out["report"], endotactic=True, witness=None))
    assert rejects(checks.check_classification(text, bad, 0))


def test_wrong_witness_and_weak_reversibility_are_caught():
    text, out = classified("birth_death")
    assert checks.check_classification(text, out, 0) == []
    moved = dict(out, report=dataclasses.replace(out["report"], witness=(1, 1)))
    assert rejects(checks.check_classification(text, moved, 0))
    flipped = dict(out, report=dataclasses.replace(out["report"], weakly_reversible=False))
    assert rejects(checks.check_classification(text, flipped, 0))


def test_fast_path_on_a_network_that_is_not_strong_is_caught():
    text, out = classified("pyramid")
    assert checks.check_classification(text, out, 0) == []
    bad = dict(out, fast_path="single_linkage_class",
               report=dataclasses.replace(out["report"], fast_path="single_linkage_class"))
    assert rejects(checks.check_classification(text, bad, 0))


def test_reader_matches_crnkit_on_every_fixture():
    # the checks read network text themselves; both readers must agree
    for name, text in TABLES["NETWORKS"].items():
        net, temp = crnkit.parse_network(text)
        species, reactions = checks.read_network(text)
        assert species == net.species_names, name
        assert [(s, t) for s, t, _ in reactions] == [
            (r.source.coeffs, r.target.coeffs) for r in net.reactions], name
        if temp is not None:
            assert [iv for _, _, iv in reactions] == list(temp.intervals), name


def _trajectory():
    net, temp = load("reverse_lv")
    policy = crnkit.RatePolicy("piecewise-constant", seed=1, dt=0.1)
    return crnkit.simulate(net, temp, policy, (0.5, 2.0), 2.0, rtol=1e-6, atol=1e-9)


def _check(traj, t_end=2.0, box=(1.0, 2.0)):
    return checks.check_trajectory(traj.times, traj.states, traj.events, t_end,
                                   traj.rate_log, box)


def test_negative_coordinate_is_caught():
    traj = _trajectory()
    assert _check(traj) == []
    states = traj.states.copy()
    states[len(states) // 2, 1] = -1e-3
    assert rejects(_check(dataclasses.replace(traj, states=states)))


def test_early_stop_and_rates_outside_the_tempering_are_caught():
    traj = _trajectory()
    assert rejects(_check(dataclasses.replace(traj, times=traj.times[:-1],
                                              states=traj.states[:-1])))
    assert rejects(_check(dataclasses.replace(traj, events=({"type": "step-limit"},))))
    log = ((0.0, (1.0, 2.5, 1.5)),) + traj.rate_log[1:]
    assert rejects(_check(dataclasses.replace(traj, rate_log=log)))


def test_disagreeing_tail_boxes_are_caught():
    assert checks.check_boxes({1: (0.9, 1.2), 2: (0.92, 1.18)}) == []
    assert rejects(checks.check_boxes({1: (0.9, 1.2), 2: (0.7, 1.2)}))
    assert rejects(checks.check_boxes({1: (0.0, 1.2), 2: (0.0, 1.2)}))


def test_conservation_drift_and_reference_mismatch_are_caught():
    net, temp = load("futile_cycle")
    text, x0, rates = text_of("futile_cycle"), workloads.FUTILE_X0, workloads.FUTILE_RATES
    traj = crnkit.simulate(net, temp, crnkit.RatePolicy("fixed", rates=rates), x0, 20.0)
    laws = checks.conservation_laws(text)
    assert laws.shape[0] == 2
    assert checks.check_conservation(traj.states, laws) == []
    idx = checks.reference_points(traj.times)
    ref = checks.reference_solution(text, rates, x0, traj.times[idx])
    assert checks.check_against_reference(traj.states[idx], ref) == []
    states = traj.states.copy()
    states[-1, 0] += 1e-5
    assert rejects(checks.check_conservation(states, laws))
    assert rejects(checks.check_against_reference(states[idx], ref))


def _scan():
    net, temp = load("reverse_lv")
    return crnkit.cutoff_scan(net, temp, (1.0, 1.0), direction_samples=100, seed=0)


def test_moved_cluster_center_is_caught():
    result, text = _scan(), text_of("reverse_lv")
    targets = checks.REVERSE_LV_TRANSITIONS
    assert checks.check_scan(text, result, targets) == []
    clusters = [dict(c) for c in result["near_zero_clusters"]]
    x, y = clusters[0]["center"]
    a = 0.2  # rotate one center by 0.2 rad, far outside the 0.05 rad window
    clusters[0]["center"] = [x * math.cos(a) - y * math.sin(a), x * math.sin(a) + y * math.cos(a)]
    assert rejects(checks.check_scan(text, dict(result, near_zero_clusters=clusters), targets))


def test_missing_cluster_and_wrong_margin_are_caught():
    result, text = _scan(), text_of("reverse_lv")
    clusters = [dict(c) for c in result["near_zero_clusters"]]
    assert rejects(checks.check_scan(text, dict(result, near_zero_clusters=clusters[1:]),
                                     checks.REVERSE_LV_TRANSITIONS))
    clusters[0]["max_margin"] -= 0.5
    assert rejects(checks.check_scan(text, dict(result, near_zero_clusters=clusters)))


def _cli_text(argv, fixture="reverse_lv"):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / f"{fixture}.crn"
        src.write_text(text_of(fixture))
        out = Path(tmp) / "out"
        code = crnkit.cli.main([argv[0], str(src), *argv[1:], "--out", str(out)])
        return code, out.read_text()


def test_wrong_g_column_is_caught():
    code, text = _cli_text(["simulate", "--x0=1,2", "--t-end=2", "--format=csv"])
    assert code == 0 and checks.check_csv(text) == []
    lines = text.split("\n")
    cells = lines[3].split(",")
    gi = lines[0].split(",").index("g")
    cells[gi] = repr(float(cells[gi]) + 1e-6)
    lines[3] = ",".join(cells)
    assert rejects(checks.check_csv("\n".join(lines)))


def test_broken_svg_and_envelope_are_caught():
    code, svg = _cli_text(["simulate", "--x0=1,2", "--t-end=2", "--format=svg"])
    assert code == 0 and checks.check_svg(svg) == []
    assert rejects(checks.check_svg(svg[: len(svg) // 2]))
    code, text = _cli_text(["classify"])
    expected = TABLES["CLASSIFICATION"]["reverse_lv"]
    assert checks.check_cli_call("classify", ["classify"], code, text, None, expected) == []
    assert rejects(checks.check_cli_call("classify", ["classify"], code,
                                         text.replace('"schema"', '"scheme"')))
    assert rejects(checks.check_cli_call("classify", ["classify"], 1, text))


def test_flipped_direction_verdict_is_caught():
    argv = ["classify", "--direction=1,-2"]
    code, text = _cli_text(argv, "triangle_out")
    fixture = text_of("triangle_out")
    assert checks.check_cli_call("classify-direction", argv, code, text, fixture) == []
    payload = json.loads(text)
    payload["w_endotactic"] = not payload["w_endotactic"]
    assert rejects(checks.check_cli_call("classify-direction", argv, code,
                                         json.dumps(payload), fixture))


def test_wrong_closed_form_is_caught():
    code, text = _cli_text(["steady", "--x0=2,2", "--k=1,1,1"])
    assert checks.check_cli_call("steady-known", ["steady"], code, text) == []
    payload = json.loads(text)
    payload["x"][0] += 1e-7
    assert rejects(checks.check_cli_call("steady-known", ["steady"], code, json.dumps(payload)))


def test_moved_birch_point_is_caught():
    argv = ["birch", "--x0=2,1,0.5,1,0.1", "--alpha=0.5,2,1,1,3"]
    code, text = _cli_text(argv, "futile_cycle")
    fixture = text_of("futile_cycle")
    assert checks.check_cli_call("birch", argv, code, text, fixture) == []
    payload = json.loads(text)
    payload["point"][0] *= 1 + 1e-6  # off the stoichiometric class
    assert rejects(checks.check_cli_call("birch", argv, code, json.dumps(payload), fixture))
    payload = json.loads(text)
    payload["alpha"][1] *= 1.01  # log(x/alpha) no longer orthogonal to S
    assert rejects(checks.check_cli_call("birch", argv, code, json.dumps(payload), fixture))


def test_cli_futile_cycle_report_is_checked_against_its_laws():
    argv = ["simulate", "--x0=1,0.01,0.01,1,0.01", "--t-end=50", "--policy=fixed",
            "--rates=1,1,2,2"]
    code, text = _cli_text(argv, "futile_cycle")
    fixture = text_of("futile_cycle")
    laws = checks.conservation_laws(fixture)
    assert checks.check_cli_call("simulate-futile", argv, code, text, fixture, None, laws) == []
    payload = json.loads(text)
    payload["states"][-1][2] += 1e-5
    assert rejects(checks.check_cli_call("simulate-futile", argv, code, json.dumps(payload),
                                         fixture, None, laws))


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
