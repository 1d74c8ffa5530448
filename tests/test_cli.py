"""Command-line interface: envelope fields, exit codes, deterministic
output, and the JSON / CSV / SVG formats."""

import errno
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import NETWORKS, load, network_text
from crnkit import RatePolicy, cli, simulate
from crnkit.dynamics import RateLog
from crnkit.jets import _index_grid, _theta_grid


# seconds before a CLI run counts as hung and fails its test; the slowest
# run here takes about 2 s
_TIMEOUT = 60


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "crnkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=_TIMEOUT,
    )


@pytest.fixture()
def rlv_file(tmp_path):
    p = tmp_path / "rlv.crn"
    p.write_text(network_text("reverse_lv"))
    return str(p)


@pytest.fixture()
def ab_file(tmp_path):
    p = tmp_path / "ab.crn"
    p.write_text("species: A B\nA <-> B rate [1] [2]\n")
    return str(p)


class TestEnvelope:
    def test_common_header_fields(self, rlv_file):
        out = run_cli(["classify", rlv_file])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["tool"] == "crnkit"
        assert doc["schema"] == 1
        assert doc["command"] == "classify"
        assert doc["seed"] == 0
        assert isinstance(doc["version"], str)

    def test_version_flag(self):
        out = run_cli(["--version"])
        assert out.returncode == 0
        assert "crnkit" in out.stdout

    def test_parser_built_once_per_process(self, rlv_file, capsys):
        cli.build_parser.cache_clear()
        assert cli.main(["classify", rlv_file, "--direction=1,0"]) == 0
        usage = ["simulate", rlv_file, "--policy", "warp"]
        for argv, code in ((usage, 1), (["--version"], 0)):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv)
            assert exit_.value.code == code
        assert cli.build_parser.cache_info().misses == 1
        out, err = capsys.readouterr()
        assert out.endswith(run_cli(["--version"]).stdout)
        assert err == run_cli(usage).stderr

    def test_keys_in_fixed_order(self, rlv_file):
        out = run_cli(["classify", rlv_file])
        keys = list(json.loads(out.stdout))
        assert keys[:5] == ["tool", "version", "schema", "command", "seed"]


class TestExitCodes:
    def test_parse_error_is_one(self, tmp_path):
        p = tmp_path / "bad.crn"
        p.write_text("species: A\nA -> -> B\n")
        out = run_cli(["classify", str(p)])
        assert out.returncode == 1
        assert "line" in out.stderr

    def test_usage_error_is_one(self, rlv_file):
        out = run_cli(["simulate", rlv_file, "--policy", "warp"])
        assert out.returncode == 1

    def test_arrangement_limit_is_two(self, tmp_path):
        p = tmp_path / "prism.crn"
        p.write_text(network_text("prism"))
        out = run_cli(["classify", str(p)], env_extra={"CRN_MAX_HYPERPLANES": "2"})
        assert out.returncode == 2
        assert "limit" in out.stderr.lower()

    def test_no_convergence_is_three(self, ab_file):
        out = run_cli(
            ["birch", ab_file, "--x0", "2,2", "--alpha", "1,2", "--tol", "1e-30"]
        )
        assert out.returncode == 3
        assert "convergence" in out.stderr.lower()

    def test_missing_file_is_one(self):
        out = run_cli(["classify", "/nonexistent/net.crn"])
        assert out.returncode == 1

    @pytest.mark.parametrize("content, message", [
        (b"species: A B\n1/0A -> B\n", "line 2, column 1: zero denominator in '1/0'"),
        (b"species: A B\nA -> B # \xff\n", "not UTF-8"),
    ], ids=["zero-denominator", "not-utf8"])
    def test_bad_file_is_one_line_parse_error(self, content, message, tmp_path):
        p = tmp_path / "bad.crn"
        p.write_bytes(content)
        out = run_cli(["classify", str(p)])
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("crnkit: parse error: ") and message in lines[0]

    @pytest.mark.parametrize("text, what", [
        ("species: A B\n1" + "0" * 400 + "A -> B\n", None),
        ("species: A B\nA -> B rate [1" + "0" * 400 + "]\n", "a rate interval endpoint"),
    ], ids=["coefficient", "rate"])
    @pytest.mark.parametrize("argv", [
        ["classify"], ["simulate", "--x0=1,1", "--t-end=1"],
        ["simulate", "--x0=1,1", "--t-end=1", "--policy=piecewise-constant"],
        ["steady", "--x0=1,1"], ["birch", "--x0=1,1", "--alpha=1,1"], ["scan", "--x0=1,1"],
        ["jets", "--frame=1,0"],
    ], ids=["classify", "simulate", "simulate-sampled", "steady", "birch", "scan", "jets"])
    def test_value_past_the_float_range_is_one_line_exit_one(self, argv, text, what, tmp_path,
                                                             capsys):
        # the exact classification reads no float; a float layer that needs
        # the value refuses the network in one line where it converts it
        p = tmp_path / "huge.crn"
        p.write_text(text)
        code = cli.main([argv[0], str(p), *argv[1:]])
        err = capsys.readouterr().err
        if argv[0] == "classify" or (what and argv[0] in ("birch", "jets")):
            assert (code, err) == (0, "")
        else:
            assert code == 1 and len(err.splitlines()) == 1
            assert err.startswith("crnkit: error: ") and "is outside the float range" in err
            assert what is None or what in err

    def test_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        p = tmp_path / "utf8.crn"
        p.write_text("# réseau, Größe\nspecies: A B\nA -> B\n", encoding="utf-8")
        out = run_cli(["classify", str(p)], env_extra={
            "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["species"] == ["A", "B"]

    def test_boundary_point_is_not_a_steady_state(self, tmp_path):
        p = tmp_path / "a_to_b.crn"
        p.write_text(network_text("a_to_b"))
        out = run_cli(["steady", str(p), "--x0", "1,1"])
        assert out.returncode == 3
        assert out.stderr.startswith("crnkit: no convergence: ")
        assert len(out.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=fixed",
             "--rates=1,1"],
            ["steady", "{rlv}", "--x0=2,2", "--k=1,1"],
            ["classify", "{rlv}", "--direction=1"],
            ["birch", "{rlv}", "--x0=1,x", "--alpha=1,1"],
            # a rational past the float range parses, but has no float
            ["birch", "{rlv}", "--x0=1e400,1", "--alpha=1,1"],
            ["birch", "{rlv}", "--x0=1,1", "--alpha=1,-1e400"],
            ["simulate", "{rlv}", "--x0=1,1e400", "--t-end=1"],
            ["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--alpha=1e400,1"],
            ["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=fixed",
             "--rates=1,1e400,1"],
            ["steady", "{rlv}", "--x0=1e400,1"],
            ["steady", "{rlv}", "--x0=2,2", "--k=1,1,1e400"],
            ["scan", "{rlv}", "--x0=1e400,1"],
            ["jets", "{rlv}", "--frame=1,0;0,1e400"],
        ],
        ids=["rates-count", "k-count", "direction-count", "unparsable-x0",
             "birch-x0-past-float", "birch-alpha-past-float", "simulate-x0-past-float",
             "simulate-alpha-past-float", "rates-past-float", "steady-x0-past-float",
             "k-past-float", "scan-x0-past-float", "frame-past-float"],
    )
    def test_bad_vector_is_one_line_parse_error(self, argv, rlv_file):
        out = run_cli([a.format(rlv=rlv_file) for a in argv])
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("crnkit: parse error: ")
        if any("e400" in a for a in argv):
            assert "has an entry outside the float range" in lines[0]

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["classify", "{rlv}", "--direction=0,0"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=-1"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=fixed",
              "--rates=9,9,9"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1",
              "--policy=piecewise-constant", "--dt=0"], None),
            (["birch", "{ab}", "--x0=1,1", "--alpha=0,1"], None),
            (["steady", "{rlv}", "--x0=0,1"], None),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--i-max=0"], None),
            (["classify", "{prism}"], {"CRN_MAX_HYPERPLANES": "abc"}),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--i-max=-5"], None),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--i-max=0.5"], None),
            (["scan", "{rlv}", "--theta-max=1e3", "--theta-points=0"], None),
            (["scan", "{rlv}", "--theta-max=0.5"], None),
            (["steady", "{rlv}", "--x0", "-1,1"], None),
            (["steady", "{rlv}", "--x0=2,2", "--k", "-1,1,1"], None),
            (["scan", "{rlv}", "--theta-points", "0"], None),
            (["scan", "{rlv}", "--theta-points=-3"], None),
            (["scan", "{rlv}", "--samples=-5"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=nan"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=inf"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1",
              "--policy=piecewise-constant", "--dt=nan"], None),
            (["birch", "{ab}", "--x0=1,1", "--alpha=1,1", "--tol=nan"], None),
            (["steady", "{rlv}", "--x0=2,2", "--tol=-1"], None),
            (["steady", "{rlv}", "--x0=2,2", "--tol=nan"], None),
            (["steady", "{rlv}", "--x0=2,2", "--tol=1"], None),
            (["steady", "{rlv}", "--x0=2,2", "--tol=2"], None),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--threshold=0"], None),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--threshold=-1"], None),
            (["jets", "{rlv}", "--frame=1,0;0,1", "--threshold=nan"], None),
            (["scan", "{outward}", "--x0=-1,-1", "--samples=50"], None),
            (["scan", "{outward}", "--x0=0,0", "--samples=50"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--rates=1,1,1"], None),
            (["classify", "{prism}"], {"CRN_MAX_HYPERPLANES": "-1"}),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--dt=-1"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=constant-sampled",
              "--dt=-1"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=piecewise-constant",
              "--dt=-1"], None),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--policy=fixed",
              "--rates=1.5,1.5,1.5", "--dt=-1"], None),
        ],
        ids=["zero-direction", "negative-t-end", "fixed-rates-outside",
             "zero-dt", "zero-alpha", "steady-zero-x0", "zero-i-max",
             "bad-hyperplane-env", "negative-i-max", "fractional-i-max",
             "zero-theta-points", "theta-max-below-one", "negative-x0-value",
             "negative-k", "zero-theta-points-default-max",
             "negative-theta-points-default-max", "negative-samples", "nan-t-end",
             "infinite-t-end", "nan-dt", "nan-birch-tol", "negative-steady-tol",
             "nan-steady-tol", "unit-steady-tol", "steady-tol-above-one",
             "zero-threshold", "negative-threshold",
             "nan-threshold", "negative-scan-x0", "zero-scan-x0",
             "rates-without-fixed-policy", "negative-hyperplane-env",
             "negative-dt-constant-mid", "negative-dt-constant-sampled",
             "negative-dt-piecewise-constant", "negative-dt-fixed"],
    )
    def test_invalid_value_is_one_line_exit_one(self, argv, env, rlv_file, ab_file,
                                                 tmp_path):
        prism = tmp_path / "prism.crn"
        prism.write_text(network_text("prism"))
        outward = tmp_path / "outward.crn"
        outward.write_text("species: A B\nA -> B rate [1,2]\n")
        files = {"rlv": rlv_file, "ab": ab_file, "prism": str(prism),
                 "outward": str(outward)}
        out = run_cli([a.format(**files) for a in argv], env_extra=env)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("crnkit: error: ")

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["classify", "--seed=-1"], "-1"),
            (["classify", "--sample-fallback", "--seed", "-1"], "-1"),
            (["birch", "--x0=1,1", "--alpha=1,1", "--seed=-1"], "-1"),
            (["simulate", "--x0=1,1", "--t-end=1", "--seed=-1"], "-1"),
            (["simulate", "--x0=1,1", "--t-end=1", "--policy=piecewise-constant",
              "--seed", "-2"], "-2"),
            (["steady", "--x0=2,2", "--seed=-1"], "-1"),
            (["scan", "--seed=-1"], "-1"),
            (["jets", "--frame=1,0;0,1", "--seed=-1"], "-1"),
            (["scan", "--seed=1.5"], "1.5"),
        ],
        ids=["classify", "classify-sample-fallback", "birch", "simulate-constant-mid",
             "simulate-piecewise-constant", "steady", "scan", "jets", "fractional-seed"],
    )
    def test_negative_seed_is_one_line_exit_one_while_parsing(self, argv, value, tmp_path,
                                                              capsys):
        # numpy's generators refuse a negative seed with a message that names
        # no flag, and some subcommands used to echo it; the file is never read
        missing = str(tmp_path / "missing.crn")
        with pytest.raises(SystemExit) as exit_:
            cli.main([argv[0], missing, *argv[1:]])
        assert exit_.value.code == 1
        assert capsys.readouterr() == (
            "", f"crnkit {argv[0]}: error: argument --seed: must be a nonnegative "
                f"integer, got '{value}'\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["steady", "{rlv}", "--x0", "1e300,1e300"],
            ["birch", "{ab}", "--x0", "1e300,1", "--alpha", "1,1"],
        ],
        ids=["steady-x0-1e300", "birch-x0-1e300"],
    )
    def test_overflowing_norm_is_one_line_exit_three(self, argv, rlv_file, tmp_path):
        # the norms of such points overflow: numpy's warnings used to come first
        ab = tmp_path / "ab_reversible.crn"
        ab.write_text(network_text("ab_reversible"))
        out = run_cli([a.format(rlv=rlv_file, ab=str(ab)) for a in argv])
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("crnkit: no convergence: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["steady", "{tetrahedron}", "--x0=1e-320,1,1"], 0),
            (["steady", "{rlv}", "--x0=1,1", "--k=1e308,1e308,1e308"], 0),
            (["steady", "{rlv}", "--x0=1,1", "--k=1e-320,1,1"], 3),
            (["steady", "{triangle_out}", "--x0=1,1"], 3),
            (["steady", "{rlv}", "--x0=1,3", "--tol=0.1"], 0),
            (["birch", "{ab}", "--alpha=1,1", "--x0=1e307,1"], 3),
            (["birch", "{ab}", "--alpha=1,1", "--x0=1e-320,1"], 0),
            (["birch", "{ab}", "--alpha=1,1", "--x0=1e308,1e-320"], 3),
            (["jets", "{rlv}", "--frame=1e308,1e308"], 0),
            (["jets", "{rlv}", "--frame=1,1;1.7e308,1.7e308"], 1),
            (["simulate", "{rlv}", "--x0=1,1", "--t-end=1", "--alpha=1e-320,1",
              "--format=csv"], 0),
        ],
        ids=["steady-subnormal-x0", "steady-huge-k", "steady-subnormal-k",
             "steady-runaway-flow", "steady-loose-tol", "birch-huge-x0", "birch-subnormal-x0",
             "birch-infinite-step",
             "jets-huge-frame", "jets-nan-frame", "simulate-subnormal-alpha"],
    )
    def test_extreme_value_prints_at_most_one_line(self, argv, code, rlv_file, tmp_path):
        # values past the float range made numpy print its warnings first
        files = {"rlv": rlv_file}
        for key, name in (("tetrahedron", "tetrahedron"), ("ab", "ab_reversible"),
                          ("triangle_out", "triangle_out")):
            path = tmp_path / f"{name}.crn"
            path.write_text(network_text(name))
            files[key] = str(path)
        out = run_cli([a.format(**files) for a in argv])
        assert out.returncode == code
        assert len(out.stderr.splitlines()) <= 1

    @pytest.mark.parametrize("i_max", ["1e19", "1e155", "1.7976931348623157e308"])
    @pytest.mark.parametrize("schedule", ["power", "decaying"])
    def test_any_finite_i_max_gives_a_report(self, i_max, schedule, rlv_file):
        # past 2^63 the int cast of the indices wrapped to -2^63 (exit 1 on an
        # index never given), and the decaying schedule squared i past the
        # float range
        out = run_cli(["jets", rlv_file, "--frame", "1,0;0,1", "--i-max", i_max,
                       "--schedule", schedule])
        assert out.returncode == 0
        assert out.stderr == ""
        series = [i for e in json.loads(out.stdout)["entries"] for i, _ in e["series"]]
        assert min(series) == 1 and max(series) == float(i_max)

    def test_scan_without_directions_says_so(self, ab_file):
        out = run_cli(["scan", ab_file, "--samples", "0"],
                      env_extra={"CRN_MAX_HYPERPLANES": "0"})
        assert out.returncode == 1
        assert out.stderr == "crnkit: error: the scan has no directions\n"


class TestClassifyCommand:
    def test_full_report(self, rlv_file):
        doc = json.loads(run_cli(["classify", rlv_file]).stdout)
        assert doc["weakly_reversible"] is False
        assert doc["endotactic"] is True
        assert doc["strongly_endotactic"] is True
        assert doc["witness"] is None
        assert doc["species"] == ["X", "Y"]

    def test_single_direction_check(self, rlv_file):
        doc = json.loads(
            run_cli(["classify", rlv_file, "--direction", "1,0"]).stdout
        )
        assert doc["direction"] == ["1", "0"]
        assert doc["w_endotactic"] is True
        assert doc["violating_reaction"] is None

    def test_negative_direction_after_a_space(self, rlv_file):
        out = run_cli(["classify", rlv_file, "--direction", "-1,0"])
        assert out.returncode == 0
        assert json.loads(out.stdout)["direction"] == ["-1", "0"]

    def test_witness_direction_reported(self, tmp_path):
        p = tmp_path / "ab.crn"
        p.write_text("species: A B\nA -> B rate [1]\n")
        doc = json.loads(run_cli(["classify", str(p)]).stdout)
        assert doc["endotactic"] is False
        assert doc["witness"] == ["-1", "1"]


    @pytest.mark.parametrize("text, limit", [
        ("species: A B\n1/99991A -> 1/99989B\n1/99971B -> 1/99961A\n"
         "1/99929A -> 1/99923B\n", "0"),
        ("species: A B\n1/1009A -> 1/1013B\n1/1019A + 1/1021B -> 1/1031A\n"
         "1/1033B -> A + B\n0 -> 2A\n", "1"),
    ], ids=["int64-overflow", "int64-wrap"])
    def test_sampled_witness_past_int64_replays(self, text, limit, tmp_path):
        p = tmp_path / "wide.crn"
        p.write_text(text)
        out = run_cli(["classify", str(p), "--sample-fallback"],
                      env_extra={"CRN_MAX_HYPERPLANES": limit})
        assert out.returncode == 0 and out.stderr == ""
        doc = json.loads(out.stdout)
        assert doc["inconclusive"] and not doc["endotactic"]
        check = run_cli(["classify", str(p), "--direction=" + ",".join(doc["witness"])])
        assert json.loads(check.stdout)["w_endotactic"] is False


class TestBirchAndSteady:
    def test_birch_solution(self, ab_file):
        # near the second point, rounding alone swamps the Armijo decrease
        for x0, alpha in (((2.0, 2.0), (1.0, 3.0)),
                          ((0.604708, 1.63416), (1.16426, 0.594742))):
            out = run_cli(["birch", ab_file, "--x0", ",".join(map(str, x0)),
                           "--alpha", ",".join(map(str, alpha))])
            assert out.returncode == 0
            doc = json.loads(out.stdout)
            # closed form: x_A / x_B = alpha_A / alpha_B on x_A + x_B = const
            expected = [sum(x0) * a / sum(alpha) for a in alpha]
            assert doc["point"] == pytest.approx(expected, abs=1e-9)
            assert doc["residual"] <= 1e-12

    def test_steady_state(self, rlv_file):
        doc = json.loads(
            run_cli(["steady", rlv_file, "--x0", "2,2", "--k", "1,1,1"]).stdout
        )
        assert doc["x"][0] == pytest.approx(1.0, abs=1e-9)
        assert doc["x"][1] == pytest.approx(1.0, abs=1e-9)
        assert doc["residual"] < 1e-10


    def test_rational_rates(self, rlv_file):
        doc = json.loads(
            run_cli(["steady", rlv_file, "--x0", "2,2", "--k", "1/2,1,1"]).stdout
        )
        assert doc["k"] == [0.5, 1.0, 1.0]
        assert doc["residual"] < 1e-10


class TestJsonify:
    @pytest.mark.parametrize("arr", [
        np.array([0.1, 1e-300, -2.5, 1.7976931348623157e308]),
        np.array([[1.0, 2.0], [3.5, -0.0]]),
        np.array([[3, -4], [0, 2 ** 62]]),
        np.array([], dtype=float),
    ], ids=["floats", "2-d", "ints", "empty"])
    def test_finite_arrays_print_as_the_per_value_path(self, arr):
        # the writer lays a finite array out whole, as json.dumps prints
        # its per-value list
        assert cli._json_text(arr) == json.dumps(_reference(arr.tolist()), indent=2)

    @pytest.mark.parametrize("arr, want", [
        (np.array([1.0, np.nan, np.inf, -np.inf]), '[1.0, "nan", "inf", "-inf"]'),
        (np.array([[0.5, np.inf], [np.nan, 2.0]]), '[[0.5, "inf"], ["nan", 2.0]]'),
    ], ids=["1-d", "2-d"])
    def test_non_finite_entries_print_as_strings(self, arr, want):
        assert json.dumps(json.loads(cli._json_text(arr))) == want
        assert cli._json_text(arr) == json.dumps(_reference(arr), indent=2)

    def test_strings_that_spell_non_finite_floats_stay_strings(self):
        value = ["NaN", np.float64("nan"), "Infinity", np.inf, "-Infinity", -np.inf]
        assert cli._json_text(value) == json.dumps(
            ["NaN", "nan", "Infinity", "inf", "-Infinity", "-inf"], indent=2)


def _reference(obj):
    """obj as json.dumps(..., indent=2) is to write it for a report: dict
    keys as strings, numpy scalars as Python ones, non-finite floats as
    "nan", "inf" and "-inf", arrays as their tolist() and a RateLog as its
    [start, rates] pairs (the converter that the writer once ran before
    its layout walk, less its Fraction branch: no report holds one).  An
    int key stays an int, which json.dumps writes as str(key) itself: an
    int and a str key that write alike stay two entries, as in the writer."""
    if isinstance(obj, dict):
        return {(k if type(k) is int else str(k)): _reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return _reference(obj.tolist())
    if isinstance(obj, RateLog):
        return _reference([[start, rates] for start, rates in obj])
    return obj


def _payloads(name):
    """Every subcommand's JSON report on one fixture, as main hands it to
    the writer, for the subcommands that give one there."""
    n = load(name)[0].n_species
    x0 = ",".join(f"{v:g}" for v in np.linspace(0.5, 2.0, n))
    frame = ";".join(",".join("1" if i == j else "0" for i in range(n)) for j in range(n))
    for argv in (["classify"], ["classify", "--direction=" + ",".join(["1"] + ["-1"] * (n - 1))],
                 ["birch", f"--x0={x0}", "--alpha=" + ",".join(["1"] * n)],
                 ["simulate", f"--x0={x0}", "--t-end=2", "--policy=piecewise-constant",
                  "--dt=0.25", "--seed=3"],
                 ["steady", f"--x0={x0}"], ["scan", "--samples=40", "--theta-points=6"],
                 ["jets", f"--frame={frame}", "--i-max=50"]):
        args = cli.build_parser().parse_args([argv[0], "unused.crn", *argv[1:]])
        try:
            payload = args.func(args, *load(name))
        except (ValueError, cli.LimitExceeded, cli.NoConvergence):
            continue
        yield argv[0], {**cli._envelope(args.subcommand, args.seed), **payload}


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
_TEXT = st.text(st.characters() | st.sampled_from('"\\{}[]%:,\0\n\x1f\x7fé\u2028☃\U0001f600'),
                max_size=6) | st.sampled_from(["NaN", "Infinity", "-Infinity"])
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ARRAYS = (hnp.arrays(st.sampled_from([np.float64, np.int64, np.uint64]), _SHAPES,
                      elements={"allow_nan": False, "allow_infinity": False})
           | hnp.arrays(np.float64, _SHAPES))  # nan and inf among the entries
_NUMPY_SCALARS = (_FLOATS.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                  | st.booleans().map(np.bool_))
_RATE_LOGS = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.builds(RateLog, hnp.arrays(np.float64, shape[0]),
                            hnp.arrays(np.float64, shape)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | _FLOATS | _TEXT | _ARRAYS
    | _NUMPY_SCALARS | _RATE_LOGS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_TEXT | st.integers(-9, 9), inner, max_size=4)),
    max_leaves=16)


class TestJsonWriter:
    @pytest.mark.parametrize("name", NETWORKS)
    def test_every_report_on_the_fixtures_equals_json_dumps(self, name):
        kinds = []
        for kind, obj in _payloads(name):
            assert cli._json_text(obj) == json.dumps(_reference(obj), indent=2), kind
            kinds.append(kind)
        assert {"classify", "simulate", "scan", "jets"} <= set(kinds)

    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_equals_json_dumps_on_json_values(self, value):
        assert cli._json_text(value) == json.dumps(_reference(value), indent=2)

    @pytest.mark.parametrize("value", [{"a": Fraction(1, 2)}, [1.5, {2, 3}], {"a": [b""]}])
    def test_refuses_what_json_dumps_refuses(self, value):
        for write in (lambda v: json.dumps(v, indent=2), cli._json_text):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                write(value)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 2), (), (2, 1, 3)])
    def test_empty_and_nested_arrays(self, shape):
        for arr in (np.arange(np.prod(shape), dtype=float).reshape(shape) / 3,
                    np.arange(np.prod(shape)).reshape(shape) - 2 ** 62):
            value = {"a": arr, "b": [arr, {"c": arr}]}
            assert cli._json_text(value) == json.dumps(_reference(value), indent=2)

    @pytest.mark.parametrize("segments, r", [(0, 3), (1, 0), (3, 1), (4, 3)])
    def test_rate_log_is_written_as_its_pairs(self, segments, r):
        log = RateLog(np.arange(segments) / 7, np.arange(segments * r).reshape(segments, r) / 3)
        value = {"rate_log": log, "events": ({"type": "step-limit", "time": 0.5},)}
        assert cli._json_text(value) == json.dumps(_reference(value), indent=2)
        assert cli._json_text(value) == cli._json_text({**value, "rate_log": tuple(log)})


def _reference_points(traj, s_idx):
    # the per-point formula: numpy scalars through sx and sy, two f-strings
    width, height, margin = 640, 480, 50.0
    times, states = traj.times, traj.states
    t_lo, t_hi = float(times[0]), float(times[-1])
    x_lo, x_hi = 0.0, float(states.max()) or 1.0
    span_t, span_x = (t_hi - t_lo) or 1.0, (x_hi - x_lo) or 1.0

    def sx(t):
        return margin + (t - t_lo) / span_t * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - x_lo) / span_x * (height - 2 * margin)

    pts = " ".join(f"{sx(times[i]):.2f},{sy(states[i, s_idx]):.2f}" for i in range(len(times)))
    return pts, f"{sy(states[-1, s_idx]) + 4:.2f}"


class TestTrajectorySvg:
    @pytest.mark.parametrize("name", ["reverse_lv", "futile_cycle", "triangle_out", "prism"])
    @pytest.mark.parametrize("policy", [RatePolicy("constant-mid"),
                                        RatePolicy("piecewise-constant", seed=4, dt=0.3)],
                             ids=["mid", "piecewise"])
    def test_points_equal_the_per_point_reference(self, name, policy):
        net, temp = load(name)
        traj = simulate(net, temp, policy, np.linspace(0.2, 3.0, net.n_species), 3.0)
        svg = cli._trajectory_svg(net, traj)
        points = re.findall(r'<polyline points="([^"]*)"', svg)
        labels = re.findall(r'<text x="594.0" y="([^"]*)"', svg)
        assert len(points) == len(labels) == net.n_species
        for s_idx in range(net.n_species):
            assert (points[s_idx], labels[s_idx]) == _reference_points(traj, s_idx)


class TestSimulateCommand:
    def test_json_output(self, rlv_file):
        doc = json.loads(
            run_cli(
                ["simulate", rlv_file, "--x0", "1,1", "--t-end", "1"]
            ).stdout
        )
        assert doc["command"] == "simulate"
        assert doc["times"][0] == 0.0
        assert doc["times"][-1] == 1.0
        assert len(doc["states"][0]) == 2

    def test_csv_header_and_columns(self, rlv_file):
        out = run_cli(
            [
                "simulate", rlv_file, "--x0", "2,1", "--t-end", "1",
                "--format", "csv",
            ]
        )
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "t,x_X,x_Y,g,dg_dt"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 2.0

    def test_svg_output_is_self_contained(self, rlv_file):
        out = run_cli(
            [
                "simulate", rlv_file, "--x0", "2,1", "--t-end", "1",
                "--format", "svg",
            ]
        )
        body = out.stdout.strip()
        assert body.startswith("<svg")
        assert body.endswith("</svg>")
        assert "<polyline" in body
        assert "href" not in body

    def test_sampled_runs_reproducible_by_seed(self, rlv_file):
        args = [
            "simulate", rlv_file, "--x0", "1,1", "--t-end", "2",
            "--policy", "piecewise-constant", "--dt", "0.5", "--seed", "11",
        ]
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout
        c = run_cli(args[:-1] + ["12"])
        assert a.stdout != c.stdout

    def test_rejected_trial_steps_leave_stderr_empty(self, tmp_path):
        # from (1, 1, 30) tetrahedron's early trial steps leave the orthant or
        # overflow; they are rejected before their error norm is formed
        p = tmp_path / "tetrahedron.crn"
        p.write_text(network_text("tetrahedron"))
        out = run_cli(["simulate", str(p), "--x0=1,1,30", "--t-end", "5"])
        assert out.returncode == 0
        assert out.stderr == ""
        assert json.loads(out.stdout)["times"][-1] == 5.0

    def test_fixed_policy_requires_rates_inside_tempering(self, rlv_file):
        out = run_cli(
            [
                "simulate", rlv_file, "--x0", "1,1", "--t-end", "1",
                "--policy", "fixed", "--rates", "9,1,1",
            ]
        )
        assert out.returncode == 1

    def test_csv_identical_under_optimized_python(self, rlv_file, ab_file, tmp_path):
        # asserts stripped by -O must not guard anything the integrator, the
        # steady-state search, the scan's zero-margin components or any
        # other subcommand needs: every subcommand and format, called
        # in-process, one interpreter per flag set
        tetrahedron = tmp_path / "tetrahedron.crn"
        tetrahedron.write_text(network_text("tetrahedron"))
        futile_cycle = tmp_path / "futile_cycle.crn"
        futile_cycle.write_text(network_text("futile_cycle"))
        sim = ["simulate", rlv_file, "--x0=0.05,20", "--t-end=20",
               "--policy=piecewise-constant", "--seed=3"]
        calls = (
            (["classify", rlv_file], "{"),
            (["classify", rlv_file, "--direction=1,0"], "{"),
            (["birch", ab_file, "--x0=2,2", "--alpha=1,3"], "{"),
            (sim, "{"), ([*sim, "--format=csv"], "t,"), ([*sim, "--format=svg"], "<svg"),
            (["steady", str(tetrahedron), "--x0=0.5,1.79,0.55"], "{"),
            (["scan", str(futile_cycle)], "{"),
            (["scan", rlv_file, "--format=svg"], "<svg"),
            (["jets", rlv_file, "--frame=0,-1;-1,0"], "{"),
        )
        plain, optimized = [
            subprocess.run([sys.executable, *flags, "-c", _IN_PROCESS,
                            json.dumps([argv for argv, _ in calls])],
                           capture_output=True, text=True, timeout=_TIMEOUT)
            for flags in ([], ["-O"])]
        for out in (plain, optimized):
            assert out.returncode == 0
            assert out.stderr == ""
        assert optimized.stdout == plain.stdout
        outputs = json.loads(plain.stdout)
        assert len(outputs) == len(calls)
        for (argv, head), (code, text) in zip(calls, outputs):
            assert code == 0 and text.startswith(head), argv


# calls cli.main on each argv of the JSON list in argv[1], and prints the
# list of [exit code, stdout text] pairs as JSON
_IN_PROCESS = """
import contextlib, io, json, sys
from crnkit import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
json.dump(outputs, sys.stdout)
"""


class TestEmptyVectors:
    @pytest.mark.parametrize("argv, head", [
        (["simulate", "--x0=", "--t-end=1"], "{"),
        (["simulate", "--x0=", "--t-end=1", "--format=csv"], "t,g,dg_dt\n0.0,"),
        (["simulate", "--x0=", "--t-end=1", "--format=svg"], "<svg"),
        (["steady", "--x0="], "{"),
        (["birch", "--x0=", "--alpha="], "{"),
    ], ids=["simulate-json", "simulate-csv", "simulate-svg", "steady", "birch"])
    def test_species_free_network_gives_a_report(self, argv, head, tmp_path, capsys):
        # an empty vector value has no entries, as a network without species needs
        path = tmp_path / "empty.crn"
        path.write_text("0 -> 0\n")
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
        out = capsys.readouterr()
        assert out.out.startswith(head) and out.err == ""

    def test_empty_or_blank_value_is_no_entries(self, rlv_file, capsys):
        assert cli._parse_vector("", 0, "--x0") == cli._parse_vector(" ", 0, "--x0") == ()
        assert cli.main(["simulate", rlv_file, "--x0=", "--t-end=1"]) == 1
        assert capsys.readouterr().err == (
            "crnkit: parse error: --x0 needs 2 comma-separated values, got 0\n")


class TestScanCommand:
    def test_json_shape(self, rlv_file):
        doc = json.loads(
            run_cli(["scan", rlv_file, "--x0", "1,1", "--samples", "100"]).stdout
        )
        assert doc["theta_hat"] is not None
        assert len(doc["near_zero_clusters"]) == 3

    def test_byte_identical_reruns(self, rlv_file):
        args = ["scan", rlv_file, "--x0", "1,1", "--samples", "100"]
        assert run_cli(args).stdout == run_cli(args).stdout

    def test_samples_above_cap_is_one_line_exit_one(self, rlv_file):
        out = run_cli(["scan", rlv_file, "--x0", "1,1", "--samples", "10001"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == ("crnkit: error: direction_samples must be at most "
                              "10000, got 10001\n")

    def test_theta_points_above_cap_is_one_line_exit_one_before_the_grid(
            self, rlv_file, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("theta grid built")
        monkeypatch.setattr(cli.np, "geomspace", no_grid)
        for count in (1001, 10**12):
            assert cli.main(["scan", rlv_file, f"--theta-points={count}"]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == (f"crnkit: error: --theta-points must be at most 1000, "
                               f"got {count}\n")

    def test_svg_needs_two_species_before_the_scan(self, tmp_path, monkeypatch, capsys):
        def no_scan(*args, **kwargs):
            raise AssertionError("scan run")
        monkeypatch.setattr(cli, "cutoff_scan", no_scan)
        src, out = tmp_path / "chain_cycle.crn", tmp_path / "scan.svg"
        src.write_text(network_text("chain_cycle"))
        assert cli.main(["scan", str(src), "--format", "svg", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("crnkit: parse error: svg scan output needs "
                                           "a 2-species network\n")
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["400", "0"])
    def test_no_species_is_one_line_exit_one(self, tmp_path, samples):
        # no unit direction exists, so the scan refuses before drawing
        empty = tmp_path / "empty.crn"
        empty.write_text("0 -> 0\n")
        out = run_cli(["scan", str(empty), f"--samples={samples}"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == "crnkit: error: a network with no species has no direction to scan\n"

    def test_single_theta_point_with_one_conservation_law(self, ab_file):
        # one grid theta gives no neighbouring pair to bisect
        doc = json.loads(run_cli(["scan", ab_file, "--theta-points=1"]).stdout)
        assert doc["theta_grid"] == [1.5]
        assert len(doc["near_zero_clusters"]) == 2

    def test_default_flags_give_the_library_grids(self):
        # jets owns both grid rules: the CLI's default flags give the grids
        # cutoff_scan and domination_monitor use when given none
        parser = cli.build_parser()
        scan = parser.parse_args(["scan", "net.crn"])
        jets = parser.parse_args(["jets", "net.crn", "--frame", "1,0"])
        assert np.array_equal(_theta_grid(scan.theta_max, scan.theta_points), _theta_grid())
        assert np.array_equal(_index_grid(jets.i_max), _index_grid())

    def test_svg_margin_chart(self, rlv_file):
        out = run_cli(
            ["scan", rlv_file, "--x0", "1,1", "--samples", "60",
             "--format", "svg"]
        )
        body = out.stdout.strip()
        assert body.startswith("<svg") and body.endswith("</svg>")


class TestJetsCommand:
    def test_domination_report(self, rlv_file):
        doc = json.loads(
            run_cli(
                ["jets", rlv_file, "--frame", "0,-1;-1,0"]
            ).stdout
        )
        assert doc["all_dominated"] is True
        assert doc["warning"] is None
        assert all(e["dominated"] for e in doc["entries"])

    def test_negative_frame_after_a_space(self, rlv_file):
        out = run_cli(["jets", rlv_file, "--frame", "-1,0;0,-1", "--i-max", "10"])
        assert out.returncode == 0
        assert json.loads(out.stdout)["frame"] == [[-1.0, 0.0], [0.0, -1.0]]

    @pytest.mark.parametrize("frame", ["1e154,1e154", "1e308,1e308"])
    def test_frame_past_the_float_range_reports_as_its_direction(self, frame, rlv_file):
        # the norm of such a vector overflows: it used to read inf and the
        # frame failed its orthonormality check (exit 1)
        out = run_cli(["jets", rlv_file, f"--frame={frame}"])
        unit = run_cli(["jets", rlv_file, "--frame=1,1"])
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == unit.stdout

    def test_warning_surfaces_in_output(self, tmp_path):
        p = tmp_path / "ab.crn"
        p.write_text("species: A B\nA <-> B rate [1] [1]\n")
        doc = json.loads(
            run_cli(["jets", str(p), "--frame", "1,1;-1,1"]).stdout
        )
        assert doc["warning"] is not None
        assert doc["all_dominated"] is False


# one call per subcommand and output format, on the A <-> B network
_FORMS = {
    "classify": ["classify", "{file}"],
    "classify-direction": ["classify", "{file}", "--direction", "1,-1"],
    "birch": ["birch", "{file}", "--x0", "1,2", "--alpha", "2,1"],
    "simulate": ["simulate", "{file}", "--x0", "1,2", "--t-end", "1"],
    "simulate-csv": ["simulate", "{file}", "--x0", "1,2", "--t-end", "1", "--format", "csv"],
    "simulate-svg": ["simulate", "{file}", "--x0", "1,2", "--t-end", "1", "--format", "svg"],
    "steady": ["steady", "{file}", "--x0", "1,2"],
    "scan": ["scan", "{file}", "--samples", "20", "--theta-points", "10"],
    "scan-svg": ["scan", "{file}", "--samples", "20", "--theta-points", "10", "--format", "svg"],
    "jets": ["jets", "{file}", "--frame", "1,1;-1,1", "--i-max", "50"],
}


class TestOutputFile:
    def test_out_writes_file(self, rlv_file, tmp_path):
        dest = tmp_path / "report.json"
        out = run_cli(["classify", rlv_file, "--out", str(dest)])
        assert out.returncode == 0
        assert out.stdout == ""
        doc = json.loads(dest.read_text())
        assert doc["command"] == "classify"

    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_out_file_and_dash_write_the_stdout_bytes(self, form, ab_file, tmp_path, capsys):
        # one writer serves every subcommand and format
        argv = [a.format(file=ab_file) for a in _FORMS[form]]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        dest = tmp_path / "report"
        assert cli.main([*argv, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_bytes() == stdout.encode()
        assert cli.main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_unwritable_out_is_one_line_exit_one(self, form, where, ab_file, tmp_path,
                                                 capsys):
        # open() raised FileNotFoundError or IsADirectoryError: a traceback
        dest, code = ((tmp_path / "missing" / "x", errno.ENOENT) if where == "missing-directory"
                      else (tmp_path, errno.EISDIR))
        argv = [a.format(file=ab_file) for a in _FORMS[form]]
        assert cli.main([*argv, "--out", str(dest)]) == 1
        assert capsys.readouterr() == ("", f"crnkit: error: cannot write {dest}: "
                                           f"{os.strerror(code)}\n")
