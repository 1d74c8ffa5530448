"""Command-line interface: envelope fields, exit codes, deterministic
output, and the JSON / CSV / SVG formats."""

import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import network_text
from crnkit import cli
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
        assert cli._jsonify(arr) == arr.tolist()
        assert (json.dumps(cli._jsonify(arr), indent=2)
                == json.dumps([cli._jsonify(v) for v in arr], indent=2))

    @pytest.mark.parametrize("arr, want", [
        (np.array([1.0, np.nan, np.inf, -np.inf]), '[1.0, "nan", "inf", "-inf"]'),
        (np.array([[0.5, np.inf], [np.nan, 2.0]]), '[[0.5, "inf"], ["nan", 2.0]]'),
    ], ids=["1-d", "2-d"])
    def test_non_finite_entries_print_as_strings(self, arr, want):
        # an array with one non-finite entry takes the per-value path
        assert json.dumps(cli._jsonify(arr)) == want


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

    def test_csv_identical_under_optimized_python(self, rlv_file, tmp_path):
        # asserts stripped by -O must not guard anything the integrator, the
        # steady-state search or the scan's zero-margin components need
        tetrahedron = tmp_path / "tetrahedron.crn"
        tetrahedron.write_text(network_text("tetrahedron"))
        futile_cycle = tmp_path / "futile_cycle.crn"
        futile_cycle.write_text(network_text("futile_cycle"))
        for args, head in (
            (["simulate", rlv_file, "--x0=0.05,20", "--t-end=20",
              "--policy=piecewise-constant", "--seed=3", "--format=csv"], b"t,"),
            (["steady", str(tetrahedron), "--x0=0.5,1.79,0.55"], b"{"),
            (["scan", str(futile_cycle)], b"{"),
        ):
            plain, optimized = [
                subprocess.run([sys.executable, *flags, "-m", "crnkit.cli", *args],
                               capture_output=True, timeout=_TIMEOUT)
                for flags in ([], ["-O"])]
            for out in (plain, optimized):
                assert out.returncode == 0
                assert out.stderr == b""
            assert optimized.stdout == plain.stdout
            assert plain.stdout.startswith(head)


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
