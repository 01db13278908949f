"""Black-box tests of the batch command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fraclap
from fraclap import cli, discrete
from fraclap.domain import (BoundaryData, boundary_quadrature, make_interval_grid,
                            make_rectangle_grid)
from fraclap.operators import Definition, FracLapRequest, evaluate
from fraclap.riesz import PotentialRequest, riesz_potential_field

# the child process imports the same fraclap as this one
_SRC = os.path.dirname(os.path.dirname(fraclap.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fraclap.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestPotentialCommand:
    def test_basic_output(self):
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                    "--func", "const:1", "--points", "0.25,0.5")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 3
        x, v = lines[2].split(",")
        assert float(x) == 0.5
        assert float(v) > 0.0

    def test_all_interior(self):
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                    "--func", "quad", "--all-interior")
        assert r.returncode == 0
        assert len(r.stdout.strip().split("\n")) > 2

    def test_2d_points(self):
        r = run_cli("potential", "--d", "2", "--domain", "0,1,0,1", "--sigma",
                    "0.75", "--func", "const:1", "--points", "0.4,0.5;0.6,0.5")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "x,y,value"
        # symmetric points of a symmetric field give equal values
        v1 = float(lines[1].split(",")[2])
        v2 = float(lines[2].split(",")[2])
        assert v1 == pytest.approx(v2, rel=1e-12)


class TestFraclapCommand:
    def test_single_definition(self):
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                    "--def", "new", "--func", "quad", "--points", "0.5")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "x,value,definition"
        assert lines[1].endswith(",new")

    def test_multiple_definitions_reldiff(self):
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                    "--def", "new", "--def", "augmented", "--func", "quad",
                    "--points", "0.5", "--bc-from-func")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "x,new,augmented,reldiff_new_augmented"
        reldiff = float(lines[1].split(",")[3])
        assert reldiff < 1e-6


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("validate", "--suite", "special").returncode == 0

    def test_argument_errors_are_two(self):
        # malformed order
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "3",
                    "--func", "quad", "--points", "0.5")
        assert r.returncode == 2
        # missing evaluation points
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                    "--func", "quad")
        assert r.returncode == 2
        # unknown field spec
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                    "--func", "nope:1", "--points", "0.5")
        assert r.returncode == 2
        # argparse-level error (unknown definition)
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                    "--def", "bogus", "--func", "quad", "--points", "0.5")
        assert r.returncode == 2
        # boundary data missing for the augmented route
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                    "--def", "augmented", "--func", "quad", "--points", "0.5")
        assert r.returncode == 2

    @pytest.mark.parametrize("flag, name", [("--gauss", "gauss order"), ("--radial", "radial order")])
    def test_bad_rule_parameter_is_two(self, flag, name):
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                    "--def", "new", "--func", "quad", "--points", "0.5", flag, "0")
        assert r.returncode == 2
        assert name in r.stderr

    @pytest.mark.parametrize("d, domain, point", [(1, "0,1", "nan"), (2, "0,1,0,1", "0.5,nan")])
    def test_nan_point_is_a_margin_error(self, capsys, d, domain, point):
        assert cli.main(["fraclap", "--d", str(d), "--domain", domain, "--s", "0.5",
                         "--def", "hyper", "--func", "quad", "--points", point]) == 2
        assert "interior margin" in capsys.readouterr().err

    @pytest.mark.parametrize("d, domain, point, shown", [(1, "0,1", "0.01", " 0.01 "),
                                                         (2, "0,1,0,1", "0.01,0.5", " [0.01, 0.5] ")])
    def test_margin_error_shows_the_point(self, capsys, d, domain, point, shown):
        assert cli.main(["fraclap", "--d", str(d), "--domain", domain, "--s", "0.5",
                         "--def", "new", "--func", "quad", "--points", point]) == 2
        err = capsys.readouterr().err
        assert f"evaluation point{shown}violates the interior margin" in err

    @pytest.mark.parametrize("cmd", [["fraclap", "--s", "0.5", "--def", "new"],
                                     ["potential", "--sigma", "0.5"]], ids=["fraclap", "potential"])
    @pytest.mark.parametrize("d, domain, point, func, message", [
        (1, "0,1", "0.5", "gauss:0.5,0", "width must be finite and > 0, got 0.0"),
        (1, "0,1", "0.5", "gauss:nan,0.2", "center must be finite, got [nan]"),
        (1, "0,1", "0.5", "const:nan", "constant term must be finite, got nan"),
        (2, "0,1,0,1", "0.5,0.5", "gauss:0.5,0.5,-0.1", "width must be finite and > 0, got -0.1"),
        (2, "0,1,0,1", "0.5,0.5", "affine:1,inf,0", "gradient must be finite, got [1.0, inf]"),
    ])
    def test_degenerate_field_is_two(self, capsys, cmd, d, domain, point, func, message):
        assert cli.main([*cmd, "--d", str(d), "--domain", domain, "--func", func,
                         "--points", point]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and message in err

    @pytest.mark.parametrize("cmd", [["fraclap", "--s", "0.5", "--def", "new"],
                                     ["potential", "--sigma", "0.5"]], ids=["fraclap", "potential"])
    @pytest.mark.parametrize("d, domain, point, shown", [
        (1, "0,inf", "0.5", "[0.0, inf]"),
        (1, "-1e308,1e308", "0.5", "[-1e+308, 1e+308]"),
        (2, "0,1,0,inf", "0.5,0.5", "[0.0, 1.0]x[0.0, inf]"),
    ])
    def test_infinite_box_is_two_with_one_message(self, cmd, d, domain, point, shown):
        # no NaN value, no margin error and no numpy warning: the box itself is refused
        r = run_cli(*cmd, "--d", str(d), "--domain=" + domain, "--func", "quad",
                    "--points", point)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == f"ValueError: box {shown} has a side of infinite width\n"

    def test_numerical_errors_are_three(self):
        # gamma pole at d=1, s=1
        r = run_cli("fraclap", "--d", "1", "--domain", "0,1", "--s", "1.0",
                    "--def", "new", "--func", "quad", "--points", "0.5")
        assert r.returncode == 3
        assert "GammaPole" in r.stderr

    @pytest.mark.parametrize("spec, message", [
        ("2d:40,40", "expects 2d:nx,ny,lx,ly"),
        ("1d:1,1", "need at least 2 interior nodes"),
    ])
    def test_bad_assemble_spec_is_two(self, spec, message):
        for cmd in (["matpow", "--s", "1.0"],
                    ["diffuse", "--s", "1.0", "--ic", "sine:1", "--times", "0.1"]):
            r = run_cli(*cmd, "--assemble", spec)
            assert r.returncode == 2
            assert repr(spec) in r.stderr and message in r.stderr

    @pytest.mark.parametrize("argv", [
        ["diffuse", "--assemble", "1d:4,inf", "--s", "1", "--ic", "sine:1", "--times", "0,1"],
        ["matpow", "--assemble", "1d:10,inf", "--s", "1", "--check", "semigroup"],
        ["matpow", "--assemble", "2d:3,3,1,1e308", "--s", "1", "--check", "spectral"],
        ["diffuse", "--assemble", "1d:4,1e-200", "--s", "1", "--ic", "sine:1", "--times", "0,1"],
    ], ids=["diffuse-inf", "semigroup-inf", "spectral-1e308", "diffuse-1e-200"])
    def test_side_without_a_finite_scale_is_two(self, argv):
        # no nan rows, warning or traceback: one line naming the length
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("ValueError: assembly spec ") and r.stderr.count("\n") == 1
        assert "length must be positive and finite" in r.stderr

    def test_asymmetric_matrix_is_three(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n0,1\n")
        r = run_cli("matpow", "--matrix", str(path), "--s", "1.0")
        assert r.returncode == 3
        assert "NotSymmetric" in r.stderr

    def test_indefinite_matrix_is_three(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,-2\n")
        r = run_cli("matpow", "--matrix", str(path), "--s", "1.0")
        assert r.returncode == 3
        assert "NotPositiveDefinite" in r.stderr


    @pytest.mark.parametrize("text", ["1,nan\nnan,1\n", "2,-1\n-1,inf\n"], ids=["nan", "inf"])
    def test_non_finite_matrix_is_two(self, tmp_path, capsys, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert cli.main(["matpow", "--matrix", str(path), "--s", "1.0"]) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        lambda path: ["matpow", "--assemble", "1d:4,1", "--s", "1.0", "--apply", path],
        lambda path: ["diffuse", "--assemble", "1d:4,1", "--s", "1.0", "--times", "0,0.1",
                      "--ic", "file:" + path],
    ], ids=["apply", "diffuse"])
    def test_non_finite_vector_is_two(self, tmp_path, capsys, argv):
        path = tmp_path / "v.csv"
        path.write_text("1\n2\nnan\n4\n")
        assert cli.main(argv(str(path))) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("trace", ["--dirichlet", "--neumann"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_boundary_trace_is_two(self, capsys, trace, bad):
        traces = {"--dirichlet": "0.5", "--neumann": "0", trace: bad}
        argv = ["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "augmented",
                "--func", "quad", "--points", "0.5", *(f"{k}={v}" for k, v in traces.items())]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "MissingBoundaryData" in captured.err and "finite" in captured.err
        assert captured.out == ""

    def test_empty_csv_is_two(self, tmp_path):
        # an empty file is malformed input, named on stderr, with no numpy warning
        path = tmp_path / "empty.csv"
        path.write_text("")
        for argv in (["matpow", "--matrix", str(path), "--s", "1.0"],
                     ["matpow", "--assemble", "1d:4,1", "--s", "1.0", "--apply", str(path)],
                     ["diffuse", "--assemble", "1d:4,1", "--s", "1.0", "--times", "0,0.1",
                      "--ic", "file:" + str(path)]):
            r = run_cli(*argv)
            assert r.returncode == 2, r.stderr
            assert str(path) in r.stderr and "no data" in r.stderr
            assert "Warning" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1,x\nx,1\n", "1,2,\n2,1,\n",
                                      "1,2 # x\n2,1\n", "1,2#,3\n2,1\n"],
                             ids=["ragged", "word", "trailing-comma", "comment", "hash"])
    @pytest.mark.parametrize("mode", ["--matrix", "--apply"])
    def test_malformed_csv_is_two(self, tmp_path, capsys, text, mode):
        path = tmp_path / "m.csv"
        path.write_text(text)
        source = ["--matrix", str(path)] if mode == "--matrix" else [
            "--assemble", "1d:2,1", "--apply", str(path)]
        assert cli.main(["matpow", *source, "--s", "1.0"]) == 2
        assert "ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        lambda path: ["matpow", "--matrix", path, "--s", "1.0"],
        lambda path: ["matpow", "--assemble", "1d:4,1", "--s", "1.0", "--apply", path],
        lambda path: ["diffuse", "--assemble", "1d:4,1", "--s", "1.0", "--times", "0,0.1",
                      "--ic", "file:" + path],
    ], ids=["matrix", "apply", "diffuse"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_file_is_two(self, tmp_path, capsys, argv, kind):
        # a file that cannot be opened is an argument error, named on stderr, no traceback
        path = tmp_path / "none.csv"
        if kind == "directory":
            path.mkdir()
        assert cli.main(argv(str(path))) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and "Traceback" not in captured.err
        assert captured.err.startswith(("FileNotFoundError: ", "IsADirectoryError: "))
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "new",
         "--func", "quad", "--points", "0.5"],
        ["matpow", "--assemble", "1d:4,1", "--s", "1.0"],
        ["diffuse", "--assemble", "1d:4,1", "--s", "1.0", "--ic", "sine:1", "--times", "0"],
    ], ids=["fraclap", "matpow", "diffuse"])
    def test_unwritable_out_is_two(self, tmp_path, capsys, argv):
        out = tmp_path / "no-such-dir" / "out.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError: ") and str(out) in err

    def test_missing_file_from_the_console(self, tmp_path):
        path = tmp_path / "none.csv"
        r = run_cli("matpow", "--matrix", str(path), "--s", "1")
        assert r.returncode == 2
        assert str(path) in r.stderr and "Traceback" not in r.stderr


_FRACLAP_1D = ["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "new",
               "--func", "quad"]
_POTENTIAL_1D = ["potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5", "--func", "quad"]


class TestConflictingFlags:
    """Flags that pick one input or one mode exclude each other: the command exits 2
    before it reads any file, and stderr names both flags."""

    @pytest.mark.parametrize("argv, first, second", [
        (["matpow", "--assemble", "1d:6,1", "--s", "1", "--apply", "v.csv",
          "--check", "semigroup"], "--apply", "--check"),
        (["matpow", "--matrix", "m.csv", "--assemble", "1d:6,1", "--s", "1"],
         "--matrix", "--assemble"),
        ([*_FRACLAP_1D, "--points", "0.5", "--all-interior"], "--points", "--all-interior"),
        ([*_POTENTIAL_1D, "--points", "0.5", "--all-interior"], "--points", "--all-interior"),
    ], ids=["matpow-apply-check", "matpow-matrix-assemble", "fraclap-points-all-interior",
            "potential-points-all-interior"])
    def test_conflicting_pair_is_two(self, capsys, argv, first, second):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {second}: not allowed with argument {first}" in captured.err

    def test_matpow_needs_a_matrix_or_a_stencil(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["matpow", "--s", "1", "--check", "semigroup"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "error: one of the arguments --matrix --assemble is required" in err


class TestNegativeListValues:
    """A list value that starts with ``-`` parses the same after a space as after ``=``."""

    CASES = [
        (["fraclap", "--d", "1", "--s", "0.5", "--def", "new", "--func", "quad"],
         [("--domain", "-1,1"), ("--points", "-0.5,0.5")]),
        (["fraclap", "--d", "2", "--s", "0.75", "--def", "hyper", "--func", "gauss:0,0,0.3"],
         [("--domain", "-1,1,-1,1"), ("--points", "-0.2,0.3;0.4,0.5")]),
        (["potential", "--d", "1", "--sigma", "0.5", "--func", "gauss:-0.1,0.3"],
         [("--domain", "-1,-0.25"), ("--points", "-.5,-0.625")]),
    ]

    @pytest.mark.parametrize("argv, pairs", CASES, ids=["1d", "2d", "potential"])
    def test_space_form_matches_equals_form(self, capsys, argv, pairs):
        texts = []
        for words in ([w for pair in pairs for w in pair], [f"{o}={v}" for o, v in pairs]):
            assert cli.main([*argv, *words]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].count("\n") > 1

    def test_negative_time_reaches_the_times_check(self, capsys):
        assert cli.main(["diffuse", "--assemble", "1d:4,1", "--s", "1", "--ic", "sine:1",
                         "--times", "-1,0"]) == 2
        assert "times must be nonnegative and not NaN" in capsys.readouterr().err

    def test_negative_order_is_still_a_value(self, capsys):
        assert cli.main(["matpow", "--assemble", "1d:4,1", "--s", "-0.5"]) == 2
        assert "(0, 2]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--points", "--all-interior"], ["--points"]])
    def test_missing_value_is_still_an_argument_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "new",
                      "--func", "quad", *argv])
        assert exc.value.code == 2
        assert "argument --points: expected one argument" in capsys.readouterr().err


class TestMatpow:
    def test_check_semigroup(self):
        r = run_cli("matpow", "--assemble", "1d:12,1", "--s", "1.0",
                    "--check", "semigroup")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["pass"] is True

    def test_check_semigroup_detects_a_wrong_power(self, monkeypatch, capsys):
        # modes that come back 0.1% too large break the identity by 1e-3
        to_modes = discrete.DirichletStencil.to_modes
        monkeypatch.setattr(discrete.DirichletStencil, "from_modes",
                            lambda self, c: 1.001 * to_modes(self, c))
        code = cli.main(["matpow", "--assemble", "2d:6,5,1,1.5", "--s", "0.8",
                         "--check", "semigroup"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["pass"] is False
        assert report["measured"] == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("spec, shape, lengths", [("1d:30,1", (30,), (1.0,)),
                                                      ("2d:7,9,1,2", (7, 9), (1.0, 2.0))])
    @pytest.mark.parametrize("s", [0.3, 1.5, 2.0])
    def test_check_semigroup_matches_per_vector_reference(self, capsys, spec, shape, lengths,
                                                          s):
        # the block check reports the bits of nine single-vector applications
        op = discrete.DirichletStencil(shape, lengths)
        measured = 0.0
        for v in np.random.default_rng(0).standard_normal((3, op.n)):
            half = discrete.apply_fraclap_discrete(op, s / 2.0, v)
            twice = discrete.apply_fraclap_discrete(op, s / 2.0, half)
            full = discrete.apply_fraclap_discrete(op, s, v)
            measured = max(measured, float(np.linalg.norm(twice - full) / np.linalg.norm(full)))
        assert cli.main(["matpow", "--assemble", spec, "--s", str(s), "--check", "semigroup"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"check": "semigroup", "measured": measured, "tolerance": 1e-8,
                          "pass": True}

    def test_check_spectral(self):
        r = run_cli("matpow", "--assemble", "1d:12,1", "--s", "0.7",
                    "--check", "spectral")
        assert r.returncode == 0

    def test_apply_vector(self, tmp_path):
        vec = tmp_path / "v.csv"
        vec.write_text("\n".join(str(v) for v in np.ones(8)) + "\n")
        r = run_cli("matpow", "--assemble", "1d:8,1", "--s", "2.0",
                    "--apply", str(vec))
        assert r.returncode == 0
        vals = [float(t) for t in r.stdout.strip().split("\n")[1:]]
        assert len(vals) == 8
        # applying the full operator to the all-ones vector: only the
        # endpoints see the missing neighbor, interior rows cancel
        h2 = (1.0 / 9.0) ** 2
        assert vals[0] == pytest.approx(1.0 / h2, rel=1e-12)
        assert vals[3] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("mode", [[], ["--check", "spectral"], ["--check", "semigroup"],
                                      ["--apply", "unread.csv"]],
                             ids=["power", "spectral", "semigroup", "apply"])
    @pytest.mark.parametrize("s", ["3", "0"])
    def test_order_outside_range_is_two_in_every_mode(self, capsys, mode, s):
        # checked before any mode runs, so the vector file is never opened
        code = cli.main(["matpow", "--assemble", "1d:6,1", "--s", s, *mode])
        captured = capsys.readouterr()
        assert code == 2
        assert "(0, 2]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("spec, K", [
        ("1d:30,1", discrete.assemble_laplacian_1d(30, 1.0)),
        ("2d:7,5,1,2.5", discrete.assemble_laplacian_2d(7, 5, 1.0, 2.5)),
    ])
    def test_assemble_matches_matrix(self, tmp_path, spec, K):
        # the matrix-free stencil and dense eigh of the same matrix give the same output
        matrix, vec = tmp_path / "k.csv", tmp_path / "v.csv"
        discrete.save_matrix_csv(matrix, K)
        discrete.save_matrix_csv(vec, np.random.default_rng(6).standard_normal((len(K), 1)))
        for extra in ([], ["--apply", str(vec)]):
            outs = []
            for source in (["--assemble", spec], ["--matrix", str(matrix)]):
                r = run_cli("matpow", *source, "--s", "0.75", *extra)
                assert r.returncode == 0
                outs.append(np.loadtxt(r.stdout.splitlines()[1:], delimiter=","))
            assert outs[0].shape == outs[1].shape
            assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12 * np.max(np.abs(outs[1]))


class TestDiffuse:
    def test_long_format_and_norm_decay(self):
        r = run_cli("diffuse", "--assemble", "1d:10,1", "--s", "1.5",
                    "--ic", "sine:1", "--times", "0,0.001,0.01")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "t,node,value,norm"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 30
        norms = sorted({float(rw[0]): float(rw[3]) for rw in rows}.items())
        assert norms[0][1] >= norms[1][1] >= norms[2][1]

    def test_2d_sine_is_product_mode(self):
        # sine:k on a 2d: spec is an eigenvector, so it decays by exp(-lambda^(s/2) t)
        s, k, times = 0.75, 2, [0.0, 1e-3, 1e-2]
        r = run_cli("diffuse", "--assemble", "2d:7,5,1,2.5", "--s", str(s),
                    "--ic", f"sine:{k}", "--times", ",".join(map(str, times)))
        assert r.returncode == 0
        rows = np.loadtxt(r.stdout.splitlines()[1:], delimiter=",")
        u = rows[:, 2].reshape(len(times), 35)
        u0 = np.kron(np.sin(k * np.pi * np.arange(1, 8) / 8),
                     np.sin(k * np.pi * np.arange(1, 6) / 6))
        lam = (discrete.laplacian_1d_eigenvalues(7, 1.0)[k - 1]
               + discrete.laplacian_1d_eigenvalues(5, 2.5)[k - 1])
        for t, ut in zip(times, u):
            np.testing.assert_allclose(ut, np.exp(-lam ** (s / 2.0) * t) * u0,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("times", ["0,nan", "nan,1"])
    def test_nan_time_is_two(self, capsys, times):
        assert cli.main(["diffuse", "--assemble", "1d:3,1", "--s", "1", "--ic", "sine:1",
                         "--times", times]) == 2
        assert "nonnegative and not NaN" in capsys.readouterr().err

    def test_point_ic_out_of_range(self):
        r = run_cli("diffuse", "--assemble", "1d:5,1", "--s", "1.0",
                    "--ic", "point:9", "--times", "0.1")
        assert r.returncode == 2

    def test_out_file_matches_stdout_row_for_row(self, tmp_path, capsys):
        # 3 x 1600 rows, written one time slice at a time
        args = ["diffuse", "--assemble", "2d:40,40,1,1", "--s", "0.75",
                "--ic", "sine:2", "--times", "0,0.001,0.01"]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        out = tmp_path / "d.csv"
        assert cli.main([*args, "--out", str(out)]) == 0
        assert out.read_text() == text
        lines = text.split("\n")
        assert lines[0] == "t,node,value,norm" and lines[-1] == ""
        assert [int(line.split(",")[1]) for line in lines[1:-1]] == list(range(1600)) * 3


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_of_huge_values_is_finite(self, tmp_path, capsys):
        # squares of values past about 1e154 overflow; math.hypot does not
        u0 = np.random.default_rng(5).standard_normal(30) * 10.0 ** np.linspace(0.0, 300.0, 30)
        path = tmp_path / "ic.csv"
        discrete.save_matrix_csv(path, u0.reshape(-1, 1))
        assert cli.main(["diffuse", "--assemble", "1d:30,1", "--s", "0.7",
                         "--ic", f"file:{path}", "--times", "0,1e-4"]) == 0
        rows = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")
        for block in rows.reshape(2, 30, 4):
            norm = block[:, 3]
            assert np.all(norm == norm[0])
            assert norm[0] == math.hypot(*block[:, 2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_norm_of_tiny_values_is_accurate(self, tmp_path, capsys, scale):
        # squares of values below about 1e-154 underflow; math.hypot does not
        path = tmp_path / "ic.csv"
        discrete.save_matrix_csv(path, scale * np.array([[1.0], [2.0], [-1.0]]))
        assert cli.main(["diffuse", "--assemble", "1d:3,1", "--s", "0.7",
                         "--ic", f"file:{path}", "--times", "0,1e-4"]) == 0
        rows = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")
        for block in rows.reshape(2, 3, 4):
            norm = block[:, 3]
            assert np.all(norm == norm[0])
            assert norm[0] == math.hypot(*block[:, 2])
        assert rows[0, 3] == pytest.approx(math.sqrt(6.0) * scale, rel=1e-15, abs=0.0)


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaves state in it."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        vec, out = tmp_path / "v.csv", str(tmp_path / "d.csv")
        discrete.save_matrix_csv(vec, np.linspace(1.0, 2.0, 8).reshape(-1, 1))
        fraclap_args = ["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                        "--func", "quad", "--points", "0.5"]
        diffuse_args = ["diffuse", "--assemble", "1d:6,1", "--s", "0.8", "--ic", "sine:1",
                        "--times", "0,1e-3"]
        sequence = [
            [*fraclap_args, "--def", "new", "--def", "augmented", "--bc-from-func"],
            fraclap_args,  # the earlier --def values must not linger
            ["matpow", "--assemble", "1d:8,1", "--s", "0.6", "--check", "semigroup"],
            ["matpow", "--assemble", "1d:8,1", "--s", "0.6", "--apply", str(vec)],
            [*diffuse_args, "--out", out],
            diffuse_args,  # nor the earlier --out
        ]
        runs = []
        for argv in sequence:
            code = cli.main(argv)
            captured = capsys.readouterr()
            written = open(out).read() if "--out" in argv else None
            runs.append((code, captured.out, captured.err, written))
        assert runs[1][0] == 2 and "at least one --def" in runs[1][2]
        assert runs[3][0] == 0 and runs[3][1].startswith("value\n")
        assert runs[5][1] == runs[4][3] and runs[4][1] == ""
        for argv, (code, stdout, stderr, written) in zip(sequence, runs):
            r = run_cli(*argv)
            assert (code, stdout, stderr) == (r.returncode, r.stdout, r.stderr)
            if written is not None:
                assert open(out).read() == written


class TestBlockWriter:
    """Blocks formatted by one ``%`` pass carry the bytes of per-value ``.17g`` text."""

    ADVERSARIAL = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1 / 3, 1.0,
                   2.0 ** 53, 1e16, 1.7976931348623157e308, -123.456]

    @pytest.mark.parametrize("sep", [",", "\n"])
    def test_template_matches_per_value_text(self, sep):
        vals = self.ADVERSARIAL
        text = cli._doubles(len(vals), sep) % tuple(vals)
        assert text == sep.join(f"{v:.17g}" for v in vals)
        assert [float(t) for t in text.split(sep)] == vals

    @staticmethod
    def _run(capsys, *argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    @staticmethod
    def _assert_round_trip(text, rows, columns):
        """Every value field of ``text`` parses back to the library's double."""
        fields = [line.split(",") for line in text.splitlines()[1:]]
        parsed = [[float(f[c]) for c in columns] for f in fields]
        assert parsed == [[row[c] for c in columns] for row in rows]

    @pytest.mark.parametrize("ic", ["point:7", "sine:2"])
    def test_diffuse_matches_row_by_row_text(self, capsys, ic):
        s, times = 0.8, [0.0, 1e-3, 0.25]
        stencil = discrete.DirichletStencil((6, 5), (1.0, 1.5))
        if ic == "point:7":
            u0 = np.zeros(stencil.n)
            u0[7] = 1.0
        else:
            u0 = np.kron(np.sin(2 * np.pi * np.arange(1, 7) / 7),
                         np.sin(2 * np.pi * np.arange(1, 6) / 6))
        rows = [(t, node, v, math.hypot(*u))
                for t, u in zip(times, discrete.modal_diffusion_solve(stencil, s, u0, times))
                for node, v in enumerate(u)]
        expected = "t,node,value,norm\n" + "".join(
            f"{t:.17g},{node},{v:.17g},{norm:.17g}\n" for t, node, v, norm in rows)
        text = self._run(capsys, "diffuse", "--assemble", "2d:6,5,1,1.5", "--s", str(s),
                         "--ic", ic, "--times", ",".join(map(str, times)))
        assert text == expected
        if ic == "point:7":
            assert "\n0,0,-0," in text  # the transform round trip leaves signed zeros at t = 0
        self._assert_round_trip(text, rows, [0, 2, 3])

    def test_apply_matches_row_by_row_text(self, tmp_path, capsys):
        vec = np.random.default_rng(7).standard_normal(8) * 10.0 ** np.arange(-200, 200, 50)
        path = tmp_path / "v.csv"
        discrete.save_matrix_csv(path, vec.reshape(-1, 1))
        out = discrete.apply_fraclap_discrete(discrete.DirichletStencil((8,), (1.0,)), 1.3,
                                              discrete.load_matrix_csv(path).reshape(-1))
        text = self._run(capsys, "matpow", "--assemble", "1d:8,1", "--s", "1.3",
                         "--apply", str(path))
        assert text == "value\n" + "".join(f"{v:.17g}\n" for v in out)
        self._assert_round_trip(text, out.reshape(-1, 1), [0])

    def test_dense_power_matches_row_by_row_text(self, capsys):
        power = discrete.matrix_fractional_power(
            discrete.DirichletStencil((8,), (1.0,)), 0.3)
        text = self._run(capsys, "matpow", "--assemble", "1d:8,1", "--s", "0.6")
        assert text == (",".join(f"c{j}" for j in range(8)) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in power))
        self._assert_round_trip(text, power, range(8))

    TABLES = [
        ("potential", 1, ["--sigma", "0.5", "--func", "gauss:0.4,0.2", "--points", "0.2,0.5,0.8"]),
        ("potential", 1, ["--sigma", "1.25", "--func", "quad", "--all-interior"]),
        ("potential", 2, ["--sigma", "0.75", "--func", "gauss:0.4,0.5,0.2",
                          "--points", "0.4,0.5;0.6,0.45"]),
        ("potential", 2, ["--sigma", "0.5", "--func", "gauss:0.5,0.5,0.2", "--all-interior"]),
        ("fraclap", 1, ["--s", "0.5", "--def", "new", "--func", "quad", "--points", "0.3,0.5"]),
        ("fraclap", 1, ["--s", "0.75", "--def", "new", "--def", "hyper", "--def", "augmented",
                        "--func", "gauss:0.5,0.2", "--all-interior", "--bc-from-func"]),
        ("fraclap", 1, ["--s", "1.5", "--def", "new", "--def", "hyper", "--def", "new",
                        "--func", "gauss:0.45,0.2", "--points", "0.3,0.6"]),
        ("fraclap", 2, ["--s", "0.75", "--def", "new", "--def", "augmented", "--def", "restated",
                        "--func", "gauss:0.4,0.5,0.2", "--points", "0.4,0.5;0.6,0.45",
                        "--bc-from-func"]),
        ("fraclap", 2, ["--s", "1.25", "--def", "hyper", "--func", "gauss:0.5,0.5,0.2",
                        "--all-interior"]),
        ("fraclap", 2, ["--s", "0.5", "--def", "augmented", "--def", "augmented",
                        "--func", "quad", "--all-interior", "--dirichlet", "0.3",
                        "--neumann", "-1.2"]),
    ]

    @pytest.mark.parametrize("command, d, argv", TABLES,
                             ids=[f"{c}-{d}d-{i}" for i, (c, d, _) in enumerate(TABLES)])
    def test_table_matches_per_value_text(self, capsys, command, d, argv):
        """``potential`` and ``fraclap`` against per-value ``.17g`` joins and a Python
        reldiff loop over the library's own values."""
        if d == 1:
            grid, domain = make_interval_grid(0.0, 1.0, 21), "0,1"
        else:
            grid, domain = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13), "0,1,0,1"
        argv = [command, "--d", str(d), "--domain", domain, *argv]
        args = cli.build_parser().parse_args(argv)
        if args.all_interior:
            pts = grid.interior_nodes()
        elif d == 1:
            pts = np.array([float(t) for t in args.points.split(",")])
        else:
            pts = np.array([[float(t) for t in pair.split(",")] for pair in args.points.split(";")])
        phi = cli._parse_func(args.func, grid)
        coords = [",".join(f"{float(c):.17g}" for c in np.atleast_1d(p)) for p in pts]
        coord_hdr = "x" if d == 1 else "x,y"
        if command == "potential":
            req = PotentialRequest(grid=grid, phi=phi, sigma=args.sigma, eval_points=pts)
            expected = [f"{coord_hdr},value"] + [
                f"{c},{float(v):.17g}" for c, (_, v) in zip(coords, riesz_potential_field(req))]
        else:
            names = args.definition
            bq = boundary_quadrature(grid)
            boundary = (BoundaryData.from_function(bq, phi) if args.bc_from_func else
                        BoundaryData.from_values(bq, args.dirichlet, args.neumann)
                        if args.dirichlet is not None else None)
            columns = {n: [v for _, v in evaluate(FracLapRequest(
                grid=grid, phi=phi, s=args.s, eval_points=pts,
                definition=Definition.parse(n), boundary=boundary))] for n in names}
            if len(names) == 1:
                expected = [f"{coord_hdr},value,definition"] + [
                    f"{c},{float(v):.17g},{names[0]}" for c, v in zip(coords, columns[names[0]])]
            else:
                pair_cols = [f"reldiff_{a}_{b}" for i, a in enumerate(names) for b in names[i + 1:]]
                expected = [",".join([coord_hdr] + names + pair_cols)]
                for i, c in enumerate(coords):
                    vals = [columns[n][i] for n in names]
                    diffs = []
                    for j, a in enumerate(names):
                        for b in names[j + 1:]:
                            denom = max(abs(columns[a][i]), abs(columns[b][i]), 1e-300)
                            diffs.append(abs(columns[a][i] - columns[b][i]) / denom)
                    expected.append(",".join([c] + [f"{float(v):.17g}" for v in vals + diffs]))
        text = self._run(capsys, *argv)
        assert text == "".join(line + "\n" for line in expected)
        assert len(expected) == len(pts) + 1


class TestReproducibility:
    def test_bit_identical_reruns(self, tmp_path):
        args = ("fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5",
                "--def", "new", "--def", "hyper", "--func", "gauss:0.5,0.2",
                "--points", "0.3,0.5,0.7")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert m1 == m2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "p.csv"
        r = run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma",
                    "0.5", "--func", "const:1", "--points", "0.5",
                    "--out", str(out))
        assert r.returncode == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["command"] == "potential"
        assert manifest["parameters"]["sigma"] == 0.5
        assert "version" in manifest

    _SHARED_KEYS = ["all_interior", "constant_mode", "d", "domain", "func", "gauss_order",
                    "points", "radial_order"]

    @pytest.mark.parametrize("argv,own_keys", [
        (["potential", "--d", "2", "--domain", "0,1,0,1", "--sigma", "0.5",
          "--func", "gauss:0.5,0.5,0.2", "--points", "0.5,0.5"], ["sigma"]),
        (["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "augmented",
          "--func", "quad", "--points", "0.5", "--dirichlet", "0", "--neumann", "1"],
         ["bc_from_func", "definitions", "dirichlet", "neumann", "s"]),
    ], ids=["potential", "fraclap"])
    def test_manifest_keys(self, tmp_path, capsys, argv, own_keys):
        # the set-up the two commands share neither drops a parameter nor adds one
        out = tmp_path / "t.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert sorted(manifest) == ["command", "notes", "parameters", "version"]
        assert sorted(manifest["parameters"]) == sorted(self._SHARED_KEYS + own_keys)

    def test_seventeen_digit_output(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                "--func", "const:1", "--points", "0.5", "--out", str(out))
        value = out.read_text().strip().split("\n")[1].split(",")[1]
        # round-trips through float without loss
        assert f"{float(value):.17g}" == value


class TestValidateCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("validate", "--suite", "discrete", "--out", str(out))
        assert r.returncode == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert all(c["pass"] for c in report["checks"])
        assert "PASS" in r.stdout
