"""Command-line interface: exit codes, file formats, determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypermatch import (
    ExperimentSpec,
    SamplingConfig,
    build_tensor,
    harness,
    prepare_case,
    run_grid,
)
from hypermatch import bcagm as bcagm_module
from hypermatch import cli, selfcheck
from hypermatch import tensor as tensor_module
from hypermatch.bcagm import TENSOR_METHODS, run_method
from hypermatch.cli import main

SQUARE = [[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [-0.8, 0.6]]


def write_problem(path, **overrides):
    doc = {"format_version": 1, "points_p": SQUARE, "points_q": SQUARE}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestMatch:
    def test_identity_problem(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json")
        code = main(["match", problem])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["format_version"] == 1
        assert result["assignment"] == [1, 2, 3, 4]
        assert result["score3"] == pytest.approx(24.0)
        assert result["degenerate"] is False
        assert result["trace"]["terminated"] == "stalled"

    def test_output_file_roundtrip(self, tmp_path):
        problem = write_problem(tmp_path / "p.json")
        out = tmp_path / "result.json"
        assert main(["match", problem, "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["assignment"] == [1, 2, 3, 4]
        # emitted numbers parse back to the same values
        assert isinstance(result["score3"], float)

    @pytest.mark.parametrize("method", [m for m in TENSOR_METHODS if m != "bcagm"])
    def test_other_methods(self, tmp_path, capsys, method):
        problem = write_problem(tmp_path / "p.json")
        assert main(["match", problem, "--method", method]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["assignment"] == [1, 2, 3, 4]
        assert result["method"] == method

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["match", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err
        bad.write_text(json.dumps([{"format_version": 1, "points_p": SQUARE}]))
        assert main(["match", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "hypermatch: problem file: top level must be an object\n"
        )
        bad.write_text("[" * 100_000 + "]" * 100_000)  # deeper than the decoder recurses
        assert main(["match", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: problem file is not valid JSON: ")
        assert err.count("\n") == 1

    def test_missing_field_named_in_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 1, "points_p": SQUARE}))
        assert main(["match", str(bad)]) == 1
        assert "points_q" in capsys.readouterr().err

    def test_bad_version_exits_1(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json", format_version=2)
        assert main(["match", problem]) == 1
        assert "format_version" in capsys.readouterr().err

    def test_template_larger_than_scene_exits_2(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json", points_q=SQUARE[:3])
        assert main(["match", problem]) == 2
        assert "|P|" in capsys.readouterr().err

    def test_too_few_points_exits_2(self, tmp_path):
        problem = write_problem(
            tmp_path / "p.json", points_p=SQUARE[:2], points_q=SQUARE
        )
        assert main(["match", problem]) == 2

    @pytest.mark.parametrize(
        "points_p, points_q",
        [
            (SQUARE, SQUARE[:3]),
            (SQUARE[:2], SQUARE),
            ([[float("nan"), 0.0]] + SQUARE[1:], SQUARE),
            (SQUARE, SQUARE[:3] + [[float("inf"), 0.0]]),
            # an integer beyond the float range reads as inf, like 1e400
            (SQUARE, SQUARE[:3] + [[0, -(10**400)]]),
        ],
    )
    def test_invalid_problem_exits_2_with_one_line(self, tmp_path, capsys, points_p, points_q):
        problem = write_problem(tmp_path / "p.json", points_p=points_p, points_q=points_q)
        assert main(["match", problem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: invalid problem:")
        assert err.count("\n") == 1

    # 10**15 triples per point on 4 points asks for 142 PiB of draws, more than any
    # 64-bit address space holds, so the allocation fails at once.
    @pytest.mark.parametrize(
        "options, flags",
        [({}, ["--triples-per-point", str(10**15)]), ({"triples_per_point": 10**15}, [])],
    )
    def test_unallocatable_build_exits_2_with_one_line(self, tmp_path, capsys, options, flags):
        problem = write_problem(tmp_path / "p.json", options=options)
        assert main(["match", problem, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hypermatch: invalid problem: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "method", [m for m, f in TENSOR_METHODS.items() if f and f["variant"] == "bcagm_psi"]
    )
    def test_dense_limit_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, method):
        # a 3-into-4 problem has n = 12; the two-block methods materialize n x n
        monkeypatch.setattr(tensor_module, "DENSE_MATRIX_LIMIT", 11)
        problem = write_problem(tmp_path / "p.json", points_p=SQUARE[:3])
        assert main(["match", problem, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hypermatch: invalid problem: refusing to materialize")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "solver, method", [("bcagm_solve", "bcagm"), ("bcagm_psi_solve", "bcagm_ipfp")]
    )
    @pytest.mark.parametrize(
        "error",
        [MemoryError("Unable to allocate 200. MiB"), ValueError("no feasible start")],
        ids=["MemoryError", "ValueError"],
    )
    def test_solver_error_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, solver, method, error
    ):
        # any error the problem causes in the solve is an invalid problem, not a traceback
        def failing_solver(*args, **kwargs):
            raise error

        monkeypatch.setattr(bcagm_module, solver, failing_solver)
        problem = write_problem(tmp_path / "p.json")
        assert main(["match", problem, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"hypermatch: invalid problem: {error}\n"
        assert captured.out == ""

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["match", str(tmp_path / "absent.json")]) == 1

    def test_boolean_format_version_exits_1(self, tmp_path, capsys):
        # A field of the wrong type is refused by the field's one check.
        for field, value in [
            ("format_version", True),
            ("format_version", "1"),
            ("format_version", 1.0),
            ("points_p", {}),
        ]:
            problem = write_problem(tmp_path / "p.json", **{field: value})
            assert main(["match", problem]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"hypermatch: problem file: field '{field}' must be")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "options",
        [
            {"method": ["bcagm"]},
            {"method": {"name": "bcagm"}},
        ],
    )
    def test_non_string_method_or_alpha_mode_exits_1(self, tmp_path, capsys, options):
        problem = write_problem(tmp_path / "p.json", options=options)
        assert main(["match", problem]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: unknown")
        assert err.count("\n") == 1

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json")
        out = tmp_path / "missing" / "r.json"
        assert main(["match", problem, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: cannot write output file:")
        assert err.count("\n") == 1

    def test_boolean_coordinates_exit_1(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json", points_p=[[True, False]] + SQUARE[1:])
        assert main(["match", problem]) == 1
        assert "entry 0 must be a pair of numbers" in capsys.readouterr().err

    def test_integer_beyond_python_limit_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format_version": 1, "points_p": [[0, 0], [1, 0], [0, 1]], '
            '"points_q": [[0, 0], [1, 0], [0, ' + "1" * 5000 + "]]}"
        )
        assert main(["match", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: problem file is not valid JSON:")
        assert err.count("\n") == 1

    def test_huge_coordinates_match_like_unit_ones(self, tmp_path, capsys):
        huge = [[1e200 * x, 1e200 * y] for x, y in SQUARE]
        problem = write_problem(tmp_path / "p.json", points_p=huge, points_q=huge)
        assert main(["match", problem]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["assignment"] == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "options",
        [
            {"knn": "many"},
            {"knn": 1e400},
            {"gamma": -1.0},
            {"seed": True},
            {"knn": 2.7},
            {"triples_per_point": 3.0},
            {"gamma": True},
            {"gamma": "1"},
            {"gamma": 10**400},
            {"seed": -1},
        ],
    )
    def test_invalid_option_value_exits_1(self, tmp_path, capsys, options):
        problem = write_problem(tmp_path / "p.json", options=options)
        assert main(["match", problem]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: invalid option value:")
        assert err.count("\n") == 1

    # A flag and the file option it overrides are judged by one rule, the
    # config type's, so a refused value prints the same single line.
    @pytest.mark.parametrize(
        "key, text",
        [
            *itertools.product(("knn", "triples_per_point", "seed"), ("2.5", "-1", "1e400")),
            ("method", "nosuch"),
        ],
    )
    def test_flag_and_file_option_are_refused_alike(self, tmp_path, capsys, key, text):
        problem = tmp_path / "p.json"
        write_problem(problem)
        assert main(["match", str(problem), "--" + key.replace("_", "-"), text]) == 1
        from_flag = capsys.readouterr()
        # the flag's text as the option's JSON literal, so 1e400 is a literal too
        literal = json.dumps(text) if key == "method" else text
        write_problem(problem, options={key: None})
        problem.write_text(problem.read_text().replace("null", literal))
        assert main(["match", str(problem)]) == 1
        from_file = capsys.readouterr()
        assert from_flag.err == from_file.err
        assert from_flag.err.startswith("hypermatch: ")
        assert from_flag.err.count("\n") == 1
        assert from_flag.out == from_file.out == ""

    def test_sigma_s_option_is_ignored(self, tmp_path):
        plain = write_problem(tmp_path / "plain.json")
        tuned = write_problem(tmp_path / "tuned.json", options={"sigma_s": -1})
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["match", plain, "--output", str(out1)]) == 0
        assert main(["match", tuned, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_null_gamma_means_the_default(self, tmp_path):
        plain = write_problem(tmp_path / "plain.json")
        unset = write_problem(tmp_path / "unset.json", options={"gamma": None})
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["match", plain, "--output", str(out1)]) == 0
        assert main(["match", unset, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @staticmethod
    def assert_warns_a_guess(problem, capsys, n1):
        assert main(["match", problem]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "hypermatch: warning: the affinity tensor has no positive entry; "
            "the assignment is a guess\n"
        )
        result = json.loads(captured.out)
        assert result["degenerate"] is True
        assert result["score3"] == 0.0
        assert sorted(result["assignment"]) == list(range(1, n1 + 1))

    def test_empty_tensor_warns_but_succeeds(self, tmp_path, capsys):
        # every triangle is collinear, so no orbit is kept
        line = [[float(i), 2.0 * i] for i in range(4)]
        problem = write_problem(tmp_path / "p.json", points_p=line, points_q=line)
        self.assert_warns_a_guess(problem, capsys, 4)

    def test_all_zero_tensor_warns_but_succeeds(self, tmp_path, capsys):
        # orbits are kept, but a huge gamma rounds every affinity to 0.0
        rng = np.random.default_rng(0)
        P, Q = rng.standard_normal((5, 2)).tolist(), rng.standard_normal((8, 2)).tolist()
        t = build_tensor(P, Q, SamplingConfig(gamma=1e308))
        assert t.nnz > 0 and not t.val.any()
        problem = write_problem(
            tmp_path / "p.json", points_p=P, points_q=Q, options={"gamma": 1e308}
        )
        self.assert_warns_a_guess(problem, capsys, 5)

    def test_deterministic_result_bytes(self, tmp_path):
        problem = write_problem(tmp_path / "p.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["match", problem, "--output", str(out1)]) == 0
        assert main(["match", problem, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSynth:
    def test_row_count(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "synth", "--n-in", "6", "--n-out", "0", "--sigma", "0", "--scale", "1",
            "--trials", "2", "--methods", "bcagm", "--deterministic", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + trials x methods x grid points
        assert lines[0].startswith("method,trial,n_in,n_out")

    def test_range_expansion(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "synth", "--n-in", "6", "--n-out", "0:20:10", "--trials", "1",
            "--methods", "hopm", "--deterministic", "--output", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(r.split(",")[3]) for r in rows] == [0, 10, 20]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "synth", "--n-in", "6", "--n-out", "0:4:2", "--trials", "2",
            "--methods", "bcagm,hopm", "--deterministic",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_deterministic_threads_run_the_pool_with_the_same_bytes(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "synth", "--n-in", "6", "--n-out", "0:4:2", "--trials", "2",
            "--methods", "bcagm,hopm,ipfp2", "--deterministic",
        ]
        assert main(args + ["--threads", "1", "--output", str(out1)]) == 0
        assert main(args + ["--threads", "2", "--output", str(out2)]) == 0
        assert pools == [1, min(2, os.cpu_count() or 1)]
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_flags_exit_1(self):
        assert main(["synth", "--n-in", "not-a-number"]) == 1
        assert main(["synth"]) == 1  # --n-in is required
        assert main(["synth", "--n-in", "6", "--n-out", "5:1:1"]) == 1
        assert main(["synth", "--n-in", "6", "--methods", "bcagm,unknown"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "nan"],
            ["--sigma", "inf"],
            ["--scale", "inf"],
            ["--methods", ","],
            ["--n-out", "1:2"],
            ["--n-out", "a:b:c"],
            ["--n-out", "x"],
            ["--n-out", "-1"],
            ["--n-out", "5:1:1"],
            ["--n-out", "0:4:0"],
            ["--trials", "2.5"],
            ["--n-in", "3.5"],
            ["--threads", "1e400"],
        ],
    )
    def test_bad_grid_exits_1_with_one_line(self, capsys, flags):
        assert main(["synth", "--n-in", "4", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning included
    def test_overflowing_instance_exits_2_with_one_line(self, capsys):
        flags = ["--n-in", "4", "--n-out", "4", "--scale", "1e308", "--seed", "3"]
        assert main(["synth", *flags, "--methods", "hopm"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "hypermatch: invalid problem: Q has non-finite coordinates\n"
        assert captured.out == ""

    def test_unallocatable_build_exits_2_with_one_line(self, capsys):
        assert main(["synth", "--n-in", "4", "--triples-per-point", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hypermatch: invalid problem: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_dense_limit_exits_2_with_one_line(self, capsys, monkeypatch):
        # 4 into 4 points is n = 16; the second-order methods materialize n x n
        monkeypatch.setattr(tensor_module, "DENSE_MATRIX_LIMIT", 15)
        assert main(["synth", "--n-in", "4", "--methods", "ipfp2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "hypermatch: invalid problem: refusing to materialize a 16x16 matrix (limit 15)\n"
        )
        assert captured.out == ""

    def test_huge_n_out_range_exits_1_with_one_line(self, capsys):
        # 10**15 + 1 outlier counts: the tuple's allocation fails at once
        assert main(["synth", "--n-in", "4", "--n-out", "0:1000000000000000:1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("hypermatch: bad --n-out range")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["synth", "--n-in", "4", "--methods", "hopm", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: cannot write output file:")
        assert err.count("\n") == 1


class TestSharedParser:
    def test_calls_leave_no_state_behind(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["match", problem, "--output", str(out1)]) == 0
        assert main([
            "synth", "--n-in", "4", "--methods", "hopm", "--seed", "3", "--knn", "20",
            "--triples-per-point", "5", "--deterministic",
            "--output", str(tmp_path / "g.csv"),
        ]) == 0
        assert main(["match", problem, "--method", "hopm", "--knn", "x"]) == 1
        assert main(["match", "--help"]) == 0
        assert main(["match", problem, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_match_has_no_deterministic_flag(self, tmp_path, capsys):
        assert main(["match", "--help"]) == 0
        assert "--deterministic" not in capsys.readouterr().out
        assert main(["synth", "--help"]) == 0
        assert "--deterministic" in capsys.readouterr().out
        assert main(["match", write_problem(tmp_path / "p.json"), "--deterministic"]) == 1
        # argparse's usage line, then the one error line
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: hypermatch")
        assert error == "hypermatch: error: unrecognized arguments: --deterministic"

    def test_synth_has_no_sigma_s_flag(self, capsys):
        # The second-order matrix's scale is the constant affinity.SIGMA_S.
        assert main(["synth", "--n-in", "4", "--sigma-s", "0.5"]) == 1
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: hypermatch")
        assert error == "hypermatch: error: unrecognized arguments: --sigma-s 0.5"

    def test_neither_command_has_an_alpha_mode_flag(self, tmp_path, capsys):
        # One convexification schedule, so nothing to choose.
        problem = write_problem(tmp_path / "p.json")
        for argv in (["match", problem], ["synth", "--n-in", "4"]):
            assert main([*argv, "--alpha-mode", "bound"]) == 1
            usage, error = capsys.readouterr().err.splitlines()
            assert usage.startswith("usage: hypermatch")
            assert error == "hypermatch: error: unrecognized arguments: --alpha-mode bound"

    def test_a_file_alpha_mode_is_ignored(self, tmp_path):
        plain, keyed = tmp_path / "plain.json", tmp_path / "keyed.json"
        assert main(["match", write_problem(tmp_path / "p.json"), "--output", str(plain)]) == 0
        problem = write_problem(tmp_path / "k.json", options={"alpha_mode": "bound"})
        assert main(["match", problem, "--output", str(keyed)]) == 0
        assert keyed.read_bytes() == plain.read_bytes()


class TestUnsetFlagsStayUnset:
    # A flag the user leaves out reaches no config type, so each default has
    # one owner: the type's own field.
    def test_synth_hands_the_spec_only_the_flags_given(self, tmp_path, monkeypatch):
        specs = []

        def recording_spec(**kwargs):
            specs.append(kwargs)
            return ExperimentSpec(**kwargs)

        monkeypatch.setattr(cli, "ExperimentSpec", recording_spec)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--n-in", "4", "--deterministic", "--output", str(out1)]) == 0
        defaults = ["--n-out", "0", "--sigma", "0", "--scale", "1", "--trials", "1",
                    "--seed", "0", "--threads", "1"]
        assert main(["synth", "--n-in", "4", "--deterministic", *defaults,
                     "--output", str(out2)]) == 0
        unset, spelled_out = specs
        assert not unset.keys() & {"n_out", "sigma", "scale", "trials", "seed_base", "threads"}
        assert spelled_out["seed_base"] == 0 and spelled_out["n_out"] == (0,)
        assert out1.read_bytes() == out2.read_bytes()

    def test_an_unknown_file_method_exits_1_before_the_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_tensor", None)  # a call would raise TypeError
        problem = write_problem(tmp_path / "p.json", options={"method": "rrwhm"})
        assert main(["match", problem]) == 1
        expected = f"unknown method 'rrwhm', expected one of {tuple(TENSOR_METHODS)}"
        assert capsys.readouterr().err == f"hypermatch: {expected}\n"


class TestMethodRegistry:
    @pytest.mark.parametrize("method", list(TENSOR_METHODS))
    def test_cli_and_harness_run_the_library_method(self, tmp_path, capsys, method):
        spec = ExperimentSpec(n_in=5, n_out=(3,), sigma=0.03, seed_base=7, methods=(method,))
        case = prepare_case(spec, 3, 0)
        ref = run_method(method, case.tensor)

        (record,) = run_grid(spec)
        assignment, _ = harness._run_method(method, case, None)
        assert assignment.cols == ref.assignment.cols
        assert (record.score3, record.iterations) == (ref.score3, ref.outer_iterations)

        problem = write_problem(
            tmp_path / "p.json",
            points_p=case.P.tolist(),
            points_q=case.Q.tolist(),
            options={"seed": (harness.trial_seed(spec.seed_base, 3, 0) + 1) & (2**63 - 1)},
        )
        assert main(["match", problem, "--method", method]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["assignment"] == ref.assignment.to_one_based()
        assert result["score3"] == ref.score3


class TestSolverAnomaly:
    def test_trace_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        import hypermatch.bcagm as bcagm_mod
        from hypermatch import TraceViolation

        def broken_solver(*args, **kwargs):
            raise TraceViolation("ascent audit failed")

        monkeypatch.setattr(bcagm_mod, "bcagm_solve", broken_solver)
        problem = write_problem(tmp_path / "p.json")
        assert main(["match", problem]) == 3
        assert "anomaly" in capsys.readouterr().err


# (group, what is broken, a part of the FAIL detail it must report)
_GROUP_BREAKAGES = [
    (selfcheck._check_identities, "noisy form", "permutation invariance"),
    (selfcheck._check_identities, "shifted score", "lifting identity"),
    (selfcheck._check_identities, "alpha-shifted score", "constant shift on matchings"),
    (selfcheck._check_block_bounds, "zero alpha", "two-block form"),
    (selfcheck._check_block_bounds, "inflated four-block form", "four-block form"),
    (selfcheck._check_equivalence, "zero alpha", " vs "),
    (selfcheck._check_lap, "minimising LAP", " != "),
    (selfcheck._check_monotonic, "failing audit", "audit patched to fail"),
    (selfcheck._check_monotonic, "one outer iteration", "terminated=max_outer_iters"),
]
_GROUP_BREAKAGE_IDS = [f"{group.__name__}-{breakage}" for group, breakage, _ in _GROUP_BREAKAGES]


class TestSelfcheck:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert len(names) == len(set(names)) == 5
        assert all("PASS" in line for line in out.strip().splitlines())

    def test_forced_failure_exits_4(self, capsys, monkeypatch):
        def failing():
            return selfcheck.CheckResult("injected", False, "always fails")

        monkeypatch.setattr(selfcheck, "GROUPS", (*selfcheck.GROUPS, failing))
        assert main(["selfcheck"]) == 4
        assert "injected: FAIL (always fails)" in capsys.readouterr().out

    @pytest.mark.parametrize("group, breakage, detail", _GROUP_BREAKAGES, ids=_GROUP_BREAKAGE_IDS)
    def test_each_group_can_fail(self, monkeypatch, group, breakage, detail):
        # a check that has never been seen to fail proves nothing
        op = tensor_module.LiftedOperator
        form, score, lap = op.form, op.score, selfcheck.solve_lap_max
        noise = itertools.count(1.0)  # a new offset on every call

        def failing_verify(trace):
            raise bcagm_module.TraceViolation("audit patched to fail")

        patches = {
            "noisy form": (op, "form", lambda self, *v: form(self, *v) + next(noise)),
            "shifted score": (op, "score", lambda self, x: score(self, x) + 1.0),
            "alpha-shifted score": (op, "score", lambda self, x: score(self, x) + self.alpha),
            "zero alpha": (selfcheck, "f4_norm_exact", lambda tensor: 0.0),
            "inflated four-block form": (
                op,
                "form",
                lambda self, *v: form(self, *v) + 1e6 * (len(set(map(id, v))) == 4),
            ),
            "minimising LAP": (selfcheck, "solve_lap_max", lambda profit: lap(-profit)),
            "failing audit": (bcagm_module.SolverTrace, "verify", failing_verify),
            "one outer iteration": (bcagm_module, "MAX_OUTER_ITERS", 1),
        }
        monkeypatch.setattr(*patches[breakage])
        result = group()
        assert result.passed is False
        assert detail in result.detail

    def test_force_fail_flag_is_gone(self):
        assert main(["selfcheck", "--force-fail"]) == 1

    def test_module_entry_point_prints_the_five_groups(self):
        # `python -m hypermatch`, warnings as errors, in a fresh interpreter.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hypermatch", "selfcheck"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "multilinear-identities: PASS (form symmetry, lifting, constant shift)",
            "block-bound-inequalities: PASS (block bounds at exact alpha)",
            "tiny-scale-equivalence: PASS (diagonal equals free maximum)",
            "lap-bruteforce: PASS (matches exhaustive optimum)",
            "solver-monotonicity: PASS (strict ascent, finite termination)",
        ]


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["paint"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv", [["synth", "--n-in", "not-a-number"], ["match", "p.json", "--knn", "x"]]
    )
    def test_text_that_is_no_number_is_a_parse_error(self, capsys, argv):
        *_, flag, text = argv
        assert main(argv) == 1
        usage, *_, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: hypermatch")
        assert error.endswith(f"error: argument {flag}: invalid number value: '{text}'")
