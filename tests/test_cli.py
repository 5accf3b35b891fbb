"""Command-line interface: exit codes, file formats, determinism."""

import json

import pytest

from hypermatch import ExperimentSpec, harness, prepare_case, run_grid
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
        assert result["trace"]["terminated"] == "stalled"

    def test_output_file_roundtrip(self, tmp_path):
        problem = write_problem(tmp_path / "p.json")
        out = tmp_path / "result.json"
        assert main(["match", problem, "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["assignment"] == [1, 2, 3, 4]
        # emitted numbers parse back to the same values
        assert isinstance(result["score3"], float)

    @pytest.mark.parametrize("method", ["bcagm_mp", "bcagm_ipfp", "hopm"])
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

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["match", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes
    def test_overflowing_coordinates_exit_2(self, tmp_path, capsys):
        huge = [[1e200 * x, 1e200 * y] for x, y in SQUARE]
        problem = write_problem(tmp_path / "p.json", points_p=huge, points_q=huge)
        assert main(["match", problem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypermatch: invalid problem:")
        assert err.count("\n") == 1

    def test_deterministic_result_bytes(self, tmp_path):
        problem = write_problem(tmp_path / "p.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["match", problem, "--deterministic", "--output", str(out1)]) == 0
        assert main(["match", problem, "--deterministic", "--output", str(out2)]) == 0
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

    def test_bad_flags_exit_1(self):
        assert main(["synth", "--n-in", "not-a-number"]) == 1
        assert main(["synth"]) == 1  # --n-in is required
        assert main(["synth", "--n-in", "6", "--n-out", "5:1:1"]) == 1
        assert main(["synth", "--n-in", "6", "--methods", "bcagm,unknown"]) == 1

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_THREADS", "2")
        out = tmp_path / "r.csv"
        code = main([
            "synth", "--n-in", "6", "--n-out", "0", "--trials", "2",
            "--methods", "hopm", "--output", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_bad_env_threads_exit_1(self, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_THREADS", "many")
        assert main(["synth", "--n-in", "6", "--methods", "hopm"]) == 1

    def test_threads_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_THREADS", "many")  # ignored when flagged
        out = tmp_path / "r.csv"
        code = main([
            "synth", "--n-in", "6", "--n-out", "0", "--trials", "1",
            "--methods", "hopm", "--threads", "1", "--output", str(out),
        ])
        assert code == 0


class TestMethodRegistry:
    @pytest.mark.parametrize("method", list(TENSOR_METHODS))
    def test_cli_and_harness_run_the_library_method(self, tmp_path, capsys, method):
        spec = ExperimentSpec(n_in=5, n_out=(3,), sigma=0.03, seed_base=7, methods=(method,))
        case = prepare_case(spec, 3, 0)
        ref = run_method(method, case.tensor)

        (record,) = run_grid(spec)
        assignment, _ = harness._run_method(method, case, None, spec)
        assert assignment.cols == ref.assignment.cols
        assert (record.score3, record.iterations) == (ref.score3, ref.outer_iterations)

        problem = write_problem(
            tmp_path / "p.json",
            points_p=case.P.tolist(),
            points_q=case.Q.tolist(),
            options={"seed": (case.seed + 1) & (2**63 - 1)},
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


class TestSelfcheck:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert len(names) == len(set(names)) == 5
        assert all("PASS" in line for line in out.strip().splitlines())

    def test_forced_failure_exits_4(self, capsys):
        assert main(["selfcheck", "--force-fail"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["paint"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
