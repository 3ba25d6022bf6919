"""CLI command coverage (argument handling plus end-to-end output)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.seed == 754
        assert args.developers == 199
        assert args.students == 52

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("command, flag, dest, values", [
        (["shadow", "a + b"], "--bind", "bind", ["a=1", "b=2"]),
        (["lint", "a + b"], "--bind-range", "bind_range", ["a=0,1"]),
        (["engine", "run", "demo"], "--param", "param", ['{"n": 1}']),
    ])
    def test_append_options_do_not_leak_across_calls(
        self, monkeypatch, command, flag, dest, values,
    ):
        import repro.cli

        seen = []
        monkeypatch.setitem(
            repro.cli._COMMANDS, command[0],
            lambda args: seen.append(list(getattr(args, dest))) or 0,
        )
        appended = [part for value in values for part in (flag, value)]
        assert main(command + appended) == 0
        assert main(command) == 0
        assert main(command + appended[:2]) == 0
        assert seen == [values, [], values[:1]]


class TestDemoCommand:
    def test_single_question(self, capsys):
        assert main(["demo", "identity"]) == 0
        out = capsys.readouterr().out
        assert "demonstration for identity" in out
        assert "[ok]" in out

    def test_unknown_question(self, capsys):
        assert main(["demo", "bogus"]) == 2
        assert "unknown question" in capsys.readouterr().err


class TestSpyCommand:
    def test_list(self, capsys):
        assert main(["spy", "list"]) == 0
        out = capsys.readouterr().out
        assert "lorenz" in out and "naive-variance" in out

    def test_single_workload(self, capsys):
        assert main(["spy", "naive-variance"]) == 0
        out = capsys.readouterr().out
        assert "DO NOT TRUST" in out


class TestOptsimCommand:
    def test_divergence_reported(self, capsys):
        assert main(["optsim", "a*b + c", "--level=-O3"]) == 0
        out = capsys.readouterr().out
        assert "fma(a, b, c)" in out
        # The shared landmark corpus means the first witness may diverge
        # in value or only in sticky flags; either way a witness binding
        # and the strict-vs-optimized contrast must be reported.
        assert "no divergence" not in out
        assert "at a=" in out
        assert "strict" in out and "optimized" in out

    def test_compliant_level(self, capsys):
        assert main(["optsim", "a + b", "--level=-O2"]) == 0
        assert "no divergence" in capsys.readouterr().out


class TestShadowCommand:
    def test_shadow_with_bindings(self, capsys):
        code = main([
            "shadow", "(a + b) - a",
            "--bind", "a=9007199254740992", "--bind", "b=1",
        ])
        assert code == 0
        assert "SUSPICIOUS" in capsys.readouterr().out

    def test_localize_flag(self, capsys):
        main([
            "shadow", "(a*a - b*b) / (a - b)",
            "--bind", "a=1.000000001", "--bind", "b=1", "--localize",
        ])
        assert "ulps" in capsys.readouterr().out

    def test_bad_binding(self, capsys):
        assert main(["shadow", "a", "--bind", "nonsense"]) == 2
        assert "bad --bind" in capsys.readouterr().err


class TestStudyCommand:
    def test_single_figure(self, capsys):
        code = main([
            "study", "--figure", "Figure 12",
            "--developers", "40", "--students", "10", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out and "Chance" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code = main([
            "study", "--figure", "Figure 12", "--developers", "20",
            "--students", "5", "--export", str(target),
        ])
        assert code == 0
        assert target.exists()
        assert "wrote 25 records" in capsys.readouterr().out


class TestQuizCommand:
    def test_quiz_runs_scripted(self, monkeypatch, capsys):
        answers = iter(["d"] * 19 + ["3"] * 5)
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": next(answers)
        )
        assert main(["quiz", "--no-demos"]) == 0
        out = capsys.readouterr().out
        assert "core quiz" in out


class TestMcaCommand:
    def test_stable_expression(self, capsys):
        assert main(["mca", "a + b", "--bind", "a=1", "--bind", "b=2"]) == 0
        assert "significant digits" in capsys.readouterr().out

    def test_bad_binding(self, capsys):
        assert main(["mca", "a", "--bind", "junk"]) == 2


class TestDrillCommand:
    def test_list_concepts(self, capsys):
        assert main(["drill", "--list"]) == 0
        out = capsys.readouterr().out
        assert "absorption" in out and "flag-compliance" in out

    def test_scripted_drill(self, monkeypatch, capsys):
        answers = iter(["x", "t", "f", "t", "f", "t"])
        monkeypatch.setattr("builtins.input",
                            lambda prompt="": next(answers))
        assert main(["drill", "--rounds", "5", "--seed", "3",
                     "--concept", "overflow"]) == 0
        out = capsys.readouterr().out
        assert "error-rate" in out
        assert "please answer" in out  # the invalid 'x' reprompted


class TestInstrumentCommand:
    def test_markdown(self, capsys):
        assert main(["instrument"]) == 0
        out = capsys.readouterr().out
        assert "Part 4: Suspicion" in out

    def test_plain(self, capsys):
        assert main(["instrument", "--plain"]) == 0
        assert "```" not in capsys.readouterr().out


class TestSpyTraceFlag:
    def test_trace_output(self, capsys):
        assert main(["spy", "naive-variance", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "first occurrences" in out
        assert "sqrt: invalid" in out
