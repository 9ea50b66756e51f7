"""CLI tests: the ``sharc`` tool end to end."""

import pytest

from repro.cli import main


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text("""
int counter = 0;
void *bump(void *arg) {
  int i;
  for (i = 0; i < 10; i++)
    counter = counter + 1;
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
""")
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("""
mutex lk;
int locked(lk) counter = 0;
void *bump(void *arg) {
  mutexLock(&lk); counter = counter + 1; mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
""")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text("""
int readonly limit = 1;
int main() { limit = 2; return 0; }
""")
    return str(path)


class TestCheck:
    def test_check_clean_exits_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        out = capsys.readouterr().out
        assert "lock checks" in out

    def test_check_broken_exits_one(self, broken_file, capsys):
        assert main(["check", broken_file]) == 1
        assert "readonly" in capsys.readouterr().out


class TestInfer:
    def test_infer_prints_qualifiers(self, racy_file, capsys):
        assert main(["infer", racy_file]) == 0
        out = capsys.readouterr().out
        assert "int dynamic counter" in out
        assert "void dynamic *private bump" in out


class TestRun:
    def test_run_clean_program(self, clean_file, capsys):
        assert main(["run", clean_file, "--seed", "1"]) == 0

    def test_run_racy_program_reports(self, racy_file, capsys):
        code = 0
        for seed in range(6):
            code |= main(["run", racy_file, "--seed", str(seed)])
        assert code == 1
        assert "conflict(0x" in capsys.readouterr().out

    def test_run_stats_flag(self, clean_file, capsys):
        main(["run", clean_file, "--stats"])
        assert "steps=" in capsys.readouterr().out

    def test_rc_scheme_flag(self, clean_file):
        assert main(["run", clean_file, "--rc", "naive"]) == 0


class TestUnreadableInput:
    """A missing or unreadable input file ends in a one-line diagnostic
    and exit code 2, never a traceback and never exit 1 ("reports
    found")."""

    @pytest.mark.parametrize("command", [["run"], ["run", "--profile"],
                                         ["check"], ["analyze"], ["infer"],
                                         ["explore"], ["trace"]])
    def test_missing_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.c")
        assert main(command + [missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{command[0]}: cannot read {missing}: "
                                "No such file or directory\n")

    @pytest.mark.parametrize("command", ["run", "check", "analyze"])
    def test_directory_and_non_utf8_file(self, command, tmp_path, capsys):
        binary = tmp_path / "binary.c"
        binary.write_bytes(b"\xff\xfe\x00int main() { return 0; }")
        for path in (str(tmp_path), str(binary)):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: cannot read {path}: ")
            assert err.count("\n") == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["run", "x.c"], ["explore", "x.c"], ["bench", "--out", "-"]])
    def test_absint_is_not_a_run_option(self, argv, capsys):
        """The interval analysis changes no run, so no command takes a
        switch for it."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-absint"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-absint" \
            in capsys.readouterr().err

    def test_canary_has_no_absint_switch(self, capsys):
        from repro.bench import canary

        with pytest.raises(SystemExit) as exc:
            canary.main(["--no-absint"])
        assert exc.value.code == 2


class TestEvaluationCommands:
    def test_table1_json(self, capsys):
        import json
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 6
        assert payload["summary"]["paper_total_annotations"] == 60

    def test_compare_eraser_command(self, capsys):
        assert main(["compare-eraser"]) == 0
        out = capsys.readouterr().out
        assert "FALSE" in out

    def test_run_with_eraser_checker(self, racy_file):
        code = 0
        for seed in range(4):
            code |= main(["run", racy_file, "--checker", "eraser",
                          "--seed", str(seed)])
        assert code == 1  # the lockset baseline also catches real races


class TestExplore:
    def test_explore_gen_finds_injected_race(self, capsys):
        assert main(["explore", "--gen", "42", "--seeds", "15",
                     "--policy", "random"]) == 0
        out = capsys.readouterr().out
        assert "injected race" in out and "FOUND" in out
        assert "replay with seed=" in out

    def test_explore_serial_misses_and_exits_one(self, capsys):
        assert main(["explore", "--gen", "42", "--seeds", "3",
                     "--policy", "serial"]) == 1
        assert "NOT found" in capsys.readouterr().out

    def test_explore_shrink_writes_replayable_artifact(
            self, tmp_path, capsys):
        artifact = str(tmp_path / "schedule.json")
        assert main(["explore", "--gen", "42", "--seeds", "15",
                     "--policy", "random", "--shrink",
                     "--out", artifact]) == 0
        out = capsys.readouterr().out
        assert "shrunk schedule" in out
        assert main(["explore", "--replay", artifact]) == 0
        assert "reproduced the saved report" in capsys.readouterr().out

    def test_explore_file_clean_program(self, clean_file, capsys):
        assert main(["explore", clean_file, "--seeds", "4",
                     "--policy", "random"]) == 0
        assert "no failing schedule" in capsys.readouterr().out

    def test_explore_differential_checker(self, capsys):
        assert main(["explore", "--gen", "11",
                     "--gen-kind", "lock-elision", "--seeds", "6",
                     "--policy", "random", "--checker", "both"]) == 0
        assert "differential sweep" in capsys.readouterr().out

    def test_explore_json_output(self, racy_file, capsys):
        import json as _json

        assert main(["explore", racy_file, "--seeds", "4",
                     "--policy", "random", "--json"]) in (0, 1)
        payload = _json.loads(capsys.readouterr().out)
        assert payload["schedules"] == 4

    def test_explore_requires_input(self, capsys):
        assert main(["explore"]) == 2
