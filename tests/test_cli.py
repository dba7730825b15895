"""The command-line surface: subcommands, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import league_ties
from league_ties import brute, cli
from league_ties.cli import main
from league_ties.engine import ENGINE_VERSION, KNOWN_TOTALS, count_tied

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--teams", "3")
        assert code == 0
        assert "n=3 total=27" in out

    def test_json_output_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--teams", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == "1083"
        assert payload["method"] == "optimized"
        assert payload["n"] == 4
        assert isinstance(payload["elapsed_ms"], int)
        assert payload["breakdown"]["EULERIAN_SPECIAL"]["contribution"] == "152"

    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--teams", "4", "--method", "both")
        assert code == 0
        assert "brute total=1083" in out
        assert "totals agree" in out

    def test_brute_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--teams", "3", "--method", "brute", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["total"] == "27"

    def test_nine_teams_refused(self, capsys):
        code, _, err = run_cli(capsys, "count", "--teams", "9")
        assert code == 3
        assert "n=9" in err

    def test_nine_teams_refused_before_any_sweep(self, capsys, monkeypatch):
        # With both methods the sweep's size refusal fires before either
        # count starts.
        def no_run(*args, **kwargs):
            raise AssertionError("a count started")

        monkeypatch.setattr(brute, "count_tied_block", no_run)
        monkeypatch.setattr(cli, "count_tied", no_run)
        code, _, err = run_cli(capsys, "count", "--method", "both", "--teams", "9")
        assert code == 3
        assert "n=9" in err

    def test_eight_teams_run_without_long_flag(self, capsys, monkeypatch):
        # n=8 is a run of seconds now, so the CLI hands it straight to the
        # counter; a stub stands in for the run itself.
        seen = []

        def fake_count_tied(n, **kwargs):
            seen.append(n)
            return count_tied(3)

        monkeypatch.setattr(cli, "count_tied", fake_count_tied)
        code, out, err = run_cli(capsys, "count", "--teams", "8")
        assert code == 0
        assert seen == [8]
        assert err == ""

    def test_brute_ceiling_refused(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a count started")

        monkeypatch.setattr(brute, "count_tied_block", no_run)
        monkeypatch.setattr(cli, "count_tied", no_run)
        for method in ("brute", "both"):
            code, _, err = run_cli(capsys, "count", "--teams", "6", "--method", method)
            assert code == 3
            assert "ceiling is n=5" in err

    def test_checkpoint_unreadable(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "count", "--teams", "5", "--checkpoint", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read checkpoint {tmp_path}: ")
        assert err.count("\n") == 1

    def test_brute_with_checkpoint_refused_before_any_sweep(self, capsys, monkeypatch, tmp_path):
        # The sweep keeps no ledger, so the option would be silently lost.
        def no_run(*args, **kwargs):
            raise AssertionError("a count started")

        monkeypatch.setattr(brute, "count_tied_block", no_run)
        path = tmp_path / "x.ledger"
        code, out, err = run_cli(
            capsys, "count", "--teams", "3", "--method", "brute", "--checkpoint", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == "--method brute keeps no ledger; drop --checkpoint\n"
        assert not path.exists()

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LEAGUE_TIES_WORKERS", "2")
        code, out, _ = run_cli(capsys, "count", "--teams", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["workers"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--teams", "4", "--strict-search"],
            ["count", "--teams", "4", "--long"],
            ["bench"],
            ["count", "--teams", "4", "--allow-large-brute"],
        ],
        ids=["count-strict-search", "count-long", "bench", "count-allow-large-brute"],
    )
    def test_removed_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_invalid_workers(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "--teams", "3", "--workers", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("env", ["0", "abc"])
    def test_invalid_workers_env(self, capsys, monkeypatch, env):
        # The variable is checked like --workers: a usage error, exit 2.
        monkeypatch.setenv("LEAGUE_TIES_WORKERS", env)
        with pytest.raises(SystemExit) as info:
            main(["count", "--teams", "3"])
        assert info.value.code == 2
        assert "LEAGUE_TIES_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["count", "--teams", "3", "--workers", "0"], None),
            (["count", "--teams", "3"], "abc"),
            (["verify", "--workers", "0"], None),
            (["resume", "--checkpoint", "x.ledger"], "0"),
        ],
        ids=["count-flag", "count-env", "verify-flag", "resume-env"],
    )
    def test_invalid_workers_usage_names_the_subcommand(
        self, capsys, monkeypatch, argv, env
    ):
        # The usage line above the message is the subcommand's, with its
        # options, not the top-level list of subcommands.
        if env is not None:
            monkeypatch.setenv("LEAGUE_TIES_WORKERS", env)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: league-ties {argv[0]} ")
        assert "[--workers WORKERS]" in err


class TestVerify:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-teams", "4")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("n=")]
        assert len(lines) == 3
        assert all("OK" in line for line in lines)

    def test_beyond_brute_ceiling(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-teams", "6")
        assert code == 2
        assert "capped" in err

    def test_five_teams_requires_long(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-teams", "5")
        assert code == 2
        assert "--long" in err

    @pytest.mark.parametrize("max_teams", ["1", "-3"])
    def test_below_two_teams_refused(self, capsys, max_teams):
        # Nothing to compare is not a pass.
        code, out, err = run_cli(capsys, "verify", "--max-teams", max_teams)
        assert code == 2
        assert out == ""
        assert err == f"verify needs --max-teams >= 2, got {max_teams}\n"


class TestProfiles:
    def test_ignores_workers_env(self, capsys, monkeypatch):
        # profiles takes no --workers, so the variable is never read.
        monkeypatch.setenv("LEAGUE_TIES_WORKERS", "abc")
        code, out, _ = run_cli(capsys, "profiles", "--teams", "2")
        assert code == 0
        assert "6 profiles" in out

    def test_three_team_listing(self, capsys):
        code, out, _ = run_cli(capsys, "profiles", "--teams", "3")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("(")]
        assert len(rows) == 21
        assert "21 profiles" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "profiles", "--teams", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 126
        for row in rows:
            if row["class"] == "SEARCH":
                assert 9 <= row["taken"] <= 11


class TestEulerian:
    def test_table_with_verification(self, capsys):
        code, out, _ = run_cli(capsys, "eulerian", "--max", "5")
        assert code == 0
        assert "n=4: 152 brute=152 OK" in out

    def test_full_table(self, capsys):
        code, out, _ = run_cli(capsys, "eulerian")
        assert code == 0
        assert "n=9:" in out

    @pytest.mark.parametrize("max_n", ["1", "-3"])
    def test_below_two_teams_refused(self, capsys, max_n):
        code, out, err = run_cli(capsys, "eulerian", "--max", max_n)
        assert code == 2
        assert out == ""
        assert err == f"the table starts at n=2; got --max {max_n}\n"


class TestResume:
    def test_resume_after_truncation(self, capsys, tmp_path):
        path = tmp_path / "n5.ledger"
        code, _, _ = run_cli(
            capsys, "count", "--teams", "5", "--checkpoint", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        code, out, _ = run_cli(
            capsys, "resume", "--checkpoint", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["total"] == str(KNOWN_TOTALS[5])

    def test_dropped_trailing_record_warns_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "n5.ledger"
        code, _, _ = run_cli(capsys, "count", "--teams", "5", "--checkpoint", str(path))
        assert code == 0
        with open(path, "a") as fh:
            fh.write("null\n")
        code, out, err = run_cli(capsys, "resume", "--checkpoint", str(path))
        assert code == 0
        assert f"n=5 total={KNOWN_TOTALS[5]}" in out
        assert err == (
            f"warning: {path}: dropping corrupt trailing record "
            f"(record is not a JSON object)\n"
        )

    def test_resume_missing_ledger(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "resume", "--checkpoint", str(tmp_path / "none.ledger")
        )
        assert code == 2
        assert "header" in err


class TestJsonGolden:
    """The byte-exact ``--format json`` contract, with ``elapsed_ms`` set to 0."""

    @staticmethod
    def normalised(out):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_count(self, capsys, monkeypatch, n):
        monkeypatch.delenv("LEAGUE_TIES_WORKERS", raising=False)
        code, out, _ = run_cli(capsys, "count", "--teams", str(n), "--format", "json")
        assert code == 0
        assert self.normalised(out) == (GOLDEN / f"count_n{n}.json").read_text()

    def test_resume_of_a_complete_ledger(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("LEAGUE_TIES_WORKERS", raising=False)
        path = str(tmp_path / "n5.ledger")
        code, _, _ = run_cli(capsys, "count", "--teams", "5", "--checkpoint", path)
        assert code == 0
        code, out, _ = run_cli(capsys, "resume", "--checkpoint", path, "--format", "json")
        assert code == 0
        assert self.normalised(out) == (GOLDEN / "resume_n5.json").read_text()


class TestVersion:
    def test_one_version_string(self):
        # A regex, not tomllib: the suite also runs on Python 3.10.
        match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
        assert match is not None
        assert match.group(1) == ENGINE_VERSION
        assert league_ties.__version__ == ENGINE_VERSION

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"league-ties {ENGINE_VERSION}\n"


class TestImport:
    @pytest.mark.parametrize("module", ["league_ties", "league_ties.cli"])
    def test_import_skips_multiprocessing(self, module):
        # The scheduler imports multiprocessing, and its shared counter ctypes, on start.
        code = (
            f"import sys, {module}; "
            "print(sorted({'multiprocessing', 'ctypes'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "[]\n"
