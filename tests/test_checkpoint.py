"""Checkpoint ledger: persistence, resume, recovery and refusal paths."""

import json
import random
import warnings

import pytest

from league_ties import engine
from league_ties.engine import CheckpointLedger, KNOWN_TOTALS, count_tied, resume
from league_ties.errors import CheckpointError


def run_with_ledger(tmp_path, n, **kwargs):
    path = tmp_path / f"run_n{n}.ledger"
    report = count_tied(n, checkpoint=path, **kwargs)
    return path, report


def ledger_lines(path):
    return path.read_text().splitlines()


def truncate_entries(path, keep):
    """Rewrite the ledger with only the first ``keep`` entry lines."""
    lines = ledger_lines(path)
    path.write_text("\n".join(lines[: 1 + keep]) + "\n")


class TestLedgerFile:
    def test_header_plus_one_entry_per_profile(self, tmp_path):
        path, report = run_with_ledger(tmp_path, 4)
        lines = ledger_lines(path)
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["n"] == 4
        assert len(lines) - 1 == report.searched_profiles

    def test_entries_carry_exact_decimal_counts(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 4)
        total = 0
        for line in ledger_lines(path)[1:]:
            record = json.loads(line)
            assert record["kind"] == "entry"
            assert isinstance(record["completions"], str)
            total += (
                record["representation"]
                * record["doubling"]
                * int(record["completions"])
            )
        assert total == KNOWN_TOTALS[4] - 1 - 152

    def test_fresh_run_is_not_marked_resumed(self, tmp_path):
        _, report = run_with_ledger(tmp_path, 4)
        assert report.resumed_from is None


class TestResume:
    def test_interrupted_run_resumes_to_identical_total(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, full.searched_profiles // 2)
        resumed = count_tied(5, checkpoint=path)
        assert resumed.total == full.total == KNOWN_TOTALS[5]
        assert resumed.resumed_from == str(path)
        assert len(ledger_lines(path)) - 1 == full.searched_profiles

    def test_resume_reads_options_from_header(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 4)
        truncate_entries(path, 2)
        report = resume(path)
        assert report.n == 4
        assert report.total == full.total

    def test_complete_ledger_resumes_without_work(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 4)
        before = path.read_text()
        again = resume(path)
        assert again.total == full.total
        assert path.read_text() == before  # nothing recomputed or rewritten

    def test_entry_order_is_irrelevant(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        entries = lines[1:]
        random.Random(7).shuffle(entries)
        path.write_text("\n".join([lines[0]] + entries) + "\n")
        assert resume(path).total == full.total

    def test_old_header_format_resumes(self, tmp_path):
        # Ledgers written before the header lost its search-mode flag and
        # options digest carry both; neither ever changed a count.
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, full.searched_profiles // 2)
        lines = ledger_lines(path)
        header = json.loads(lines[0])
        header.update(strict=True, digest="0123456789ab")
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert resume(path).total == KNOWN_TOTALS[5]

    def test_records_with_worker_field_resume(self, tmp_path):
        # Records written before the ledger dropped its placeholder
        # ``worker`` field carry it; it is ignored on resume and new
        # records leave it out.
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, full.searched_profiles // 2)
        lines = ledger_lines(path)
        for i in range(1, len(lines)):
            record = json.loads(lines[i])
            assert "worker" not in record
            record["worker"] = 1
            lines[i] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert resume(path).total == KNOWN_TOTALS[5]
        records = [json.loads(line) for line in ledger_lines(path)[1:]]
        assert len(records) == full.searched_profiles
        assert sum("worker" in r for r in records) == len(lines) - 1

    def test_resume_with_workers(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, 3)
        assert count_tied(5, checkpoint=path, workers=2).total == full.total


class TestRefusals:
    def test_wrong_league_size(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 4)
        with pytest.raises(CheckpointError, match="does not match"):
            count_tied(5, checkpoint=path)

    def test_unwritable_path(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.ledger"
        with pytest.raises(CheckpointError, match="cannot write"):
            count_tied(4, checkpoint=missing_dir)

    def test_not_a_ledger(self, tmp_path):
        path = tmp_path / "junk.ledger"
        path.write_text("hello world\n")
        with pytest.raises(CheckpointError, match="header"):
            count_tied(4, checkpoint=path)

    @pytest.mark.parametrize(
        "first",
        [
            "[1, 2]",
            '{"kind": "entry"}',
            '{"kind": "header", "n": [5]}',
            '{"kind": "header", "n": "5"}',
        ],
    )
    def test_json_other_than_a_header_refused(self, tmp_path, first):
        path = tmp_path / "other.ledger"
        path.write_text(first + "\n")
        with pytest.raises(CheckpointError, match="not a checkpoint ledger"):
            count_tied(4, checkpoint=path)
        with pytest.raises(CheckpointError, match="not a checkpoint ledger"):
            resume(path)

    def test_foreign_profile_refused(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 4)
        lines = ledger_lines(path)
        record = json.loads(lines[1])
        # A self-consistent record for a profile that is not SEARCH class.
        record.update(takes=[2, 2, 2], completions="1", representation=1, doubling=1)
        lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="outside the SEARCH class"):
            count_tied(4, checkpoint=path)


class TestRecovery:
    def test_corrupt_trailing_entry_is_dropped_with_warning(self, tmp_path):
        path, full = run_with_ledger(tmp_path, 5)
        ledger = path.read_bytes()
        # A torn write, and records that parse as JSON but not as an object.
        for tail in ['{"kind": "entry", "takes": [4, 3, ', "null\n", "[1, 2]\n"]:
            path.write_bytes(ledger + tail.encode())
            with pytest.warns(UserWarning, match="corrupt trailing record"):
                report = count_tied(5, checkpoint=path)
            assert report.total == full.total
            # The damaged line is physically gone.
            assert path.read_bytes() == ledger

    def test_load_leaves_torn_ledger_unchanged(self, tmp_path):
        # load() only reads; the torn tail is cut when the run reopens the
        # file to append the profiles still missing.
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, full.searched_profiles // 2)
        with open(path, "a") as fh:
            fh.write('{"kind": "entry", "takes": [4, 3, ')
        before = path.read_bytes()
        with pytest.warns(UserWarning, match="corrupt trailing record"):
            recorded = CheckpointLedger(path, 5).load()
        assert len(recorded) == full.searched_profiles // 2
        assert path.read_bytes() == before
        with pytest.warns(UserWarning, match="corrupt trailing record"):
            report = count_tied(5, checkpoint=path)
        assert report.total == KNOWN_TOTALS[5]
        lines = ledger_lines(path)
        assert len(lines) - 1 == full.searched_profiles
        assert all(json.loads(line) for line in lines)

    def test_record_without_newline_is_torn(self, tmp_path):
        # A write torn just before its newline leaves a record that parses;
        # it is still dropped and cut, so the next record starts a new line.
        path, full = run_with_ledger(tmp_path, 5)
        truncate_entries(path, full.searched_profiles // 2)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.warns(UserWarning, match="no final newline"):
            assert resume(path).total == KNOWN_TOTALS[5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resume(path).total == KNOWN_TOTALS[5]
        lines = ledger_lines(path)
        assert len(lines) - 1 == full.searched_profiles
        assert all(json.loads(line) for line in lines)

    def test_header_without_newline_is_rewritten(self, tmp_path):
        path = tmp_path / "torn-header.ledger"
        header = {"kind": "header", "n": 4, "version": engine.ENGINE_VERSION}
        path.write_text(json.dumps(header, sort_keys=True))
        with pytest.warns(UserWarning, match="torn header"):
            report = count_tied(4, checkpoint=path)
        assert report.total == KNOWN_TOTALS[4]
        lines = ledger_lines(path)
        assert json.loads(lines[0]) == header
        assert len(lines) - 1 == report.searched_profiles

    def test_corrupt_middle_entry_is_refused(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        for bad in ['{"kind": "entry", "takes": "broken"}', "null", "[1, 2]"]:
            lines[2] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CheckpointError, match="corrupt record on line 3"):
                count_tied(5, checkpoint=path)

    # The writer stores each count as a string of ASCII digits; int() would
    # also take these, and a bool as 1.
    NOT_DIGITS = [True, 248.9, 248, "2_48", " 248", "-248", "", "\u0662\u0664\u0668"]

    @pytest.mark.parametrize("value", NOT_DIGITS, ids=repr)
    def test_count_not_in_digits_refused_mid_file(self, tmp_path, value):
        path, _ = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        record = json.loads(lines[2])
        record["completions"] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt record on line 3.*string of digits"):
            count_tied(5, checkpoint=path)

    @pytest.mark.parametrize("value", NOT_DIGITS, ids=repr)
    def test_count_not_in_digits_dropped_as_last_line(self, tmp_path, value):
        path, full = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        record = json.loads(lines[-1])
        record["completions"] = value
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="corrupt trailing record.*string of digits"):
            report = count_tied(5, checkpoint=path)
        assert report.total == full.total == KNOWN_TOTALS[5]
        last = json.loads(ledger_lines(path)[-1])
        assert last["takes"] == record["takes"]
        assert last["completions"].isdigit()

    def test_conflicting_duplicate_is_refused(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        record = json.loads(lines[1])
        record["completions"] = str(int(record["completions"]) + 1)
        lines.insert(2, json.dumps(record))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="conflicting records"):
            count_tied(5, checkpoint=path)

    def test_tampered_factors_are_refused(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 5)
        lines = ledger_lines(path)
        record = json.loads(lines[1])
        record["representation"] += 1
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt record"):
            count_tied(5, checkpoint=path)


class TestHeaderHelpers:
    def test_read_header(self, tmp_path):
        path, _ = run_with_ledger(tmp_path, 4)
        header = CheckpointLedger.read_header(path)
        assert header == {"kind": "header", "n": 4, "version": engine.ENGINE_VERSION}

    def test_read_header_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointLedger.read_header(tmp_path / "absent.ledger")
