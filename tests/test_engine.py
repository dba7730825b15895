"""The orchestrated count: totals, breakdowns, scheduling, failure handling."""

import multiprocessing
import os
import time

import pytest

from league_ties import engine
from league_ties.engine import KNOWN_TOTALS, count_tied
from league_ties.errors import LeagueTiesError, SizeRefusedError
from league_ties.eulerian import eulerian_count
from league_ties.profiles import ProfileClass, classify_profile, iter_profiles


class TestTotals:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_known_totals(self, n):
        assert count_tied(n).total == KNOWN_TOTALS[n]

    def test_two_team_breakdown(self):
        report = count_tied(2)
        b = report.class_breakdown
        assert b["ALL_DRAW_SPECIAL"].contribution == 1
        assert b["EULERIAN_SPECIAL"].contribution == 2
        assert b["SEARCH"].contribution == 0
        assert report.total == 3

    def test_three_team_breakdown(self):
        b = count_tied(3).class_breakdown
        assert (
            b["ALL_DRAW_SPECIAL"].contribution,
            b["EULERIAN_SPECIAL"].contribution,
            b["SEARCH"].contribution,
        ) == (1, 10, 16)

    def test_four_team_breakdown(self):
        b = count_tied(4).class_breakdown
        assert b["EULERIAN_SPECIAL"].contribution == 152
        assert b["SEARCH"].contribution == 1083 - 1 - 152

    def test_five_team_middle_band(self):
        report = count_tied(5)
        middle = report.total - 1 - eulerian_count(5)
        assert report.class_breakdown["SEARCH"].contribution == middle


class TestReportInvariants:
    def test_contributions_sum_to_total(self):
        for n in (2, 3, 4, 5):
            report = count_tied(n)
            assert sum(
                st.contribution for st in report.class_breakdown.values()
            ) == report.total

    def test_pruned_classes_contribute_nothing(self):
        report = count_tied(5)
        for cls in ProfileClass:
            if cls.name.startswith("PRUNED"):
                assert report.class_breakdown[cls.value].contribution == 0

    def test_exactly_one_all_draw_profile(self):
        for n in (2, 3, 4, 5):
            report = count_tied(n)
            assert report.class_breakdown["ALL_DRAW_SPECIAL"].profiles == 1

    def test_searched_profiles_counts_search_class(self):
        report = count_tied(5)
        assert report.searched_profiles == report.class_breakdown["SEARCH"].profiles
        assert report.resumed_from is None
        assert report.elapsed >= 0.0

    def test_breakdown_json_uses_decimal_strings(self):
        payload = count_tied(4).breakdown_json()
        assert payload["EULERIAN_SPECIAL"]["contribution"] == "152"
        assert all(isinstance(v["contribution"], str) for v in payload.values())


class TestScheduling:
    def test_worker_count_does_not_change_the_total(self):
        expected = count_tied(5, workers=1).total
        assert count_tied(5, workers=2).total == expected
        assert count_tied(5, workers=3).total == expected

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_known_totals_with_workers(self, workers):
        for n in range(2, 8):
            assert count_tied(n, workers=workers).total == KNOWN_TOTALS[n]

    @pytest.mark.long
    def test_eight_teams_with_two_workers(self):
        assert count_tied(8, workers=2).total == KNOWN_TOTALS[8]

    def test_pool_run_is_silent_and_leaves_no_process(self, capfd, tmp_path):
        # Benchmarks read results from stdout, so a pooled, ledgered count
        # writes nothing there, and its workers are gone when it returns.
        report = count_tied(5, workers=2, checkpoint=tmp_path / "n5.ledger")
        assert report.total == KNOWN_TOTALS[5]
        assert multiprocessing.active_children() == []
        assert capfd.readouterr().out == ""

    def test_progress_callback(self):
        seen = []
        report = count_tied(5, progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (report.searched_profiles, report.searched_profiles)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_failed_worker_tasks_are_retried(self, monkeypatch, tmp_path):
        # The first attempt at one profile fails in whichever process runs
        # it (forked children inherit the patch); the in-process retry must
        # still deliver the exact total, with exactly one more attempt.
        target = next(
            p.takes
            for p in iter_profiles(5)
            if classify_profile(p) is ProfileClass.SEARCH
        )
        marker = tmp_path / "failed-once"
        attempts = tmp_path / "attempts"
        count_completions = engine.count_completions

        def fail_first(profile, **kwargs):
            if profile.takes == target:
                with open(attempts, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    pass
                else:
                    raise RuntimeError("injected failure on the first attempt")
            return count_completions(profile, **kwargs)

        monkeypatch.setattr(engine, "count_completions", fail_first)
        assert count_tied(5, workers=2).total == KNOWN_TOTALS[5]
        pids = attempts.read_text().split()
        assert len(pids) == 2
        assert pids[1] == str(os.getpid())

    def test_killed_child_costs_no_result(self, monkeypatch, tmp_path, deadline):
        # A child that dies mid-group takes none of its claimed tasks with
        # it: they are run here once its pipe closes, and the run neither
        # hangs nor returns a short total.
        main_pid = os.getpid()
        died = tmp_path / "died"
        count_completions = engine.count_completions

        def dying(profile, **kwargs):
            if os.getpid() != main_pid:
                died.write_text(str(profile.takes))
                os._exit(1)
            time.sleep(0.01)  # leave the child time to claim a group
            return count_completions(profile, **kwargs)

        monkeypatch.setattr(engine, "count_completions", dying)
        assert count_tied(5, workers=2).total == KNOWN_TOTALS[5]
        assert died.exists()
        assert multiprocessing.active_children() == []

    def test_no_more_processes_than_target_groups(self, started):
        targets = {
            p.taken for p in iter_profiles(5) if classify_profile(p) is ProfileClass.SEARCH
        }
        assert count_tied(5, workers=16).total == KNOWN_TOTALS[5]
        assert len(started) == len(targets) - 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_failing_everywhere_aborts(self, monkeypatch, workers):
        # A profile that fails in the pool and again in the in-process retry
        # aborts the run with its name, and no worker outlives the call.
        target = next(
            p.takes
            for p in iter_profiles(5)
            if classify_profile(p) is ProfileClass.SEARCH
        )
        count_completions = engine.count_completions

        def poisoned(profile, **kwargs):
            if profile.takes == target:
                raise RuntimeError("injected failure")
            return count_completions(profile, **kwargs)

        monkeypatch.setattr(engine, "count_completions", poisoned)
        with pytest.raises(LeagueTiesError, match="failed twice") as info:
            count_tied(5, workers=workers)
        assert str(target) in str(info.value)
        assert multiprocessing.active_children() == []

    def test_missing_results_abort(self, monkeypatch):
        # A scheduler that loses results must not return a short total.
        def nothing(groups, workers, run):
            yield from ()

        monkeypatch.setattr(engine, "shared_results", nothing)
        with pytest.raises(LeagueTiesError, match="no search result for 19 of 19"):
            count_tied(5, workers=2)


class TestGuards:
    def test_nine_teams_refused(self):
        with pytest.raises(SizeRefusedError):
            count_tied(9)

    def test_single_team_rejected(self):
        with pytest.raises(ValueError):
            count_tied(1)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            count_tied(3, workers=0)

    def test_documented_reference_totals(self):
        # The published sequence: recomputing the large entries is a long
        # run, but the table itself must stay internally consistent.
        assert KNOWN_TOTALS[8] == 3439079361325736243
        assert sorted(KNOWN_TOTALS) == list(range(2, 9))
