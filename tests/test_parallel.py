"""The shared scheduler: every result once, bounded children, no lost or stray work."""

import multiprocessing
import os
import time
from collections import Counter
from contextlib import closing

import pytest

from league_ties.brute import count_tied_by_level_bruteforce
from league_ties.engine import count_tied
from league_ties.parallel import shared_results


def _groups(sizes):
    return [[(g, i) for i in range(size)] for g, size in enumerate(sizes)]


def _echo(task):
    return task, os.getpid()


class TestSharedResults:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("sizes", [[], [1], [3, 1, 4, 1, 5], [2] * 9])
    def test_every_result_arrives_once(self, workers, sizes, started):
        groups = _groups(sizes)
        with closing(shared_results(groups, workers, _echo)) as results:
            tasks = Counter(task for task, _ in results)
        assert tasks == Counter(task for group in groups for task in group)
        assert len(started) == max(min(workers, len(groups)) - 1, 0)
        assert multiprocessing.active_children() == []

    def test_child_dying_mid_group_loses_no_result(self, tmp_path, started, deadline):
        # Each child sends its group's first result and dies on the second;
        # the caller runs the rest of that group, and only the rest.
        main_pid = os.getpid()
        died = tmp_path / "died"

        def run(task):
            if os.getpid() == main_pid:
                time.sleep(0.05)  # leave the children time to claim a group
            elif task[1] == 1:
                died.write_text(str(task))
                os._exit(1)
            return task, os.getpid()

        groups = _groups([3] * 6)
        with closing(shared_results(groups, 3, run)) as results:
            done = list(results)
        assert Counter(task for task, _ in done) == Counter(t for g in groups for t in g)
        assert len(started) == 2
        assert died.exists()
        assert any(pid != main_pid for _, pid in done)  # a child's first result arrived
        assert multiprocessing.active_children() == []

    def test_closing_early_stops_the_children(self, started, deadline):
        # A child left to finish its task would keep the close waiting.
        main_pid = os.getpid()

        def run(task):
            if os.getpid() != main_pid:
                time.sleep(600)
            return task, os.getpid()

        results = shared_results(_groups([4] * 8), 3, run)
        next(results)
        results.close()
        assert len(started) == 2
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -1, 2.5, True])
@pytest.mark.parametrize(
    "count",
    [lambda w: count_tied(5, workers=w), lambda w: count_tied_by_level_bruteforce(4, workers=w)],
    ids=["count_tied", "season_sweep"],
)
def test_worker_count_is_refused_before_any_process(count, workers, started):
    # The count and the season sweep take the same worker counts: an int of
    # at least 1.  A bool or a float is refused, not rounded or run serially.
    with pytest.raises(ValueError, match="workers must be an int >= 1"):
        count(workers)
    assert started == []
