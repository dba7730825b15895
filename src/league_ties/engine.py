"""Composition of the exact tied-season count.

The total for ``n`` teams is assembled from the profile classes: the single
all-draw outcome, the draw-free class counted in closed form by Eulerian
digraphs, and one weighted search per SEARCH profile.  Per-profile results
are exact integers and combine by addition, so worker count, scheduling
order and interruption points cannot change the total.  The searches of one
run share a memo of deficit multisets (see :mod:`league_ties.search`).
A task is one whole SEARCH profile, its result that profile's completion
count.  With several workers the tasks are grouped by target P (the first
team's total), whose memo entries mostly serve that P alone: this process
and its forked children claim whole groups (:mod:`league_ties.parallel`),
each keeping one memo across the groups it claims.

A checkpoint ledger (one header line, then one JSON record per finished
profile) makes long runs resumable: on restart, profiles already on record
are not searched again.  All counts are exact Python integers end to end,
so no total can overflow.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .errors import CheckpointError, LeagueTiesError, SizeRefusedError
from .eulerian import eulerian_count
from .parallel import shared_results
from .profiles import (
    Profile,
    ProfileClass,
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)
from .scoring import LeagueSize, as_league_size
# split_prefixes is unused here: perfbench/tracer.py wraps it; ROADMAP item 1 deletes both.
from .search import count_completions, split_prefixes

ENGINE_VERSION = "0.1.0"

#: Largest league the optimised counter accepts.  n=8 takes seconds; n=9
#: stays refused until a second route can vouch for its total.
MAX_TEAMS = 8

#: Previously computed totals (OEIS A380592), used as reference values by
#: the verify command and the test suite.
KNOWN_TOTALS: dict[int, int] = {
    2: 3,
    3: 27,
    4: 1083,
    5: 296081,
    6: 696779523,
    7: 16503494334993,
    8: 3439079361325736243,
}


@dataclass(frozen=True)
class ClassStats:
    """Profile count and exact contribution of one profile class."""

    profiles: int
    contribution: int


@dataclass(frozen=True)
class TiedCountReport:
    """Result of one optimised count."""

    n: int
    total: int
    class_breakdown: dict[str, ClassStats]
    searched_profiles: int
    elapsed: float
    workers: int
    resumed_from: str | None = None

    def breakdown_json(self) -> dict[str, dict[str, object]]:
        """Breakdown with contributions as decimal strings, for serialising."""
        return {
            tag: {"profiles": st.profiles, "contribution": str(st.contribution)}
            for tag, st in self.class_breakdown.items()
        }


class CheckpointLedger:
    """Append-only per-profile record of completion counts.

    Line 1 is a header pinning the league size (headers of older versions
    also carry a search-mode flag and an options digest; neither is read);
    each further line records one searched profile.  Only the final line may
    ever be damaged (a killed writer), so a trailing record that is corrupt
    or lacks its newline is skipped with a warning by :meth:`load`, which
    only reads, and cut off by :meth:`open_for_append`; damage anywhere else
    is refused as a stale or foreign file.
    """

    def __init__(self, path: str | Path, n: int):
        self.path = Path(path)
        self.n = n
        self._handle = None
        self._valid_end: int | None = None  # set by load() on a torn tail

    @staticmethod
    def _parse_header(path: Path, first: bytes) -> dict:
        try:
            header = json.loads(first)
        except ValueError as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "header" or "n" not in header:
            raise CheckpointError(f"{path}: not a checkpoint ledger")
        if type(header["n"]) is not int:
            raise CheckpointError(
                f"{path}: not a checkpoint ledger (header n={header['n']!r} "
                f"is not an integer)"
            )
        return header

    def load(self) -> dict[tuple[int, ...], int]:
        """Validated completion counts already on record, keyed by takes."""
        try:
            data = self.path.read_bytes() if self.path.exists() else b""
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from None
        if not data:
            return {}
        lines = data.split(b"\n")
        # Every line is written with its newline, so a last line without
        # one is a torn write even if it parses.
        torn = lines[-1] != b""
        if not torn:
            lines.pop()
        header = self._parse_header(self.path, lines[0])
        if header["n"] != self.n:
            raise CheckpointError(
                f"{self.path}: header n={header['n']!r} does not match the "
                f"requested run (n={self.n!r}); refusing to resume"
            )
        if torn and len(lines) == 1:
            warnings.warn(f"{self.path}: rewriting torn header", stacklevel=2)
            self._valid_end = 0
            return {}

        entries: dict[tuple[int, ...], int] = {}
        offset = len(lines[0]) + 1
        for idx, line in enumerate(lines[1:], start=1):
            last = idx == len(lines) - 1
            try:
                if last and torn:
                    raise ValueError("no final newline")
                takes, completions = self._parse_entry(line)
            except (ValueError, KeyError, TypeError) as exc:
                if last:
                    warnings.warn(
                        f"{self.path}: dropping corrupt trailing record ({exc})",
                        stacklevel=2,
                    )
                    self._valid_end = offset
                    break
                raise CheckpointError(
                    f"{self.path}: corrupt record on line {idx + 1}: {exc}"
                ) from None
            if takes in entries and entries[takes] != completions:
                raise CheckpointError(
                    f"{self.path}: conflicting records for profile {takes}"
                )
            entries[takes] = completions
            offset += len(line) + 1
        return entries

    def _parse_entry(self, line: bytes) -> tuple[tuple[int, ...], int]:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("record is not a JSON object")
        if record.get("kind") != "entry":
            raise ValueError(f"unexpected record kind {record.get('kind')!r}")
        takes = tuple(record["takes"])
        profile = Profile(takes)
        digits = record["completions"]
        # The writer emits a decimal string; a number, bool, sign, space or
        # underscore that int() would accept is a foreign or edited record.
        if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
            raise ValueError(f"completion count {digits!r} is not a string of digits")
        completions = int(digits)
        rep, dbl = record["representation"], record["doubling"]
        if type(rep) is not int or rep != representation_factor(profile):
            raise ValueError(f"representation factor {rep!r} is wrong for {takes}")
        if type(dbl) is not int or dbl != doubling_factor(profile):
            raise ValueError(f"doubling factor {dbl!r} is wrong for {takes}")
        return takes, completions

    def open_for_append(self) -> None:
        try:
            self._handle = open(self.path, "a", encoding="ascii")
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {self.path}: {exc}") from exc
        if self._valid_end is not None:
            self._handle.truncate(self._valid_end)
        if self._handle.seek(0, os.SEEK_END) == 0:
            header = {"kind": "header", "n": self.n, "version": ENGINE_VERSION}
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self._handle.flush()

    def append(self, takes: tuple[int, ...], completions: int) -> None:
        profile = Profile(takes)
        record = {
            "kind": "entry",
            "takes": list(takes),
            "completions": str(completions),
            "representation": representation_factor(profile),
            "doubling": doubling_factor(profile),
            "ts": round(time.time(), 3),
        }
        assert self._handle is not None
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def read_header(path: str | Path) -> dict:
        """Header of an existing ledger (for resuming without knowing n)."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                first = fh.readline()
        except OSError as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None
        return CheckpointLedger._parse_header(path, first)


_Task = tuple[int, ...]  # the takes of one SEARCH profile
_Result = tuple[tuple[int, ...], int | None, str | None]  # (takes, count, error)


def _search_task(takes: _Task, memo: dict[tuple[int, ...], int]) -> _Result:
    try:
        return takes, count_completions(Profile(takes), memo=memo), None
    except Exception as exc:  # report back; the scheduler retries in-process
        return takes, None, f"{type(exc).__name__}: {exc}"


def count_tied(
    size: LeagueSize | int,
    *,
    workers: int = 1,
    checkpoint: str | Path | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> TiedCountReport:
    """Exact number of season outcomes with all teams level on points.

    Args:
        size: team count (or :class:`LeagueSize`), 2..8.
        workers: search worker processes; any value yields the same total.
        checkpoint: optional ledger path for interruptable runs.
        progress: callback ``(profiles_done, profiles_total)`` over the
            SEARCH class, including profiles restored from the ledger.
    """
    size = as_league_size(size)
    n = size.n
    if n > MAX_TEAMS:
        raise SizeRefusedError(
            f"optimised counter supports 2 <= n <= {MAX_TEAMS}; n={n} needs a "
            f"different algorithm"
        )
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.perf_counter()

    stats = {cls: 0 for cls in ProfileClass}
    weights: dict[tuple[int, ...], int] = {}  # SEARCH takes -> rep * dbl
    for profile in iter_profiles(n):
        cls = classify_profile(profile)
        stats[cls] += 1
        if cls is ProfileClass.SEARCH:
            weights[profile.takes] = representation_factor(profile) * doubling_factor(profile)

    ledger: CheckpointLedger | None = None
    recorded: dict[tuple[int, ...], int] = {}
    resumed_from: str | None = None
    if checkpoint is not None:
        ledger = CheckpointLedger(checkpoint, n)
        recorded = ledger.load()
        foreign = recorded.keys() - weights.keys()
        if foreign:
            raise CheckpointError(
                f"{ledger.path}: records for profiles outside the SEARCH class "
                f"of n={n}: {sorted(foreign)[:3]}..."
            )
        if recorded:
            resumed_from = str(ledger.path)
        ledger.open_for_append()

    try:
        search_total = _run_searches(weights, recorded, workers, ledger, progress)
    finally:
        if ledger is not None:
            ledger.close()

    breakdown: dict[str, ClassStats] = {}
    for cls in ProfileClass:
        if cls is ProfileClass.ALL_DRAW_SPECIAL:
            contribution = 1
        elif cls is ProfileClass.EULERIAN_SPECIAL:
            contribution = eulerian_count(n)
        elif cls is ProfileClass.SEARCH:
            contribution = search_total
        else:
            contribution = 0
        breakdown[cls.value] = ClassStats(stats[cls], contribution)

    total = sum(st.contribution for st in breakdown.values())
    return TiedCountReport(
        n=n,
        total=total,
        class_breakdown=breakdown,
        searched_profiles=len(weights),
        elapsed=time.perf_counter() - start,
        workers=workers,
        resumed_from=resumed_from,
    )


def _run_searches(
    weights: dict[tuple[int, ...], int],
    recorded: dict[tuple[int, ...], int],
    workers: int,
    ledger: CheckpointLedger | None,
    progress: Callable[[int, int], None] | None,
) -> int:
    """Run all outstanding searches; return the weighted sum of all profiles."""
    total = sum(weights[takes] * completions for takes, completions in recorded.items())
    done = len(recorded)
    if progress is not None and done:
        progress(done, len(weights))

    tasks: list[_Task] = [takes for takes in weights if takes not in recorded]

    # One deficit memo serves every profile and target this process runs.
    memo: dict[tuple[int, ...], int] = {}
    if workers > 1 and tasks:
        results = shared_results(_target_groups(tasks), workers, partial(_search_task, memo=memo))
    else:
        results = (_search_task(task, memo) for task in tasks)
    with closing(results):
        for takes, count, error in results:
            if error is not None:  # one in-process retry; a second failure aborts
                _, count, error = _search_task(takes, memo)
                if error is not None:
                    raise LeagueTiesError(
                        f"search failed twice for profile {takes}: {error}"
                    )
            total += weights[takes] * count
            done += 1
            if ledger is not None:
                ledger.append(takes, count)
            if progress is not None:
                progress(done, len(weights))
    if done < len(weights):
        raise LeagueTiesError(
            f"no search result for {len(weights) - done} of {len(weights)} SEARCH profiles"
        )
    return total


def _target_groups(tasks: list[_Task]) -> list[list[_Task]]:
    """The tasks grouped by target P, the central (costliest) targets first."""
    by_target: dict[int, list[_Task]] = {}
    for takes in tasks:
        by_target.setdefault(sum(takes), []).append(takes)
    # The cost of a target peaks a little above the middle of the SEARCH
    # range 2n - 1..3n - 4 (P = 18 and 19 at n = 8, 16 at n = 7).
    n = len(tasks[0]) + 1
    return [by_target[p] for p in sorted(by_target, key=lambda p: (abs(2 * p - (5 * n - 3)), p))]


def resume(
    checkpoint: str | Path,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> TiedCountReport:
    """Finish an interrupted count from its checkpoint ledger."""
    header = CheckpointLedger.read_header(checkpoint)
    return count_tied(
        header["n"],
        workers=workers,
        checkpoint=checkpoint,
        progress=progress,
    )
