"""Acceptance suite: one check per release criterion, exact values throughout.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output section) so a run doubles as a human-readable report.
Criteria marked long (the 3**20 season sweep) are enabled with
``--run-long``.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from league_ties.brute import (
    count_completions_bruteforce,
    count_tied_bruteforce,
    decode_outcome,
    tally_points,
)
from league_ties.engine import KNOWN_TOTALS, count_tied
from league_ties.eulerian import eulerian_count_bruteforce
from league_ties.profiles import (
    PRUNED_CLASSES,
    ProfileClass,
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)
from league_ties.scoring import LeagueSize, parse_score_table, table_points
from league_ties.search import count_completions

FIXTURE = Path(__file__).parent / "data" / "bundesliga_2021_22.txt"


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "league_ties.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_01_published_small_totals():
    t0 = time.perf_counter()
    for n, expected in [(2, 3), (3, 27), (4, 1083)]:
        assert count_tied_bruteforce(n) == expected
        assert count_tied(n).total == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS 01 small-league totals: brute == optimized == 3/27/1083 "
          f"({elapsed:.2f}s)")


def test_02_five_team_total():
    t0 = time.perf_counter()
    report = count_tied(5)
    elapsed = time.perf_counter() - t0
    assert report.total == 296081
    assert elapsed < 10.0
    print(f"PASS 02 n=5 optimized total: 296081 ({elapsed:.3f}s)")


@pytest.mark.long
def test_02_five_team_total_bruteforce():
    t0 = time.perf_counter()
    total = count_tied_bruteforce(5)
    elapsed = time.perf_counter() - t0
    assert total == 296081
    assert elapsed < 1800.0
    print(f"PASS 02-long n=5 brute-force total: 296081 ({elapsed:.1f}s)")


def test_03_six_team_total():
    t0 = time.perf_counter()
    report = count_tied(6, workers=1)
    elapsed = time.perf_counter() - t0
    assert report.total == 696779523
    assert elapsed < 120.0
    print(f"PASS 03 n=6 optimized total: 696779523 ({elapsed:.3f}s, 1 worker)")


def test_04_seven_team_total():
    t0 = time.perf_counter()
    single = count_tied(7, workers=1)
    single_s = time.perf_counter() - t0
    assert single.total == 16503494334993
    assert single_s < 60.0
    t0 = time.perf_counter()
    pooled = count_tied(7, workers=8)
    pooled_s = time.perf_counter() - t0
    assert pooled.total == single.total
    print(f"PASS 04 n=7 total: 16503494334993 "
          f"(1 worker: {single_s:.1f}s, 8 workers: {pooled_s:.1f}s)")


def test_05_eight_team_total():
    t0 = time.perf_counter()
    report = count_tied(8)
    elapsed = time.perf_counter() - t0
    assert report.total == KNOWN_TOTALS[8] == 3439079361325736243
    assert elapsed < 60.0
    print(f"PASS 05 n=8 total: 3439079361325736243 ({elapsed:.1f}s)")


def test_05_eight_team_value_documented_and_resume_substitute(tmp_path):
    # The n=8 value is embedded (test_05_eight_team_total reproduces it);
    # the CLI's refusal starts above it, at n=9.
    assert KNOWN_TOTALS[8] == 3439079361325736243
    refused = _cli("count", "--teams", "9")
    assert refused.returncode == 3

    # Substitute property: interrupting an n=6 run halfway and resuming
    # reproduces the criterion-3 total exactly.
    ledger = tmp_path / "n6.ledger"
    full = count_tied(6, checkpoint=ledger)
    lines = ledger.read_text().splitlines()
    entries = len(lines) - 1
    keep = entries // 2
    ledger.write_text("\n".join(lines[: 1 + keep]) + "\n")
    resumed = count_tied(6, checkpoint=ledger)
    assert resumed.resumed_from == str(ledger)
    assert resumed.total == full.total == 696779523
    print(f"PASS 05 n=8 value documented ({KNOWN_TOTALS[8]}), n=9 refused; "
          f"n=6 resume after {keep}/{entries} profiles reproduces 696779523")


def test_06_search_matches_sweep():
    checked = 0
    for n in (3, 4):
        for profile in iter_profiles(n):
            assert count_completions(profile) == count_completions_bruteforce(
                profile.takes, n
            ), profile
            checked += 1
    searchable = [
        p for p in iter_profiles(5) if classify_profile(p) is ProfileClass.SEARCH
    ]
    rng = random.Random(2025)
    sample = (
        rng.sample(searchable, 20) if len(searchable) >= 20 else list(searchable)
    )
    for profile in sample:
        assert count_completions(profile) == count_completions_bruteforce(
            profile.takes, 5
        ), profile
    print(f"PASS 06 oracle equivalence: all {checked} profiles at n=3,4 and "
          f"{len(sample)} sampled SEARCH profiles at n=5")


def test_07_pruning_soundness():
    checked = 0
    for n in (3, 4, 5):
        for profile in iter_profiles(n):
            if classify_profile(profile) in PRUNED_CLASSES:
                assert count_completions_bruteforce(profile.takes, n) == 0, profile
                checked += 1
    print(f"PASS 07 pruning soundness: {checked} pruned profiles over n=3..5, "
          f"all with zero completions (exhaustive)")


def test_08_weight_identities():
    for n in range(2, 9):
        reps = 0
        weighted = 0
        for p in iter_profiles(n):
            r = representation_factor(p)
            reps += r
            weighted += r * doubling_factor(p)
        assert reps == 6 ** (n - 1), n
        assert weighted == 9 ** (n - 1), n
    print("PASS 08 weight identities: sum(rep) == 6^(n-1) and "
          "sum(rep*dbl) == 9^(n-1) for n=2..8")


def test_09_eulerian_correspondence():
    # Draw-free outcomes with every team level correspond to digraphs with
    # in-degree == out-degree everywhere (arc = home win).
    for n in (3, 4):
        size = LeagueSize(n)
        level = 3 * (n - 1)
        draw_free_tied = 0
        for e in range(3**size.matches):
            results = decode_outcome(e, size)
            if 1 in results:
                continue
            points = tally_points(results, size)
            if all(p == level for p in points):
                draw_free_tied += 1
        assert draw_free_tied == eulerian_count_bruteforce(n), n
    print("PASS 09 Eulerian correspondence at n=3 (10) and n=4 (152)")


def test_10_reference_season_fixture():
    table = parse_score_table(FIXTURE.read_text())
    assert table_points(table) == (10, 10, 10, 10, 10)
    print("PASS 10 reference five-team season: all teams on 10 points")


def test_11_worker_determinism():
    outputs = []
    for workers in (1, 2, 8):
        run = _cli(
            "count", "--teams", "6", "--format", "json", "--workers", str(workers)
        )
        assert run.returncode == 0, run.stderr
        outputs.append(json.loads(run.stdout))
    totals = {out["total"] for out in outputs}
    assert totals == {"696779523"}
    # elapsed_ms and workers legitimately differ per run; every other byte
    # of the payload must be identical.
    stable = [
        json.dumps(
            {k: v for k, v in out.items() if k not in ("elapsed_ms", "workers")},
            sort_keys=True,
        ).encode()
        for out in outputs
    ]
    assert stable[0] == stable[1] == stable[2]
    print("PASS 11 determinism: workers 1/2/8 agree on total 696779523 and "
          "byte-identical stable JSON")
