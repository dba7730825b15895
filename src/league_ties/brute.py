"""Ground-truth counters by full enumeration, and a plain reference search.

Three oracles live here.  The season sweep tests all ``3**M`` base-3 season
encodings and counts the outcomes with every team level on points.  The
completion sweep tests all pair-code assignments of the matches among the
non-leading teams for one fixed take vector of the first team.  Both
sweeps are deliberately free of the symmetry and pruning arguments used by
the optimised counter, which is exactly what makes them useful as oracles.

"Full enumeration" means every outcome is tested against the tie predicate;
no outcome is skipped, merged with another or derived from a symmetry.  Each
odometer step fixes all but the first match (season sweep: match 0, team 0
at home to team 1) or the first pair (completion sweep: teams 0 and 1), and
closes it in one step: the three results, or six pair codes, are tested
together, because at most one of them can bring teams 0 and 1 to the
final level.

The third is :func:`completions_search`, a row-by-row recursive search of
the same completions that only cuts a branch once some team overshoots the
target.  It shares no code with the deficit DP of
:mod:`league_ties.search` and is fast enough to check it on every SEARCH
profile through n = 6, where the completion sweep stops at n = 5.  The
package itself never calls it; it serves the test suite.

The season sweep works in aligned blocks of ``3**min(M, 10)`` encodings,
the unit a pool of workers shares: one block for n <= 3, 9 at n = 4 and
59 049 at n = 5.  Their counts add up to the season's.

Points come from :mod:`league_ties.scoring` alone: the result and pair
tables, and the odometer steps, which are the differences between
consecutive codes (the wrap runs from the last code back to the first).
All values are exact Python integers, so nothing can overflow.  The sweep
loops bind their steps to locals, avoid attribute lookups and update their
bookkeeping incrementally instead of re-deriving it per step.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from multiprocessing import Pool

from .errors import SizeRefusedError
from .scoring import (
    PAIR_MULTIPLICITY,
    PAIR_POINTS,
    LeagueSize,
    TAKE_VALUES,
    as_league_size,
    complement,
    match_order,
    result_points,
)

#: Largest n swept; 3**20 encodings is the desk-scale ceiling.
BRUTE_CEILING = 5

# Matches swept inside one block of the season sweep: 3**10 encodings.
_BLOCK_MATCHES = 10


def _season_blocks(n: int) -> int:
    return 3 ** max(n * (n - 1) - _BLOCK_MATCHES, 0)


def _steps(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Column-wise change from each row to the next, the last wrapping to the first."""
    return [tuple(y - x for x, y in zip(a, b)) for a, b in zip(rows, rows[1:] + rows[:1])]


def count_tied_block(n: int, block: int) -> int:
    """Tied outcomes among the ``3**L`` season encodings of one block.

    Digit ``i`` of an encoding is the result of match ``i`` in the canonical
    home-major order; an outcome is tied when all teams finish equal.  With
    ``M`` matches and ``L = min(M, 10)``, the block's encodings start at
    ``block * 3**L`` and matches L..M-1 take the digits of ``block``.  The
    odometer runs over matches 1..L-1; match 0 (team 0 at home to team 1)
    owns the lowest digit, so each odometer state stands for three
    consecutive encodings, tested at once: a result ties the season when it
    brings teams 0 and 1 level with each other and with every other team.
    """
    if not 2 <= n <= BRUTE_CEILING:
        raise ValueError(f"season sweep supports 2 <= n <= {BRUTE_CEILING}, got {n}")
    if not 0 <= block < _season_blocks(n):
        raise ValueError(f"bad block {block} for n={n}")
    results = [result_points(r) for r in range(3)]
    (step1_h, step1_a), (step2_h, step2_a), (wrap_h, wrap_a) = _steps(results)
    matches = match_order(n)
    outer = matches[1:_BLOCK_MATCHES]
    digits = [0] * len(outer)
    points = [0] * n
    e = block * 3 ** len(outer)  # the odometer digits start on result 0
    for h, a in matches[1:]:
        e, r = divmod(e, 3)
        home, away = results[r]
        points[h] += home
        points[a] += away

    # Keyed by team 1's points minus team 0's before match 0: the team 0
    # points of the one result that levels the two (home minus away points
    # differ between results, so at most one can), and how many teams sit on
    # the final level before match 0 when the season ties: the n - 2 others
    # plus whichever of teams 0 and 1 takes nothing from match 0.
    close = {
        home - away: (home, n - 2 + (home == 0) + (away == 0)) for home, away in results
    }
    count = 0
    remaining = 3 ** len(outer)
    while True:
        hit = close.get(points[1] - points[0])
        if hit is not None and points.count(points[0] + hit[0]) == hit[1]:
            count += 1
        remaining -= 1
        if remaining == 0:
            return count
        i = 0
        while True:
            h, a = outer[i]
            r = digits[i]
            if r == 0:
                digits[i] = 1
                points[h] += step1_h
                points[a] += step1_a
                break
            if r == 1:
                digits[i] = 2
                points[h] += step2_h
                points[a] += step2_a
                break
            digits[i] = 0  # last result -> first, carry
            points[h] += wrap_h
            points[a] += wrap_a
            i += 1


def completions_sweep(base: tuple[int, ...], target: int) -> int:
    """Weighted full enumeration over the pair encounters among ``len(base)`` teams.

    ``base[i]`` is team ``i``'s points before any of these encounters.  Every
    one of the ``6**(k*(k-1)/2)`` code assignments is tested (no pruning of
    any kind); an assignment with all teams exactly at ``target`` contributes
    the product of its codes' multiplicities.

    The odometer runs over pairs 1.. only.  Pair 0 is teams 0 and 1, and its
    six codes are tested at once for each odometer state: the code whose
    points take team 0 to ``target`` is the only candidate, and it counts
    when it also takes team 1 there and every other team already sits on
    ``target``.
    """
    k = len(base)
    if k > 8:
        raise ValueError(f"completion sweep supports at most 8 teams, got {k}")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    m = len(pairs)
    points = list(base)
    if m == 0:
        return 1 if all(p == target for p in points) else 0

    # Keyed by team 0's points before pair 0: team 1's points that the same
    # code completes, its multiplicity, and the number of teams on target
    # before pair 0 when the assignment ties (the k - 2 others plus a team
    # that takes nothing from pair 0).
    close = {
        target - a: (target - b, mult, k - 2 + (a == 0) + (b == 0))
        for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)
    }
    # Multiplicities are 1 or 2, so an assignment weighs pair 0's
    # multiplicity shifted by the number of doubled odometer codes.
    rows = [(a, b, mult - 1) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)]
    *steps, (wrap_a, wrap_b, wrap_dbl) = _steps(rows)
    step_a, step_b, step_dbl = zip(*steps)
    last = len(rows) - 1

    outer = pairs[1:]
    codes = [0] * (m - 1)
    first_a, first_b, doubled = rows[0]  # the odometer codes start on code 0
    for i, j in outer:
        points[i] += first_a
        points[j] += first_b
    doubled *= m - 1
    count = 0
    remaining = len(rows) ** (m - 1)
    while True:
        hit = close.get(points[0])
        if hit is not None and points[1] == hit[0] and points.count(target) == hit[2]:
            count += hit[1] << doubled
        remaining -= 1
        if remaining == 0:
            return count
        idx = 0
        while True:
            c = codes[idx]
            i, j = outer[idx]
            if c == last:  # last code -> first, carry
                codes[idx] = 0
                points[i] += wrap_a
                points[j] += wrap_b
                doubled += wrap_dbl
                idx += 1
            else:
                codes[idx] = c + 1
                points[i] += step_a[c]
                points[j] += step_b[c]
                doubled += step_dbl[c]
                break


def completions_search(base: tuple[int, ...], target: int) -> int:
    """Weighted completion count by row-wise recursive search.

    Teams are indexed 0..k-1 (k = ``len(base)``); team ``i``'s row assigns
    pair codes against teams i+1..k-1 in order.  Once a team's row is
    complete its total is final and must equal ``target`` exactly, and the
    very last team is checked after the last row.  Each doubled code met
    along the way multiplies the branch weight by 2.  A branch is abandoned
    as soon as either side of a freshly assigned code exceeds ``target``
    (points never decrease, so this is sound).
    """
    k = len(base)
    if k > 8:
        raise ValueError(f"completion search supports at most 8 teams, got {k}")
    points = list(base)
    if k == 1:
        return 1 if points[0] == target else 0
    return _search_row(points, target, 0, 1, 1)


def _search_row(points: list[int], target: int, i: int, j: int, w: int) -> int:
    """Completions of team ``i``'s row from opponent ``j`` on, at branch weight ``w``.

    Deliberately a module-level function: a nested recursive closure would
    leave a reference cycle behind on every call.
    """
    k = len(points)
    if j == k:  # team i's row complete: its total is final
        if points[i] != target:
            return 0
        if i + 2 == k:
            return w if points[k - 1] == target else 0
        return _search_row(points, target, i + 1, i + 2, w)
    total = 0
    pi = points[i]
    pj = points[j]
    for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY):
        na = pi + a
        nb = pj + b
        if na > target or nb > target:
            continue
        points[i] = na
        points[j] = nb
        total += _search_row(points, target, i, j + 1, w * mult)
    points[i] = pi
    points[j] = pj
    return total


def encode_outcome(results: Sequence[int], size: LeagueSize | int) -> int:
    """Base-3 encoding of a full season, digit i = result of match i."""
    size = as_league_size(size)
    if len(results) != size.matches:
        raise ValueError(f"expected {size.matches} results, got {len(results)}")
    value = 0
    for i, r in enumerate(results):
        if r not in (0, 1, 2):
            raise ValueError(f"bad result {r!r} at match {i}")
        value += r * 3**i
    return value


def decode_outcome(encoding: int, size: LeagueSize | int) -> tuple[int, ...]:
    """Base-3 digits of ``encoding`` in canonical match order."""
    size = as_league_size(size)
    if not 0 <= encoding < 3**size.matches:
        raise ValueError(f"encoding {encoding} out of range for n={size.n}")
    digits = []
    e = encoding
    for _ in range(size.matches):
        e, r = divmod(e, 3)
        digits.append(r)
    return tuple(digits)


def tally_points(results: Sequence[int], size: LeagueSize | int) -> tuple[int, ...]:
    """Per-team point totals of one full season of match results."""
    size = as_league_size(size)
    if len(results) != size.matches:
        raise ValueError(f"expected {size.matches} results, got {len(results)}")
    points = [0] * size.n
    for (h, a), r in zip(match_order(size.n), results):
        ph, pa = result_points(r)
        points[h] += ph
        points[a] += pa
    return tuple(points)


def count_tied_bruteforce(size: LeagueSize | int, *, workers: int = 1) -> int:
    """Count tied outcomes by sweeping all ``3**M`` season encodings.

    Refuses ``n > 5``: the n=5 sweep already tests ~3.5e9 encodings, and the
    n=6 sweep, 3**30 of them, would take about 340 days at 7e6 a second.
    The sweep is split into aligned blocks of ``3**10`` encodings (one block
    of ``3**M`` when ``M < 10``), see :func:`count_tied_block`; block counts
    combine by addition, so any ``workers`` count gives the same total.  A
    sweep of one block runs in-process, and a pool never starts more
    workers than there are blocks.
    """
    size = as_league_size(size)
    if size.n > BRUTE_CEILING:
        raise SizeRefusedError(
            f"brute-force sweep of n={size.n} means 3**{size.matches} outcomes; "
            f"the ceiling is n={BRUTE_CEILING}"
        )
    blocks = _season_blocks(size.n)
    if workers <= 1 or blocks == 1:
        return sum(count_tied_block(size.n, b) for b in range(blocks))
    sweep = partial(count_tied_block, size.n)
    with Pool(min(workers, blocks)) as pool:
        return sum(pool.imap_unordered(sweep, range(blocks), chunksize=16))


def _check_takes(takes: Sequence[int], n: int) -> tuple[int, ...]:
    takes = tuple(takes)
    if len(takes) != n - 1:
        raise ValueError(f"need {n - 1} takes for n={n}, got {len(takes)}")
    for t in takes:
        if t not in TAKE_VALUES:
            raise ValueError(f"bad take {t!r}; must be one of {TAKE_VALUES}")
    return takes


def count_completions_bruteforce(takes: Sequence[int], size: LeagueSize | int) -> int:
    """Weighted completions of one ordered take vector, by full sweep.

    ``takes[k]`` is what the first team takes from opponent k+2; that
    opponent starts on the complementary points.  Every assignment of pair
    codes to the encounters among teams 2..n is visited and those ending
    with all of them exactly on the first team's total contribute the
    product of their code multiplicities.  The first team's own doubling
    and the orderings of ``takes`` are *not* included here.  Leagues above
    n=5 are refused: n=6 would mean 6**10 assignments per vector.
    """
    size = as_league_size(size)
    if size.n > BRUTE_CEILING:
        raise SizeRefusedError(
            f"completion sweep of n={size.n} means 6**{size.rest_matches // 2} "
            f"assignments; the ceiling is n={BRUTE_CEILING}"
        )
    takes = _check_takes(takes, size.n)
    base = tuple(complement(t) for t in takes)
    return completions_sweep(base, sum(takes))
