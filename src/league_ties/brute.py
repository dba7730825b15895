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
final level.  The odometer therefore takes ``3**(M-1)`` or ``6**(P-1)``
steps for ``M`` matches or ``P`` pairs.

The third is :func:`completions_search`, a row-by-row recursive search of
the same completions that only cuts a branch once some team overshoots the
target.  It shares no code with the deficit DP of
:mod:`league_ties.search` and is fast enough to check it on every SEARCH
profile through n = 6, where the completion sweep stops at n = 5.  The
package itself never calls it; it serves the test suite.

All values are exact Python integers, so nothing can overflow.  The sweep
loops avoid attribute lookups and update their bookkeeping incrementally
instead of re-deriving it per step.
"""

from __future__ import annotations

from collections.abc import Sequence
from multiprocessing import Pool

from .errors import SizeRefusedError
from .scoring import (
    LeagueSize,
    TAKE_VALUES,
    as_league_size,
    complement,
    match_order,
    result_points,
)

#: Largest n swept by default; 3**20 encodings is the desk-scale ceiling.
BRUTE_CEILING = 5

#: Default number of encodings per work chunk.
DEFAULT_CHUNK = 3**10

# Points of pair code c for the two sides, and the code's multiplicity.
_PAIR_A = (0, 1, 2, 3, 4, 6)
_PAIR_B = (6, 4, 2, 3, 1, 0)
_PAIR_MULT = (1, 2, 1, 2, 2, 1)

# Odometer deltas for bumping a pair code c -> c+1 (c = 0..4).
_STEP_A = (1, 1, 1, 1, 2)
_STEP_B = (-2, -2, 1, -2, -1)
_STEP_DBL = (1, -1, 1, 0, -1)  # change in the number of doubled digits

# Home and away points of match result r (0 away win, 1 draw, 2 home win).
_HOME = (0, 1, 3)
_AWAY = (3, 1, 0)


def _tied_result(points: list[int], close: dict[int, tuple[int, int, int]]) -> int | None:
    """The result of match 0 that ties the season, or None if none does."""
    hit = close.get(points[1] - points[0])
    if hit is not None and points.count(points[0] + hit[1]) == hit[2]:
        return hit[0]
    return None


def count_tied_range(n: int, start: int, stop: int) -> int:
    """Tied outcomes among base-3 season encodings in [start, stop).

    Digit ``i`` of an encoding is the result of match ``i`` in the canonical
    home-major order; an outcome is tied when all teams finish equal.

    The odometer runs over matches 1..M-1; match 0 (team 0 at home to team
    1) owns the lowest digit, so each odometer state stands for the three
    consecutive encodings ``3*q``, ``3*q + 1`` and ``3*q + 2``.  All three
    are tested at once: a result ties the season when it brings teams 0 and
    1 level with each other and with every other team.  Whole groups are
    counted in the loop; the results of the first and last group that fall
    outside [start, stop) are taken off afterwards.
    """
    if not 2 <= n <= 9:
        raise ValueError(f"season sweep supports 2 <= n <= 9, got {n}")
    matches = [(h, a) for h in range(n) for a in range(n) if a != h]
    m = len(matches)
    space = 3**m
    if not 0 <= start <= stop <= space:
        raise ValueError(f"bad encoding range [{start}, {stop}) for n={n}")
    if start == stop:
        return 0

    first, lo = divmod(start, 3)  # results below lo precede start
    last, hi = divmod(stop - 1, 3)  # results above hi reach stop
    outer = matches[1:]
    digits = [0] * (m - 1)
    points = [0] * n
    e = first
    for i in range(m - 1):
        e, r = divmod(e, 3)
        digits[i] = r
        h, a = outer[i]
        points[h] += _HOME[r]
        points[a] += _AWAY[r]

    # Keyed by team 1's points minus team 0's before match 0: the one result
    # r that levels the two (home minus away points is -3, 0 or 3, so at
    # most one can), team 0's points from it, and how many teams sit on the
    # final level before match 0 when the season ties: the n - 2 others plus
    # whichever of teams 0 and 1 takes nothing from match 0 (none on a draw).
    close = {
        home - away: (r, home, n - 2 + (home == 0 or away == 0))
        for r, (home, away) in enumerate(zip(_HOME, _AWAY))
    }
    r = _tied_result(points, close)
    count = -1 if r is not None and r < lo else 0
    remaining = last - first + 1
    while True:
        hit = close.get(points[1] - points[0])  # _tied_result, inlined
        if hit is not None and points.count(points[0] + hit[1]) == hit[2]:
            count += 1
        remaining -= 1
        if remaining == 0:
            break
        i = 0
        while True:
            h, a = outer[i]
            r = digits[i]
            if r == 0:  # away win -> draw
                digits[i] = 1
                points[h] += 1
                points[a] -= 2
                break
            if r == 1:  # draw -> home win
                digits[i] = 2
                points[h] += 2
                points[a] -= 1
                break
            digits[i] = 0  # home win -> away win, carry
            points[h] -= 3
            points[a] += 3
            i += 1
    r = _tied_result(points, close)
    if r is not None and r > hi:
        count -= 1
    return count


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
        target - a: (target - b, mult, k - 2 + (a == 0 or b == 0))
        for a, b, mult in zip(_PAIR_A, _PAIR_B, _PAIR_MULT)
    }
    outer = pairs[1:]
    codes = [0] * (m - 1)
    for _, j in outer:  # code 0 gives (0, 6)
        points[j] += 6
    doubled = 0
    count = 0
    remaining = 6 ** (m - 1)
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
            if c == 5:  # wrap (6,0) -> (0,6), carry; multiplicity unchanged
                codes[idx] = 0
                points[i] -= 6
                points[j] += 6
                idx += 1
            else:
                codes[idx] = c + 1
                points[i] += _STEP_A[c]
                points[j] += _STEP_B[c]
                doubled += _STEP_DBL[c]
                break


def completions_search(
    base: tuple[int, ...],
    target: int,
    prefix: tuple[int, ...] = (),
) -> int:
    """Weighted completion count by row-wise recursive search.

    Teams are indexed 0..k-1 (k = ``len(base)``); team ``i``'s row assigns
    pair codes against teams i+1..k-1 in order.  Once a team's row is
    complete its total is final and must equal ``target`` exactly, and the
    very last team is checked after the last row.  Each doubled code met
    along the way multiplies the branch weight by 2.  A branch is abandoned
    as soon as either side of a freshly assigned code exceeds ``target``
    (points never decrease, so this is sound).

    ``prefix`` fixes the first codes of team 0's row (against teams 1, 2,
    ...), so summing over all prefixes of one length partitions the count.
    """
    k = len(base)
    if k > 8:
        raise ValueError(f"completion search supports at most 8 teams, got {k}")
    if len(prefix) > max(k - 1, 0):
        raise ValueError(f"prefix of {len(prefix)} codes exceeds the first row")
    if any(not 0 <= c <= 5 for c in prefix):
        raise ValueError(f"prefix codes must be 0..5, got {prefix}")
    points = list(base)
    if k == 1:
        return 1 if points[0] == target else 0

    weight = 1
    for d, code in enumerate(prefix):
        points[0] += _PAIR_A[code]
        points[d + 1] += _PAIR_B[code]
        if _PAIR_MULT[code] == 2:
            weight <<= 1
        if points[0] > target or points[d + 1] > target:
            return 0
    return _search_row(points, target, 0, 1 + len(prefix), weight)


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
    for code in range(6):
        na = pi + _PAIR_A[code]
        nb = pj + _PAIR_B[code]
        if na > target or nb > target:
            continue
        points[i] = na
        points[j] = nb
        mult = _PAIR_MULT[code]
        total += _search_row(points, target, i, j + 1, w << 1 if mult == 2 else w)
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


def _count_range_task(args: tuple[int, int, int]) -> int:
    n, start, stop = args
    return count_tied_range(n, start, stop)


def count_tied_bruteforce(
    size: LeagueSize | int,
    *,
    allow_large: bool = False,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> int:
    """Count tied outcomes by sweeping all ``3**M`` season encodings.

    Refuses ``n > 5`` unless ``allow_large`` is set: the n=5 sweep already
    tests ~3.5e9 encodings and every further team multiplies the space by
    ``3**(2n)``.  The sweep is split into contiguous ranges of ``chunk``
    encodings; partial counts combine by addition, so any ``workers`` count
    gives the same total.  A sweep of one range runs in-process, and a pool
    never starts more workers than there are ranges.
    """
    size = as_league_size(size)
    if size.n > BRUTE_CEILING and not allow_large:
        raise SizeRefusedError(
            f"brute-force sweep of n={size.n} means 3**{size.matches} outcomes; "
            f"the default ceiling is n={BRUTE_CEILING} (pass allow_large to override)"
        )
    if chunk < 1:
        raise ValueError("chunk must be positive")
    space = 3**size.matches
    ranges = [(size.n, s, min(s + chunk, space)) for s in range(0, space, chunk)]
    if workers <= 1 or len(ranges) == 1:
        return sum(_count_range_task(r) for r in ranges)
    with Pool(min(workers, len(ranges))) as pool:
        return sum(pool.imap_unordered(_count_range_task, ranges, chunksize=16))


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
