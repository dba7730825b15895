"""Ground-truth counters by full enumeration, and a plain reference search.

Three oracles live here.  The season sweep tests all ``3**M`` base-3 season
encodings and counts the outcomes with every team level on points.  The
completion sweep tests all pair-code assignments of the matches among the
non-leading teams for one fixed take vector of the first team.  Both
sweeps are deliberately free of the symmetry and pruning arguments used by
the optimised counter, which is exactly what makes them useful as oracles.

"Full enumeration" means every outcome is tested against the tie predicate;
no outcome is skipped, merged with another or derived from a symmetry.
Both sweeps run on one odometer, :func:`_sweep`, over every result outside
the first team's own row.  Each state folds into one integer key
(:func:`_fold_weights`), and one lookup in a table of all the rows, folded
the same way, tests every way of completing that row together:

* Season sweep: the row is team 0's n - 1 home matches (matches 0..n-2),
  and the key folds the gaps p_i - p_0 (i >= 1).  Team i ties with team 0
  exactly when team 0's gain from the row minus team i's gain from its
  match there equals the gap; a hit names the tied level.
* Completion sweep: the row is the pairs (0, 1)..(0, k-1), and the key
  folds what each of the k teams still needs.  The six pair codes hand the
  opponent six different point values, so the needs of teams 1..k-1 pick
  out the one row that can meet them, and team 0's need is a digit too; a
  hit names the row's number of doubled codes.

Each of the ``3**(n-1)`` (or ``6**(k-1)``) completions of a state is thus
tested, just not one at a time.  The tables are built on first use.

The third is :func:`completions_search`, a row-by-row recursive search of
the same completions that only cuts a branch once some team overshoots the
target.  It shares no code with the deficit DP of
:mod:`league_ties.search` and is fast enough to check it on every SEARCH
profile through n = 6, where the completion sweep stops at n = 5.  The
package itself never calls it; it serves the test suite.

The season sweep works in aligned blocks of ``3**min(M, 10)`` encodings:
one block for n <= 3, 9 at n = 4 and 59 049 at n = 5, which workers claim
256 at a time.  Their per-level counts add up to the season's.

Points come from :mod:`league_ties.scoring` alone: the result and pair
tables, and the odometer steps, which are the differences between
consecutive codes (the wrap runs from the last code back to the first).
All values are exact Python integers, so nothing can overflow.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from contextlib import closing
from functools import cache, lru_cache, partial
from itertools import product

from .errors import SizeRefusedError
from .parallel import check_workers, shared_results
from .scoring import (
    PAIR_MULTIPLICITY,
    PAIR_POINTS,
    LeagueSize,
    as_league_size,
    check_takes,
    complement,
    match_order,
    result_points,
)

#: Largest n swept; 3**20 encodings is the desk-scale ceiling.
BRUTE_CEILING = 5

# Most points one side takes from the two matches of a pairing.
_PAIR_TOP = max(a for a, _ in PAIR_POINTS)


# Matches swept inside one block of the season sweep: 3**10 encodings.
_BLOCK_MATCHES = 10


def _season_blocks(n: int) -> int:
    return 3 ** max(n * (n - 1) - _BLOCK_MATCHES, 0)


def _steps(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Column-wise change from each row to the next, the last wrapping to the first."""
    return [tuple(y - x for x, y in zip(a, b)) for a, b in zip(rows, rows[1:] + rows[:1])]


def _fold_weights(bound: int, width: int) -> tuple[int, ...]:
    """Weights that fold ``width`` integer digits into one key: powers of ``bound + 1``.

    Two digit vectors that differ by at most ``bound`` in every place but
    the last fold to different keys: at the lowest place where they differ,
    by ``0 < |d| <= bound``, the keys differ by ``d`` times that place's
    weight plus a multiple of the next, ``bound + 1`` times larger, weight.
    So a state and a row share a key exactly when their digits are equal,
    once ``bound`` covers how far a state's digits can lie from a row's:
    each sweep reads that from the season (or assignment) the two make.
    """
    return tuple((bound + 1) ** i for i in range(width))


def _sweep(moves: list, key: int, aux: int, close: dict, tally: list[int]) -> None:
    """Run one odometer and tally every state whose key closes a row.

    Digit ``i`` starts on 0; stepping it on from value ``r`` adds
    ``moves[i][r]`` to ``(key, aux)``, and its last value wraps to 0 and
    carries into digit ``i + 1``.  Every digit has the same radix.  Each of
    the ``radix ** len(moves)`` states, the first included, looks its key
    up in ``close`` once, and a hit adds 1 to ``tally[hit + aux]``.
    """
    last = max(map(len, moves), default=1) - 1
    digits = [0] * len(moves)
    remaining = (last + 1) ** len(moves)
    while True:
        hit = close.get(key)
        if hit is not None:
            tally[hit + aux] += 1
        remaining -= 1
        if remaining == 0:
            return
        i = 0
        while True:
            d = digits[i]
            dk, da = moves[i][d]
            key += dk
            aux += da
            if d != last:
                digits[i] = d + 1
                break
            digits[i] = 0  # last value -> first, carry
            i += 1


def _gap_bound(n: int) -> int:
    # A state's gaps minus a home row's are the final gaps F_i - F_0 of the
    # season the two make, and every team ends on 0..6(n-1) points.
    return _PAIR_TOP * (n - 1)


@cache
def home_row_table(n: int) -> dict[int, int]:
    """Every home row of team 0, keyed by the gaps that it closes.

    For each of the ``3**(n-1)`` result rows of team 0's home matches, team
    0 gains ``g`` and team i gains ``a_i``; the season ties when each gap
    p_i - p_0 equals ``g - a_i``.  The key folds those gaps (teams 1..n-1)
    with :func:`_fold_weights`, and the value is ``g - (2n - 2)``: team 0's
    points plus the value is the tied level's offset from the lowest level.
    """
    weights = _fold_weights(_gap_bound(n), n - 1)
    table = {}
    for row in product([result_points(r) for r in range(3)], repeat=n - 1):
        gain = sum(home for home, _ in row)
        key = sum((gain - away) * w for (_, away), w in zip(row, weights))
        table[key] = gain - (2 * n - 2)
    return table


def count_tied_block(n: int, block: int) -> tuple[int, ...]:
    """Tied outcomes among the ``3**L`` season encodings of one block, by level.

    Digit ``i`` of an encoding is the result of match ``i`` in the canonical
    home-major order; an outcome is tied when all teams finish equal.  With
    ``M`` matches and ``L = min(M, 10)``, the block's encodings start at
    ``block * 3**L`` and matches L..M-1 take the digits of ``block``.  The
    odometer runs over matches n-1..L-1; team 0's home matches 0..n-2 own
    the lowest digits, so each odometer state stands for ``3**(n-1)``
    consecutive encodings, tested at once by one lookup in
    :func:`home_row_table`.  Entry ``i`` of the result counts the ties at
    level ``2n - 2 + i``, for i = 0..n-1.
    """
    if not 2 <= n <= BRUTE_CEILING:
        raise ValueError(f"season sweep supports 2 <= n <= {BRUTE_CEILING}, got {n}")
    if not 0 <= block < _season_blocks(n):
        raise ValueError(f"bad block {block} for n={n}")
    results = [result_points(r) for r in range(3)]
    gaps = _fold_weights(_gap_bound(n), n - 1)
    weights = (-sum(gaps), *gaps)  # per team: the key is sum(p * w)
    matches = match_order(n)
    outer = matches[n - 1 : _BLOCK_MATCHES]
    # Per odometer match, indexed by its result: how the gap key and team
    # 0's points move when that result steps on.  Team 0 is never at home
    # here, so only an away side can move its points.
    steps = _steps(results)
    moves = [
        [(dh * weights[h] + da * weights[a], da if a == 0 else 0) for dh, da in steps]
        for h, a in outer
    ]
    points = [0] * n
    e = block * 3 ** len(outer)  # the odometer digits start on result 0
    for h, a in matches[n - 1 :]:
        e, r = divmod(e, 3)
        home, away = results[r]
        points[h] += home
        points[a] += away
    key = sum(p * w for p, w in zip(points, weights))
    # A tie's level offset is team 0's points plus the hit.
    ties = [0] * n
    _sweep(moves, key, points[0], home_row_table(n), ties)
    return tuple(ties)


@lru_cache(maxsize=128)  # the bound follows the inputs, so cap the tables kept
def first_row_table(k: int, bound: int) -> dict[int, int]:
    """Every code row of pairs (0, 1)..(0, k-1), keyed by the needs that it meets.

    The key folds, with ``_fold_weights(bound, k)``, the points the row
    hands teams 1..k-1 and then team 0's gain, the digit order of
    :func:`completions_sweep`; the value is the row's number of doubled codes.
    """
    weights = _fold_weights(bound, k)
    table = {}
    for row in product(zip(PAIR_POINTS, PAIR_MULTIPLICITY), repeat=k - 1):
        gain = sum(a for (a, _), _ in row)
        key = gain * weights[-1] + sum(b * w for ((_, b), _), w in zip(row, weights))
        table[key] = sum(mult - 1 for _, mult in row)
    return table


def _completion_teams(base: tuple[int, ...], name: str) -> int:
    """Number of teams in ``base``, refused outside the 1 to 8 both oracles serve."""
    k = len(base)
    if not 1 <= k <= 8:
        raise ValueError(f"completion {name} supports 1 to 8 teams, got {k}")
    return k


def completions_sweep(base: tuple[int, ...], target: int) -> int:
    """Weighted full enumeration over the pair encounters among ``len(base)`` teams.

    ``base[i]`` is team ``i``'s points before any of these encounters.  Every
    one of the ``6**(k*(k-1)/2)`` code assignments is tested (no pruning of
    any kind); an assignment with all teams exactly at ``target`` contributes
    the product of its codes' multiplicities.

    The odometer runs over the pairs among teams 1..k-1.  For each of its
    states one lookup in :func:`first_row_table` tests the ``6**(k-1)`` code
    rows of team 0 together, keyed by what all k teams still need.
    Multiplicities are 1 or 2, so the sweep tallies the assignments that
    tie by their number of doubled codes.
    """
    k = _completion_teams(base, "sweep")
    # A state's needs minus a row's points are each team's final distance
    # from target in the assignment they make, and team i ends on base[i]
    # plus 0..6(k-1) points.  Team 0's need is the last digit: no bound.
    span = _PAIR_TOP * (k - 1)
    bound = max((max(abs(target - p), abs(target - p - span)) for p in base[1:]), default=0)
    folded = _fold_weights(bound, k)
    weights = (folded[-1], *folded[:-1])  # per team, team 0 last
    rows = [(a, b, mult - 1) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)]
    outer = [(i, j) for i in range(1, k) for j in range(i + 1, k)]
    # Per odometer pair, indexed by its code: how the key of the needs and
    # the number of doubled codes move when that code steps on.
    steps = _steps(rows)
    moves = [[(-da * weights[i] - db * weights[j], dd) for da, db, dd in steps] for i, j in outer]
    need = [target - p for p in base]
    first_a, first_b, doubled = rows[0]  # the odometer codes start on code 0
    for i, j in outer:
        need[i] -= first_a
        need[j] -= first_b
    key = sum(p * w for p, w in zip(need, weights))
    by_doubled = [0] * (len(outer) + k)  # 0..k(k-1)/2 doubled codes
    _sweep(moves, key, doubled * len(outer), first_row_table(k, bound), by_doubled)
    return sum(t << d for d, t in enumerate(by_doubled))


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
    k = _completion_teams(base, "search")
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


def count_tied_by_level_bruteforce(
    size: LeagueSize | int, *, workers: int = 1
) -> dict[int, int]:
    """Tied outcomes by level, by sweeping all ``3**M`` season encodings.

    Maps each level P = 2n-2..3n-3 (the points every team finishes on) to
    the number of tied seasons at that level.  Refuses ``n > 5``: the n=6
    sweep would mean 3**25 odometer states, about three days on one core
    at the n=5 rate of 3.6e6 a second.  The sweep is split into aligned
    blocks of ``3**10`` encodings (one block of ``3**M`` when ``M < 10``),
    see :func:`count_tied_block`; block counts combine by addition, so any
    ``workers`` count gives the same tally.  A sweep of one block runs
    in-process; otherwise the workers claim chunks of blocks as the count
    claims its groups (:func:`league_ties.parallel.shared_results`).
    """
    size = as_league_size(size)
    if size.n > BRUTE_CEILING:
        raise SizeRefusedError(
            f"brute-force sweep of n={size.n} means 3**{size.matches} outcomes; "
            f"the ceiling is n={BRUTE_CEILING}"
        )
    check_workers(workers)
    n = size.n
    blocks = _season_blocks(n)
    sweep = partial(count_tied_block, n)
    if workers <= 1 or blocks == 1:
        return _by_level(map(sweep, range(blocks)), n)
    # An n = 5 block is only 729 odometer states; smaller chunks cost
    # more in claims and pipe messages than they balance.
    chunks = [[range(b, min(b + 256, blocks))] for b in range(0, blocks, 256)]
    with closing(shared_results(chunks, workers, partial(_chunk_ties, sweep))) as results:
        return _by_level((ties for _, ties in results), n)


def _chunk_ties(sweep: Callable, chunk: range) -> tuple[range, tuple[int, ...]]:
    """A chunk of blocks and the sum of their per-level counts."""
    return chunk, tuple(map(sum, zip(*map(sweep, chunk))))


def _by_level(per_block: Iterable[tuple[int, ...]], n: int) -> dict[int, int]:
    ties = [0] * n
    for block_ties in per_block:
        for i, t in enumerate(block_ties):
            ties[i] += t
    return {2 * n - 2 + i: t for i, t in enumerate(ties)}


def count_tied_bruteforce(size: LeagueSize | int, *, workers: int = 1) -> int:
    """Count tied outcomes by sweeping all ``3**M`` season encodings.

    The sum over levels of :func:`count_tied_by_level_bruteforce`.
    """
    return sum(count_tied_by_level_bruteforce(size, workers=workers).values())


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
    takes = tuple(takes)
    if len(takes) != size.n - 1:
        raise ValueError(f"need {size.n - 1} takes for n={size.n}, got {len(takes)}")
    check_takes(takes)
    base = tuple(complement(t) for t in takes)
    return completions_sweep(base, sum(takes))
