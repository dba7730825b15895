"""Weighted counting of tied completions for one profile.

Once the first team's takes are fixed, every opponent starts on the
complementary points and all matches among teams 2..n remain open.  Team
2's row (one pair code per encounter with a higher-indexed team) is
enumerated code by code; a code that pushes either side past the target is
skipped, and the row survives only if team 2 lands exactly on the target.

From then on the count depends only on how many points each open team still
needs, its *deficit*, and not on which team is which or on the target
itself.  So the remaining teams are counted by a row DP keyed on the sorted
tuple of their deficits: it enumerates the row of the team with the
smallest deficit, closes it, and recurses on the re-sorted deficits of the
rest.  A deficit multiset whose sum cannot be handed out by the open
encounters (4 to 6 points each) counts zero without search.  One memo can
serve every profile and every target of a league, because the key names
no target.  Branch weights double for every code with two home/away
realisations.

The last three encounters of a row are not enumerated code by code: they
are read from tail tables built once at import, which list every
assignment of up to three pair codes by the points it gives the row owner,
sorted by the points it gives the opponents.  The same 4-to-6-points check,
applied to the opponents once the row closes, gives a window for those
points, so the entries outside it are passed over before any deficit tuple
is built; the memo and its key are unchanged.

The test suite checks this DP against :func:`league_ties.brute.completions_search`,
a plain recursive row search that shares no code with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import prod
from operator import gt, sub

from .profiles import Profile
from .scoring import PAIR_MULTIPLICITY, PAIR_POINTS, complement

#: (points to the row owner, points to the opponent, multiplicity) per pair
#: code, in ascending order of the owner's points.
_CODES = tuple(
    (a, b, mult) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)
)

#: Widest row end closed from a table instead of code by code.
_TAIL_WIDTH = 3


def _tail_table(width: int) -> tuple[tuple[tuple[int, tuple[int, ...], int], ...], ...]:
    """Every assignment of ``width`` pair codes, grouped by the owner's points.

    Entry ``k`` lists the assignments worth ``k`` points to the row owner as
    (points to the opponents in total, points to each opponent, weight),
    in ascending order of the total.
    """
    by_need: list[list[tuple[int, tuple[int, ...], int]]] = [
        [] for _ in range(6 * width + 1)
    ]
    for codes in product(_CODES, repeat=width):
        takes = tuple(b for _, b, _ in codes)
        by_need[sum(a for a, _, _ in codes)].append(
            (sum(takes), takes, prod(mult for _, _, mult in codes))
        )
    return tuple(tuple(sorted(entries)) for entries in by_need)


#: ``_TAILS[w][k]``: the tail table of width ``w`` for an owner needing ``k``.
_TAILS = tuple(_tail_table(w) for w in range(_TAIL_WIDTH + 1))


def count_completions(
    profile: Profile,
    *,
    prefix: tuple[int, ...] = (),
    memo: dict[tuple[int, ...], int] | None = None,
) -> int:
    """Weighted number of tied completions of one profile.

    Matches the full-sweep oracle on every input.  ``prefix`` pins the first
    codes of team 2's row so one profile can be split into disjoint
    sub-searches whose results add up to the whole.  ``memo`` maps sorted
    deficit tuples to their completion counts; pass one dict to every call
    of a league to share it across profiles and targets (by default each
    call starts empty).
    """
    prefix = tuple(prefix)
    if len(prefix) > max(len(profile.takes) - 1, 0):
        raise ValueError(f"prefix of {len(prefix)} codes exceeds the first row")
    if any(not 0 <= c <= 5 for c in prefix):
        raise ValueError(f"prefix codes must be 0..5, got {prefix}")

    # Each opponent starts on the complement of what the first team took
    # from it, and must end on the first team's total.
    deficits = [profile.taken - complement(t) for t in profile.takes]
    need = deficits[0]
    weight = 1
    for j, code in enumerate(prefix, start=1):
        a, b, mult = _CODES[code]
        need -= a
        deficits[j] -= b
        weight *= mult
    first = 1 + len(prefix)
    if need < 0 or any(d < 0 for d in deficits[1:first]):
        return 0
    if memo is None:
        memo = {}
    lo, hi = _window(deficits)
    return weight * _row(deficits, first, need, deficits[1:first], lo, hi, memo)


def _window(deficits: Sequence[int]) -> tuple[int, int]:
    """Bounds on what the opponents may take in total from the row of ``deficits[0]``.

    Once the row closes, the opponents must meet what is left of their
    deficits among themselves, 4 to 6 points per encounter.
    """
    m = len(deficits) - 1
    pairs = m * (m - 1) // 2
    owed = sum(deficits) - deficits[0]
    return owed - 6 * pairs, owed - 4 * pairs


def _row(
    deficits: Sequence[int],
    j: int,
    need: int,
    rest: list[int],
    lo: int,
    hi: int,
    memo: dict[tuple[int, ...], int],
) -> int:
    """Completions of the open row of ``deficits[0]`` from opponent ``j`` on.

    ``need`` is what the row owner still needs from opponents ``j..``, and
    ``rest`` holds the deficits that opponents ``1..j-1`` keep once the row
    closes.  The opponents ``j..`` must take between ``lo`` and ``hi``
    points from the row in total.  The last ``_TAIL_WIDTH`` encounters are
    closed in one pass over their tail table.  Deliberately a module-level
    function: a nested recursive closure would leave a reference cycle
    behind on every call.
    """
    width = len(deficits) - j
    if need > 6 * width:
        return 0
    if width <= _TAIL_WIDTH:
        tail = deficits[j:]
        total = 0
        for taken, takes, mult in _TAILS[width][need]:
            if taken < lo:
                continue
            if taken > hi:
                break
            if any(map(gt, takes, tail)):
                continue
            left = rest + list(map(sub, tail, takes))
            left.sort()
            total += mult * _solve(tuple(left), memo)
        return total
    dj = deficits[j]
    total = 0
    for a, b, mult in _CODES:
        if a > need:
            break
        if b <= dj:
            rest.append(dj - b)
            total += mult * _row(deficits, j + 1, need - a, rest, lo - b, hi - b, memo)
            rest.pop()
    return total


def _solve(deficits: tuple[int, ...], memo: dict[tuple[int, ...], int]) -> int:
    """Weighted ways for teams with these (sorted) deficits to meet them exactly."""
    m = len(deficits)
    if m < 2:
        return 1 if m == 0 or deficits[0] == 0 else 0
    total = memo.get(deficits)
    if total is None:
        # Rows closed from a tail table already passed this check as their
        # window; only a direct call can fail it.
        pairs = m * (m - 1) // 2
        if not 4 * pairs <= sum(deficits) <= 6 * pairs:
            return 0
        lo, hi = _window(deficits)
        total = memo[deficits] = _row(deficits, 1, deficits[0], [], lo, hi, memo)
    return total


def split_prefixes(profile: Profile, length: int) -> list[tuple[int, ...]]:
    """All prefixes of ``length`` codes for team 2's row of this profile."""
    width = profile.n - 2
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} out of range for n={profile.n}")
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(length):
        prefixes = [p + (d,) for p in prefixes for d in range(6)]
    return prefixes
