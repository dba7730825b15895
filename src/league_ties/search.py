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
is built; the memo and its key are unchanged.  An entry inside the window
lists the deficits left, sorted, and is dropped when the smallest is
negative: the deficits kept from earlier in the row are never negative, so
that sign is the check that each take fits under its opponent's deficit.
The sorted list is the key, looked up once; a miss is counted and stored
without a second lookup.

Tail opponents with equal deficits are interchangeable: swapping their codes
changes none of the owner's points, the opponents' total, the fit of each
take under its deficit or the sorted deficits left.  So each tail table is
kept once per pattern of equal neighbouring deficits, and within each run of
equal deficits it lists one ordering per multiset of codes.  The tables are
built by adding one code at a time and merging the orderings that sort to
the same entry, so each weight is the sum of the weights of the orderings it
stands for.  A row looks up each key once instead of once per ordering; the
memo gains no key and loses none.

The test suite checks this DP against :func:`league_ties.brute.completions_search`,
a plain recursive row search that shares no code with it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from operator import sub

from .profiles import Profile
from .scoring import PAIR_MULTIPLICITY, PAIR_POINTS, complement

#: (points to the row owner, points to the opponent, multiplicity) per pair
#: code, in ascending order of the owner's points.
_CODES = tuple(
    (a, b, mult) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)
)

#: Widest row end closed from a table instead of code by code.
_TAIL_WIDTH = 3

#: A tail table: per owner's need, (opponents' total, takes, weight) entries.
_Table = tuple[tuple[tuple[int, tuple[int, ...], int], ...], ...]


def _tail_tables() -> tuple[tuple[_Table, ...], ...]:
    """Every assignment of up to ``_TAIL_WIDTH`` codes, per width and pattern.

    ``_TAILS[w][pattern][k]`` lists the assignments of ``w`` codes worth
    ``k`` points to the row owner as (points to the opponents in total,
    points to each opponent, weight), in ascending order.  Bit ``i`` of
    ``pattern`` is set when tail opponents ``i`` and ``i + 1`` have equal
    deficits; within each such run only the non-decreasing ordering of the
    takes is kept.  Each width extends the table of the one before by one
    code, sorts the run the new code joins and sums the weights of the
    orderings that land on the same entry, so a weight is the sum of the
    code multiplicities' products over the orderings it stands for.
    Pattern 0 keeps every assignment with the product as its weight.
    """
    tables = [((((0, (), 1),),),)]
    for width in range(1, _TAIL_WIDTH + 1):
        folded = []
        for pattern in range(1 << (width - 1)):
            start = width - 1  # the run the new code joins starts here
            while start and pattern >> (start - 1) & 1:
                start -= 1
            merged = [Counter() for _ in range(6 * width + 1)]
            # The pattern of the first width - 1 opponents is the low bits.
            previous = tables[-1][pattern % len(tables[-1])]
            for need, entries in enumerate(previous):
                for taken, takes, weight in entries:
                    run = takes[start:]
                    for a, b, mult in _CODES:
                        key = taken + b, takes[:start] + tuple(sorted((*run, b)))
                        merged[need + a][key] += weight * mult
            folded.append(
                tuple(tuple((*key, w) for key, w in sorted(m.items())) for m in merged)
            )
        tables.append(tuple(folded))
    return tuple(tables)


#: ``_TAILS[w][pattern][k]``: the tail table of width ``w`` for an owner
#: needing ``k``, folded over the equal-deficit runs that ``pattern`` marks
#: (see :func:`_tail_tables`); pattern 0 is the unfolded table.
_TAILS = _tail_tables()


def count_completions(
    profile: Profile,
    *,
    memo: dict[tuple[int, ...], int] | None = None,
) -> int:
    """Weighted number of tied completions of one whole profile.

    Matches the full-sweep oracle on every input.  Team 2's row is
    enumerated against the profile's own deficits; every later row comes
    from the memoised DP.  ``memo`` maps sorted deficit tuples to their
    completion counts; pass one dict to every call of a league to share it
    across profiles and targets (by default each call starts empty).
    """
    # Each opponent starts on the complement of what the first team took
    # from it, and must end on the first team's total.
    deficits = [profile.taken - complement(t) for t in profile.takes]
    if deficits[0] < 0:
        return 0
    if memo is None:
        memo = {}
    lo, hi = _window(deficits)
    return _row(deficits, 1, deficits[0], [], lo, hi, memo)


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

    The tail table is the one folded for the pattern of equal neighbouring
    deficits among the tail opponents (see :func:`_tail_tables`).  The pattern
    only compares values, so a tail whose equal deficits sit apart would
    merely fold less.  Neither caller passes one: :func:`_solve` passes
    sorted deficits, and :func:`count_completions` those of a profile's
    weakly descending takes, which are equal only where the takes are.
    The window cut comes before any key is built.  Inside it, each entry
    sorts the deficits left and is dropped when the smallest is negative:
    ``rest`` never holds a negative deficit, so only a take above its tail
    deficit can leave one.  A key is read from ``memo`` once, and a miss
    goes straight to :func:`_fill`.  Only at two teams does a row have no
    encounters: team 2's, met one way once the check on ``need`` has
    passed.
    """
    width = len(deficits) - j
    if need > 6 * width:
        return 0
    if not width:
        return 1  # two teams, and team 2 needs nothing more
    if width <= _TAIL_WIDTH:
        tail = deficits[j:]
        # Widths above 3 would leave the higher bits clear and only fold less.
        pattern = 0
        if width > 1:
            pattern = tail[0] == tail[1]
            if width > 2:
                pattern |= (tail[1] == tail[2]) << 1
        get = memo.get
        total = 0
        for taken, takes, mult in _TAILS[width][pattern][need]:
            if taken < lo:
                continue
            if taken > hi:
                break
            left = [*rest, *map(sub, tail, takes)]
            left.sort()
            if left[0] < 0:
                continue
            key = tuple(left)
            count = get(key)
            if count is None:
                count = _fill(key, memo)
            total += mult * count
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
    """Weighted ways for teams with these (sorted) deficits to meet them exactly.

    For direct calls: one lookup, then the check that the open encounters
    can hand out the deficits' sum.  The tail pass of :func:`_row` does not
    come here, because its window cut is that check.
    """
    total = memo.get(deficits)
    if total is None:
        m = len(deficits)
        pairs = m * (m - 1) // 2
        if not 4 * pairs <= sum(deficits) <= 6 * pairs:
            return 0
        total = _fill(deficits, memo)
    return total


def _fill(deficits: tuple[int, ...], memo: dict[tuple[int, ...], int]) -> int:
    """Count sorted deficits missing from ``memo``, and store the count.

    The caller has checked that the open encounters can hand out the
    deficits' sum.  Fewer than two teams have no row and are not stored:
    that check leaves them only ``()`` and ``(0,)``, each met one way.
    """
    if len(deficits) < 2:
        return 1
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
