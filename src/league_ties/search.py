"""Weighted counting of tied completions for one profile.

Once the first team's takes are fixed, every opponent starts on the
complementary points and all matches among teams 2..n remain open.  The
count depends only on how many points each open team still needs, its
*deficit*, and not on which team is which or on the target itself.  So a
profile is counted as the sorted tuple of its opponents' deficits, by a row
DP keyed on that tuple: it enumerates the row of the team with the smallest
deficit, closes it, and recurses on the re-sorted deficits of the rest.
That key is the one the first row of the level target ``(P,) * n`` reaches
through the profile's takes, so the profile layer is that first row.  A
deficit multiset whose sum cannot be handed out by the open encounters (4
to 6 points each) counts zero without search.  One memo can serve every
profile and every target of a league, because the key names no target.
Branch weights double for every code with two home/away realisations.

The last four encounters of a row are not enumerated code by code: they
are read from tail tables, which list every assignment of up to four pair
codes by the points it gives the row owner, sorted by the points it gives
the opponents.  The same 4-to-6-points check, applied to the opponents once
the row closes, gives a window for those points, so the entries outside it
are passed over before any deficit tuple is built; the memo and its key are
unchanged.  Every row of a key with five or more teams ends in a tail of
four encounters, and nearly all the counting time goes there, so that width
has its own pass with the four deficits and takes unpacked: after the
window, an entry is dropped when any take exceeds its opponent's deficit,
and only then is the key built.  The rows of four-team keys end in a tail
of three, which has a pass of the same shape.  Rows of two and three teams
end in tails of width 1 and 2; they share one generic pass that lists the
deficits left, sorted, and drops the entry when the smallest is negative.
The deficits kept from earlier in the row are never negative, so every pass
drops exactly the entries with a take that does not fit.  The sorted
deficits left are the key, looked up once; a miss is counted and stored
without a second lookup.

The tables of widths 0 to 3 are built at import.  The width-4 table, about
nine times larger (4 803 entries), is built from the width-3 one by the
same one-code step when the first key of five or more teams is counted, so
an import, ``count_tied`` of five teams or fewer and the brute-force
oracles never pay for it.  Its entries are stored flat, as (opponents'
total, four takes, weight), and an entry that several patterns list alike
is one tuple.

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

from operator import sub

from .profiles import Profile
from .scoring import PAIR_MULTIPLICITY, PAIR_POINTS, complement

#: (points to the row owner, points to the opponent, multiplicity) per pair
#: code, in ascending order of the owner's points.
_CODES = tuple(
    (a, b, mult) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)
)

#: Widest row end closed from a table instead of code by code; the tail
#: passes of :func:`_row` for this width and the one below are written out.
_TAIL_WIDTH = 4

#: A tail table: per owner's need, (opponents' total, takes, weight) entries.
_Table = tuple[tuple[tuple[int, tuple[int, ...], int], ...], ...]

#: A width-4 tail table, stored flat: per owner's need, (opponents' total,
#: k0, k1, k2, k3, weight) entries.
_FlatTable = tuple[tuple[tuple[int, ...], ...], ...]


def _extend(
    previous: tuple[_Table, ...], width: int, *, flat: bool = False
) -> tuple[_Table, ...] | tuple[_FlatTable, ...]:
    """Every assignment of ``width`` codes, per pattern, from those of one code fewer.

    The result's ``[pattern][k]`` lists the assignments of ``width`` codes
    worth ``k`` points to the row owner as (points to the opponents in
    total, points to each opponent, weight), in ascending order; with
    ``flat`` the points to each opponent are spread into the entry.  Bit
    ``i`` of ``pattern`` is set when tail opponents ``i`` and ``i + 1`` have
    equal deficits; within each such run only the non-decreasing ordering
    of the takes is kept.  Each entry of ``previous`` (the tables of
    ``width - 1`` codes) gets one more code, the run the new code joins is
    sorted, and the weights of the orderings that land on the same entry
    are summed, so a weight is the sum of the code multiplicities' products
    over the orderings it stands for.  Pattern 0 keeps every assignment
    with the product as its weight.
    """
    folded = []
    shared: dict[tuple, tuple] = {}
    for pattern in range(1 << (width - 1)):
        start = width - 1  # the run the new code joins starts here
        while start and pattern >> (start - 1) & 1:
            start -= 1
        merged = [{} for _ in range(6 * width + 1)]
        # The pattern of the first width - 1 opponents is the low bits.
        for need, entries in enumerate(previous[pattern % len(previous)]):
            for taken, takes, weight in entries:
                head, run = takes[:start], takes[start:]
                for a, b, mult in _CODES:
                    # A code that starts a run of its own needs no sort.
                    key = taken + b, head + tuple(sorted((*run, b))) if run else takes + (b,)
                    weights = merged[need + a]
                    weights[key] = weights.get(key, 0) + weight * mult
        table = []
        for weights in merged:
            kept = []
            for (taken, takes), w in sorted(weights.items()):
                entry = (taken, *takes, w) if flat else (taken, takes, w)
                # An entry whose runs each repeat one take stands for one
                # ordering, so other patterns list it alike: keep one tuple.
                kept.append(shared.setdefault(entry, entry))
            table.append(tuple(kept))
        folded.append(tuple(table))
    return tuple(folded)


def _tail_tables() -> tuple[tuple[_Table, ...], ...]:
    """The tail tables of widths 0 to ``_TAIL_WIDTH - 1``, one code at a time."""
    tables = [((((0, (), 1),),),)]
    for width in range(1, _TAIL_WIDTH):
        tables.append(_extend(tables[-1], width))
    return tuple(tables)


#: ``_TAILS[w][pattern][k]``: the tail table of width ``w`` < 4 for an owner
#: needing ``k``, folded over the equal-deficit runs that ``pattern`` marks
#: (see :func:`_extend`); pattern 0 is the unfolded table.
_TAILS = _tail_tables()

#: The width-4 tables, flat, indexed like ``_TAILS[4]`` would be; ``None``
#: until :func:`_tails4` first builds them.
_TAILS4: tuple[_FlatTable, ...] | None = None


def _tails4() -> tuple[_FlatTable, ...]:
    """The width-4 tail tables, extended from ``_TAILS[3]`` on the first call."""
    global _TAILS4
    if _TAILS4 is None:
        _TAILS4 = _extend(_TAILS[3], 4, flat=True)
    return _TAILS4


def count_completions(
    profile: Profile,
    *,
    memo: dict[tuple[int, ...], int] | None = None,
) -> int:
    """Weighted number of tied completions of one whole profile.

    Matches the full-sweep oracle on every input.  The profile is counted
    as the sorted tuple of its opponents' deficits, the key that the first
    row of ``(P,) * n`` reaches through these takes.  ``memo`` maps sorted
    deficit tuples to their completion counts; pass one dict to every call
    of a league to share it across profiles and targets (by default each
    call starts empty).
    """
    # Each opponent starts on the complement of what the first team took
    # from it, and must end on the first team's total.
    taken = profile.taken
    deficits = tuple(sorted([taken - complement(t) for t in profile.takes]))
    # A negative need would index the tail tables from the end.
    if deficits[0] < 0:
        return 0
    return _solve(deficits, {} if memo is None else memo)


def _row(
    deficits: tuple[int, ...],
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

    The deficits are sorted, so the tail table is the one folded for the
    pattern of equal neighbouring deficits among the tail opponents (see
    :func:`_extend`).  The width-4 pass, which every row of five or more
    teams ends in, checks each entry in this order: the window on the
    opponents' total, then each take against its own deficit, then the key,
    built only for an entry that passes both.  Its table is built by
    :func:`_tails4` when the pass first runs.  The width-3 pass, which ends
    the rows of four-team keys, does the same over ``_TAILS[3]``.  Widths 1
    and 2 end only the rows of two- and three-team keys, a few percent of
    the tail passes, and keep a generic pass: after the window, the entry
    sorts the deficits left and is dropped when the smallest is negative.
    ``rest`` never holds a negative deficit, so only a take above its tail
    deficit can leave one, and every pass drops the same entries.  A key is
    read from ``memo`` once, and a miss goes straight to :func:`_fill`.
    """
    width = len(deficits) - j
    if need > 6 * width:
        return 0
    if width == 4:
        t0, t1, t2, t3 = deficits[j:]
        pattern = (t0 == t1) | ((t1 == t2) << 1) | ((t2 == t3) << 2)
        get = memo.get
        total = 0
        for taken, k0, k1, k2, k3, mult in (_TAILS4 or _tails4())[pattern][need]:
            if taken < lo:
                continue
            if taken > hi:
                break
            # The window already rules out k3 > t3: t3 is the largest
            # deficit, so the teams left could not reach their 4 points
            # per encounter.  Testing it keeps the fit check whole.
            if k0 > t0 or k1 > t1 or k2 > t2 or k3 > t3:
                continue
            left = [*rest, t0 - k0, t1 - k1, t2 - k2, t3 - k3]
            left.sort()
            key = tuple(left)
            count = get(key)
            if count is None:
                count = _fill(key, memo)
            total += mult * count
        return total
    if width == 3:
        t0, t1, t2 = deficits[j:]
        get = memo.get
        total = 0
        for taken, (k0, k1, k2), mult in _TAILS[3][(t0 == t1) | ((t1 == t2) << 1)][need]:
            if taken < lo:
                continue
            if taken > hi:
                break
            # As above, the window already rules out k2 > t2.
            if k0 > t0 or k1 > t1 or k2 > t2:
                continue
            left = [*rest, t0 - k0, t1 - k1, t2 - k2]
            left.sort()
            key = tuple(left)
            count = get(key)
            if count is None:
                count = _fill(key, memo)
            total += mult * count
        return total
    if width < 3:
        tail = deficits[j:]
        pattern = width == 2 and tail[0] == tail[1]
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
    # Once the first row closes, the other teams must meet what is left of
    # their deficits among themselves, 4 to 6 points per encounter: bounds
    # on what they may take from that row in total.
    m = len(deficits) - 1
    pairs = m * (m - 1) // 2
    owed = sum(deficits) - deficits[0]
    total = memo[deficits] = _row(
        deficits, 1, deficits[0], [], owed - 6 * pairs, owed - 4 * pairs, memo
    )
    return total


def split_prefixes(profile: Profile, length: int) -> list[tuple[int, ...]]:
    """All prefixes of ``length`` codes for a row against this profile's other teams."""
    width = profile.n - 2
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} out of range for n={profile.n}")
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(length):
        prefixes = [p + (d,) for p in prefixes for d in range(6)]
    return prefixes
