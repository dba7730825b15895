"""Weighted counting of tied completions for one profile.

Once the first team's takes are fixed, every opponent starts on the
complementary points and all matches among teams 2..n remain open.  The
count depends only on how many points each open team still needs, its
*deficit*, and not on which team is which or on the target itself.  So a
profile is counted as the multiset of its opponents' deficits, by a row DP
keyed on that multiset: it enumerates the row of the team with the smallest
deficit, closes it, and recurses on the re-sorted deficits of the rest.
That key is the one the first row of the level target ``(P,) * n`` reaches
through the profile's takes, so the profile layer is that first row.  A
deficit multiset whose sum cannot be handed out by the open encounters (4
to 6 points each) counts zero without search.  One memo can serve every
profile and every target of a league, because the key names no target.
Branch weights double for every code with two home/away realisations.

The memo maps a multiset's *code*, ``sum(_POW[d] for d in deficits)`` with
``_POW[d] = 1 << 4 * d``, to its count: each deficit value owns a 4-bit
count of the teams that need it.  A row builds each key it reaches by
addition, and sorts the deficits only on a miss, to open the next row.  The
code names the multiset exactly while no value repeats 16 times, so
:func:`_solve` refuses a key of more than 15 teams; it returns 0 for a
deficit below 0 or above 6(m - 1), which no team can meet, so every index
into ``_POW`` is in 0..84 and none wraps from the end.  Keys of three teams
or fewer are never stored: ``_SMALL`` gives, by code, the count of each of
the 46 such keys that has one, built at import from the pair codes.

The last four encounters of a row are not enumerated code by code: they
are read from tail tables, which list every assignment of up to four pair
codes by the points it gives the row owner, sorted by the points it gives
the opponents.  The same 4-to-6-points check, applied to the opponents once
the row closes, gives a window for those points, so the entries outside it
are passed over before any key is built; the memo and its key are
unchanged.  Every row of a key with five or more teams ends in a tail of
four encounters, and nearly all the counting time goes there, so that width
has its own pass with the four deficits and takes unpacked: after the
window, an entry is dropped when any take exceeds its opponent's deficit,
and only then is the key's code added up and looked up once; a miss is
counted and stored without a second lookup.  The rows of four-team keys end
in a tail of three, which has a pass of the same shape and reads the three
teams left from ``_SMALL``.  The deficits kept from earlier in the row are
never negative, so every pass drops exactly the entries with a take that
does not fit, and no code it builds has a negative index.

Every entry is stored flat, as (opponents' total, one take per opponent,
weight), and an entry that several patterns list alike is one tuple.  The
width-3 table is built at import, one code at a time from the empty tail.
The width-4 table, about nine times larger (4 803 entries), is built from
it by the same one-code step when the first key of five or more teams is
counted, so an import, ``count_tied`` of five teams or fewer and the
brute-force oracles never pay for it.

Tail opponents with equal deficits are interchangeable: swapping their codes
changes none of the owner's points, the opponents' total, the fit of each
take under its deficit or the deficits left.  So each tail table is kept
once per pattern of equal neighbouring deficits, and within each run of
equal deficits it lists one ordering per multiset of codes.  The tables are
built by adding one code at a time and merging the orderings that sort to
the same entry, so each weight is the sum of the weights of the orderings it
stands for.  A row looks up each key once instead of once per ordering; the
memo gains no key and loses none.

The test suite checks this DP against :func:`league_ties.brute.completions_search`,
a plain recursive row search that shares no code with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, product

from .profiles import Profile
from .scoring import PAIR_MULTIPLICITY, PAIR_POINTS, complement

#: (points to the row owner, points to the opponent, multiplicity) per pair
#: code, in ascending order of the owner's points.
_CODES = tuple(
    (a, b, mult) for (a, b), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY)
)

#: Most teams a memo key may have: the code keeps 4 bits per deficit value.
_KEY_TEAMS_MAX = 15

#: ``_POW[d]`` is what one deficit ``d`` adds to a key's code, for every
#: deficit a key of ``_KEY_TEAMS_MAX`` teams can meet.
_POW = tuple(1 << 4 * d for d in range(6 * (_KEY_TEAMS_MAX - 1) + 1))


def _small_counts() -> dict[int, int]:
    """Count of every key of three teams or fewer, by code, where it is not 0.

    Each assignment of a pair code to every pair of ``m`` teams is counted
    under the key of the points it gives them, and only when those points
    are sorted: that is the one labelling the key's count is defined by.
    """
    counts: dict[int, int] = {}
    for m in range(4):
        pairs = list(combinations(range(m), 2))
        for codes in product(_CODES, repeat=len(pairs)):
            points = [0] * m
            weight = 1
            for (i, j), (a, b, mult) in zip(pairs, codes):
                points[i] += a
                points[j] += b
                weight *= mult
            if points == sorted(points):
                code = sum(_POW[d] for d in points)
                counts[code] = counts.get(code, 0) + weight
    return counts


#: The count of each of the 46 keys of at most three teams that has one:
#: ``()`` and ``(0,)``, 4 of two teams and 40 of three, by code.
_SMALL = _small_counts()

#: A tail table: per pattern, per owner's need, (opponents' total, one take
#: per opponent, weight) entries.
_Table = tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]


def _extend(previous: _Table, width: int) -> _Table:
    """Every assignment of ``width`` codes, per pattern, from those of one code fewer.

    The result's ``[pattern][k]`` lists the assignments of ``width`` codes
    worth ``k`` points to the row owner as (points to the opponents in
    total, points to each opponent, weight), in ascending order.  Bit ``i``
    of ``pattern`` is set when tail opponents ``i`` and ``i + 1`` have
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
            for taken, *takes, weight in entries:
                head, run = takes[:start], takes[start:]
                for a, b, mult in _CODES:
                    key = (taken + b, *head, *sorted(run + [b]))
                    weights = merged[need + a]
                    weights[key] = weights.get(key, 0) + weight * mult
        table = []
        for weights in merged:
            ordered = sorted((*key, w) for key, w in weights.items())
            # An entry whose runs each repeat one take stands for one
            # ordering, so other patterns list it alike: keep one tuple.
            table.append(tuple(shared.setdefault(e, e) for e in ordered))
        folded.append(tuple(table))
    return tuple(folded)


#: ``_TAILS3[pattern][k]``: the width-3 tail table for an owner needing
#: ``k``, folded over the equal-deficit runs that ``pattern`` marks (see
#: :func:`_extend`); pattern 0 is the unfolded table.  It is extended from
#: the width-0 table, whose one entry is the empty assignment ``(0, 1)``.
_TAILS3 = _extend(_extend(_extend(((((0, 1),),),), 1), 2), 3)

#: The width-4 tables, indexed like ``_TAILS3``; ``None`` until
#: :func:`_tails4` first builds them.
_TAILS4: _Table | None = None


def _tails4() -> _Table:
    """The width-4 tail tables, extended from ``_TAILS3`` on the first call."""
    global _TAILS4
    if _TAILS4 is None:
        _TAILS4 = _extend(_TAILS3, 4)
    return _TAILS4


def count_completions(
    profile: Profile,
    *,
    memo: dict[int, int] | None = None,
) -> int:
    """Weighted number of tied completions of one whole profile.

    Matches the full-sweep oracle on every input.  The profile is counted
    as the multiset of its opponents' deficits, the key that the first row
    of ``(P,) * n`` reaches through these takes.  ``memo`` maps the codes
    of deficit multisets of four teams or more (see the module docstring)
    to their completion counts; pass one dict to every call of a league to
    share it across profiles and targets (by default each call starts
    empty).
    """
    # Each opponent starts on the complement of what the first team took
    # from it, and must end on the first team's total.
    taken = profile.taken
    deficits = sorted([taken - complement(t) for t in profile.takes])
    return _solve(deficits, {} if memo is None else memo)


def _row(
    deficits: Sequence[int],
    j: int,
    need: int,
    rest: list[int],
    code: int,
    lo: int,
    hi: int,
    memo: dict[int, int],
) -> int:
    """Completions of the open row of ``deficits[0]`` from opponent ``j`` on.

    ``need`` is what the row owner still needs from opponents ``j..``, and
    ``rest`` holds the deficits that opponents ``1..j-1`` keep once the row
    closes, ``code`` their code.  The opponents ``j..`` must take between
    ``lo`` and ``hi`` points from the row in total.  The last four
    encounters (three in a row of four teams) are closed in one pass over
    their tail table.  Deliberately a module-level function: a nested
    recursive closure would leave a reference cycle behind on every call.

    The deficits are sorted, so the tail table is the one folded for the
    pattern of equal neighbouring deficits among the tail opponents (see
    :func:`_extend`).  The width-4 pass, which every row of five or more
    teams ends in, checks each entry in this order: the window on the
    opponents' total, then each take against its own deficit, then the
    key's code, added up only for an entry that passes both.  Its table is
    built by :func:`_tails4` when the pass first runs.  A key is read from
    ``memo`` once, and only a miss sorts the deficits left, for
    :func:`_fill`.  The width-3 pass ends only the rows of four-team keys,
    where ``rest`` is empty; it checks its entries the same way and reads
    the count of the three teams left from ``_SMALL``.  ``rest`` never holds
    a negative deficit, so only a take above its tail deficit can leave
    one, and both passes drop exactly those entries.
    """
    width = len(deficits) - j
    if need > 6 * width:
        return 0
    pw = _POW
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
            key = code + pw[t0 - k0] + pw[t1 - k1] + pw[t2 - k2] + pw[t3 - k3]
            count = get(key)
            if count is None:
                left = sorted((*rest, t0 - k0, t1 - k1, t2 - k2, t3 - k3))
                count = _fill(left, key, memo)
            total += mult * count
        return total
    if width == 3:
        t0, t1, t2 = deficits[j:]
        small = _SMALL
        total = 0
        for taken, k0, k1, k2, mult in _TAILS3[(t0 == t1) | ((t1 == t2) << 1)][need]:
            if taken < lo:
                continue
            if taken > hi:
                break
            # As above, the window already rules out k2 > t2.
            if k0 > t0 or k1 > t1 or k2 > t2:
                continue
            total += mult * small.get(pw[t0 - k0] + pw[t1 - k1] + pw[t2 - k2], 0)
        return total
    dj = deficits[j]
    total = 0
    for a, b, mult in _CODES:
        if a > need:
            break
        if b <= dj:
            rest.append(dj - b)
            total += mult * _row(
                deficits, j + 1, need - a, rest, code + pw[dj - b], lo - b, hi - b, memo
            )
            rest.pop()
    return total


def _solve(deficits: Sequence[int], memo: dict[int, int]) -> int:
    """Weighted ways for teams with these (sorted) deficits to meet them exactly.

    For direct calls: the guards that keep the key's code exact, then a key
    of three teams or fewer is read from ``_SMALL`` and a larger one from
    ``memo``, and a miss is checked for a sum the open encounters can hand
    out.  The tail passes of :func:`_row` do not come here, because their
    window cut is that check.  ``memo`` maps codes of four teams or more to
    counts.  Raises ``ValueError`` for more than 15 teams.
    """
    m = len(deficits)
    if m > _KEY_TEAMS_MAX:
        raise ValueError(f"a memo key holds at most {_KEY_TEAMS_MAX} teams, got {m}")
    # A deficit outside 0..6(m - 1) is never met, and its _POW index could
    # wrap or overflow.
    if m and (min(deficits) < 0 or max(deficits) > 6 * (m - 1)):
        return 0
    code = sum([_POW[d] for d in deficits])
    if m < 4:
        return _SMALL.get(code, 0)
    total = memo.get(code)
    if total is None:
        pairs = m * (m - 1) // 2
        if not 4 * pairs <= sum(deficits) <= 6 * pairs:
            return 0
        total = _fill(deficits, code, memo)
    return total


def _fill(deficits: Sequence[int], code: int, memo: dict[int, int]) -> int:
    """Count four or more sorted deficits missing from ``memo``, and store the count.

    ``code`` is their key.  The caller has checked that the open encounters
    can hand out the deficits' sum.
    """
    # Once the first row closes, the other teams must meet what is left of
    # their deficits among themselves, 4 to 6 points per encounter: bounds
    # on what they may take from that row in total.
    m = len(deficits) - 1
    pairs = m * (m - 1) // 2
    owed = sum(deficits) - deficits[0]
    total = memo[code] = _row(
        deficits, 1, deficits[0], [], 0, owed - 6 * pairs, owed - 4 * pairs, memo
    )
    return total


def split_prefixes(profile: Profile, length: int) -> list[tuple[int, ...]]:
    """All prefixes of ``length`` codes for a row against this profile's other teams."""
    width = profile.n - 2
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} out of range for n={profile.n}")
    return list(product(range(6), repeat=length))
