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

``strict=True`` bypasses the DP and runs the plain recursive row search of
:mod:`league_ties.kernels` with overshoot pruning off, an independent
reference for differential tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product
from math import prod
from operator import gt, sub

from . import kernels
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


def row_code_digits(code: int, width: int) -> tuple[int, ...]:
    """Base-6 digits of a row code, nearest opponent first."""
    if not 0 <= code < 6**width:
        raise ValueError(f"row code {code} out of range for width {width}")
    digits = []
    for _ in range(width):
        code, d = divmod(code, 6)
        digits.append(d)
    return tuple(digits)


def row_code_from_digits(digits: Sequence[int]) -> int:
    """Inverse of :func:`row_code_digits`."""
    value = 0
    for k, d in enumerate(digits):
        if not 0 <= d <= 5:
            raise ValueError(f"bad pair code {d!r} in row digits")
        value += d * 6**k
    return value


@dataclass(frozen=True)
class SearchState:
    """Snapshot of the search between rows.

    ``points`` holds the running totals of teams 2..n (index 0 = team 2);
    ``level`` is the team whose row is assigned next.  ``weight`` is the
    product of multiplicities collected so far, always a power of two.
    """

    target: int
    points: tuple[int, ...]
    level: int
    weight: int = 1

    @property
    def n(self) -> int:
        return len(self.points) + 1


def apply_row(state: SearchState, row: Sequence[int]) -> SearchState | None:
    """Apply one full row of pair codes; ``None`` when the branch is dead.

    The row belongs to team ``state.level`` and must hold one code per
    higher-indexed team.  Dead means: the row owner's now-final total missed
    the target, or some opponent was pushed beyond it.
    """
    n = state.n
    i = state.level
    if not 2 <= i < n:
        raise ValueError(f"level {i} out of range for n={n}")
    if len(row) != n - i:
        raise ValueError(f"team {i}'s row needs {n - i} codes, got {len(row)}")
    points = list(state.points)
    weight = state.weight
    own = i - 2
    for k, code in enumerate(row):
        a, b = PAIR_POINTS[code]
        points[own] += a
        points[own + 1 + k] += b
        if PAIR_MULTIPLICITY[code] == 2:
            weight <<= 1
    if points[own] != state.target:
        return None
    if any(p > state.target for p in points):
        return None
    return replace(state, points=tuple(points), level=i + 1, weight=weight)


def initial_state(profile: Profile) -> SearchState:
    """Search state before any row is assigned: opponents on their complements."""
    return SearchState(
        target=profile.taken,
        points=tuple(complement(t) for t in profile.takes),
        level=2,
    )


def count_completions(
    profile: Profile,
    *,
    strict: bool = False,
    prefix: tuple[int, ...] = (),
    memo: dict[tuple[int, ...], int] | None = None,
) -> int:
    """Weighted number of tied completions of one profile.

    Matches the full-sweep oracle on every input.  ``prefix`` pins the first
    codes of team 2's row so one profile can be split into disjoint
    sub-searches whose results add up to the whole.  ``memo`` maps sorted
    deficit tuples to their completion counts; pass one dict to every call
    of a league to share it across profiles and targets (by default each
    call starts empty).  ``strict=True`` runs the recursive row search
    without overshoot pruning instead of the DP: slower, but independent of
    it, for differential testing.
    """
    state = initial_state(profile)
    prefix = tuple(prefix)
    if strict:
        return kernels.completions_search(state.points, state.target, True, prefix)
    k = len(state.points)
    if len(prefix) > max(k - 1, 0):
        raise ValueError(f"prefix of {len(prefix)} codes exceeds the first row")
    if any(not 0 <= c <= 5 for c in prefix):
        raise ValueError(f"prefix codes must be 0..5, got {prefix}")

    deficits = [state.target - p for p in state.points]
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
