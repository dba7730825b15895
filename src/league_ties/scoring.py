"""League dimensions, result encodings and 3/1/0 point arithmetic.

A season is a double round-robin: every ordered pair of teams meets once,
so ``n`` teams play ``n*(n-1)`` matches.  A single match result is encoded
as 0 (away win), 1 (draw) or 2 (home win).  The home-and-away matches of
one pair of teams are often treated together; the combined points the two
teams take from such a double encounter form one of six tuples, three of
which arise from two distinct orderings and therefore carry multiplicity 2.

``_RESULT_POINTS`` is the one hand-written statement of the rule.  Folding
the nine (first leg, second leg) results of one pairing gives
``PAIR_POINTS``, sorted by the first side's points (the search and the
brute-force odometers rely on this code order), and ``PAIR_MULTIPLICITY``;
``TAKE_VALUES``, ``DOUBLED_TAKES``, ``COMPLEMENT`` and :func:`complement` are
read off them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import IncompleteTableError

#: (home, away) points of match result 0 (away win), 1 (draw) and 2 (home win).
_RESULT_POINTS = ((0, 3), (1, 1), (3, 0))

#: The six (points_a, points_b) tuples of a double encounter, indexed by code,
#: and the number of (first leg at A's ground, second leg at B's) result pairs
#: realising each.
PAIR_POINTS, PAIR_MULTIPLICITY = zip(
    *sorted(
        Counter(
            (a_home + a_away, b_away + b_home)
            for a_home, b_away in _RESULT_POINTS
            for b_home, a_away in _RESULT_POINTS
        ).items()
    )
)

#: Points one team can take from a home/away double encounter.
TAKE_VALUES = tuple(a for a, _ in PAIR_POINTS)

#: Takes realised by two distinct orderings of the underlying match results.
DOUBLED_TAKES = frozenset(
    a for (a, _), mult in zip(PAIR_POINTS, PAIR_MULTIPLICITY) if mult == 2
)

#: Points the opponent takes, keyed by the points one side takes from an
#: encounter; :func:`complement` is the checked lookup.
COMPLEMENT = dict(PAIR_POINTS)

_TAKE_SET = frozenset(TAKE_VALUES)
_INT = frozenset({int})


def check_takes(takes: tuple[int, ...]) -> None:
    """Refuse any take that is not one of :data:`TAKE_VALUES` as an ``int``."""
    # Types first: an int is hashable, so the value test cannot raise.
    if _INT.issuperset(map(type, takes)) and _TAKE_SET.issuperset(takes):
        return
    for t in takes:  # name the first bad take
        if t not in TAKE_VALUES:
            raise ValueError(f"bad take {t!r}; must be one of {TAKE_VALUES}")
        # No reading 4.0 as 4; bool is an int subclass.
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"bad take {t!r}; a take must be an int")


@dataclass(frozen=True)
class LeagueSize:
    """Dimensions of an ``n``-team double round-robin league."""

    n: int

    def __post_init__(self) -> None:
        # No truncating 4.9 or reading "5"; bool is an int subclass.
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"a team count must be an int, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"a league needs at least 2 teams, got {self.n}")

    @property
    def matches(self) -> int:
        """Total number of matches, home and away counted separately."""
        return self.n * (self.n - 1)

    @property
    def rest_matches(self) -> int:
        """Matches played among the teams other than the first."""
        return (self.n - 1) * (self.n - 2)


def as_league_size(size: LeagueSize | int) -> LeagueSize:
    """Wrap an int team count in :class:`LeagueSize`, which refuses any other type."""
    if isinstance(size, LeagueSize):
        return size
    return LeagueSize(size)


def match_order(n: int) -> list[tuple[int, int]]:
    """Canonical (home, away) enumeration of all matches.

    Home-team major, away-team minor, ascending 0-based team index, diagonal
    skipped.  Match ``i`` of this list owns digit ``i`` of a base-3 season
    encoding, so the order fixes the encode/decode round trip.
    """
    return [(h, a) for h in range(n) for a in range(n) if a != h]


def result_points(r: int) -> tuple[int, int]:
    """(home, away) points for one match result code."""
    if r not in (0, 1, 2):
        raise ValueError(f"match result must be 0, 1 or 2, got {r!r}")
    return _RESULT_POINTS[r]


@dataclass(frozen=True)
class PairOutcome:
    """Combined outcome of the two matches between one pair of teams."""

    code: int
    points_a: int
    points_b: int
    multiplicity: int


def pair_outcome(code: int) -> PairOutcome:
    """Decode a pair code 0..5 into points and multiplicity."""
    if not isinstance(code, int) or not 0 <= code <= 5:
        raise ValueError(f"pair code must be 0..5, got {code!r}")
    a, b = PAIR_POINTS[code]
    return PairOutcome(code, a, b, PAIR_MULTIPLICITY[code])


def complement(p: int) -> int:
    """Points the opponent takes when one side takes ``p`` from an encounter.

    An involution on {0, 1, 2, 3, 4, 6}.  The value 5 is not a reachable
    take and is rejected rather than reinterpreted.
    """
    try:
        return COMPLEMENT[p]
    except (KeyError, TypeError):
        raise ValueError(f"not a valid encounter take: {p!r}") from None


@dataclass(frozen=True)
class ScoreTable:
    """Goal grid of a completed season, one (home, away) goal pair per cell.

    Only the win/draw/loss comparison of each cell matters for points; the
    goal values themselves carry no further meaning here.
    """

    n: int
    goals: tuple[tuple[tuple[int, int] | None, ...], ...]


def parse_score_table(text: str) -> ScoreTable:
    """Parse the plain-text grid format.

    One home team per line, cells ``h:a`` separated by whitespace and ``-``
    on the diagonal.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = len(rows)
    if n < 2:
        raise ValueError("score table needs at least two rows")
    grid: list[tuple[tuple[int, int] | None, ...]] = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
        cells: list[tuple[int, int] | None] = []
        for j, cell in enumerate(row):
            if cell == "-":
                if i != j:
                    raise ValueError(f"placeholder '-' off the diagonal at ({i}, {j})")
                cells.append(None)
            else:
                h, _, a = cell.partition(":")
                if not (h.isdigit() and a.isdigit()):
                    raise ValueError(f"bad cell {cell!r} at ({i}, {j})")
                cells.append((int(h), int(a)))
        grid.append(tuple(cells))
    return ScoreTable(n, tuple(grid))


def table_points(table: ScoreTable) -> tuple[int, ...]:
    """Per-team point totals of a completed score table."""
    points = [0] * table.n
    for h in range(table.n):
        for a in range(table.n):
            if h == a:
                continue
            cell = table.goals[h][a]
            if cell is None:
                raise IncompleteTableError(f"missing result for match {h} vs {a}")
            gh, ga = cell
            if gh > ga:
                points[h] += 3
            elif gh < ga:
                points[a] += 3
            else:
                points[h] += 1
                points[a] += 1
    return tuple(points)
