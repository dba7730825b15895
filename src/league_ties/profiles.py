"""First-team profiles: canonical take vectors, their weights, classification.

Any ordering of the first team's per-opponent takes completes to a tied
table in the same number of ways, so only the weakly descending ordering
(the profile) is ever searched and the result is scaled by the number of
distinct orderings.  A second factor of 2 per doubled take accounts for the
two home/away realisations of the takes 1, 3 and 4.

Classification sorts each profile into one bucket: provably zero
contribution (four pruning reasons), a closed-form special (the all-draw
outcome, or the draw-free class counted by Eulerian digraphs), or a genuine
search case.

Every count builds and classifies each profile of its league (252 at n = 6,
1 287 at n = 9), and every resume validates each ledger record through a
:class:`Profile`, so this layer is a fixed cost of each call.  Its functions
read the takes once and test them with set, ``count`` and dict operations
rather than per-take generators; nothing is cached between calls.  A
:class:`Profile` refuses any take that is not an ``int`` (4.0, ``True``),
but :func:`iter_profiles` draws its takes itself and skips those checks.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

from .scoring import COMPLEMENT, DOUBLED_TAKES, PAIR_POINTS, TAKE_VALUES, check_takes

_DESCENDING_TAKES = tuple(sorted(TAKE_VALUES, reverse=True))

#: Takes whose encounter holds a draw: the pair shares fewer than 6 points.
_DRAWISH_TAKES = frozenset(a for a, b in PAIR_POINTS if a + b < 6)


@dataclass(frozen=True)
class Profile:
    """Weakly descending takes of the first team against its opponents."""

    takes: tuple[int, ...]

    def __post_init__(self) -> None:
        # Stored as a tuple whatever sequence was passed, so that equal
        # profiles compare and hash alike.
        takes = tuple(self.takes)
        object.__setattr__(self, "takes", takes)
        if len(takes) < 1:
            raise ValueError("profile must cover at least one opponent")
        check_takes(takes)
        if list(takes) != sorted(takes, reverse=True):
            raise ValueError(f"takes must be weakly descending, got {takes}")

    @property
    def n(self) -> int:
        """Number of teams in the league this profile belongs to."""
        return len(self.takes) + 1

    @property
    def taken(self) -> int:
        """Points the first team takes in total."""
        return sum(self.takes)

    @property
    def conceded(self) -> int:
        """Points the opponents take against the first team in total."""
        return sum([COMPLEMENT[t] for t in self.takes])


class ProfileClass(enum.Enum):
    """Disposition of one profile in the optimised count."""

    PRUNED_LOW = "PRUNED_LOW"
    ALL_DRAW_SPECIAL = "ALL_DRAW_SPECIAL"
    PRUNED_SPREAD_LOW = "PRUNED_SPREAD_LOW"
    SEARCH = "SEARCH"
    PRUNED_SPREAD_HIGH = "PRUNED_SPREAD_HIGH"
    EULERIAN_SPECIAL = "EULERIAN_SPECIAL"
    PRUNED_HIGH = "PRUNED_HIGH"


#: Classes that provably contribute nothing.
PRUNED_CLASSES = frozenset(
    {
        ProfileClass.PRUNED_LOW,
        ProfileClass.PRUNED_SPREAD_LOW,
        ProfileClass.PRUNED_SPREAD_HIGH,
        ProfileClass.PRUNED_HIGH,
    }
)


def iter_profiles(n: int) -> Iterator[Profile]:
    """All profiles for an ``n``-team league, lexicographically descending.

    Emits every weakly descending length ``n-1`` sequence over the take
    values exactly once, starting at (6, 6, ..., 6) and ending at
    (0, 0, ..., 0).
    """
    if n < 2:
        raise ValueError(f"a league needs at least 2 teams, got {n}")
    # The takes are ints drawn in descending order, so the constructor's
    # checks, most of its cost, are skipped.
    for takes in combinations_with_replacement(_DESCENDING_TAKES, n - 1):
        profile = object.__new__(Profile)
        object.__setattr__(profile, "takes", takes)
        yield profile


def representation_factor(profile: Profile) -> int:
    """Number of distinct orderings of the profile's takes."""
    takes = profile.takes
    result = factorial(len(takes))
    for v in set(takes):
        result //= factorial(takes.count(v))
    return result


def doubling_factor(profile: Profile) -> int:
    """2 to the number of takes with two home/away realisations (1, 3, 4)."""
    return 1 << sum(map(profile.takes.count, DOUBLED_TAKES))


def classify_profile(profile: Profile) -> ProfileClass:
    """Assign the unique class of a profile.

    The cutoffs on the first team's total come first; they subsume the two
    closed-form specials.  Profiles inside the open interval are then tested
    against bounds on the points the remaining teams must distribute among
    themselves: with every team finishing on the first team's total P, those
    teams' mutual matches must hand out exactly ``(n-1)*P - conceded``
    points, while each of the L such matches hands out 2 or 3.  For n >= 5
    the bounds sharpen to [2L+3, 3L-3] (a tied table needs at least three
    non-draws and at least three draws among those matches once the first
    team sits in the open interval); the sharpened form is false for
    n <= 4, where it would prune the live profile (4, 1) at n = 3 and
    (6, 2, 0), (6, 1, 1), (4, 4, 0) and (4, 3, 1) at n = 4, so the plain
    [2L, 3L] is used there.
    """
    takes = profile.takes
    n = len(takes) + 1
    p = sum(takes)
    if p < 2 * n - 2:
        return ProfileClass.PRUNED_LOW
    if p == 2 * n - 2:
        # Only the all-draw season reaches a tie this low, so the one
        # all-2s profile carries that outcome and its siblings are dead.
        if takes.count(2) == n - 1:
            return ProfileClass.ALL_DRAW_SPECIAL
        return ProfileClass.PRUNED_LOW
    if p == 3 * n - 3:
        # A tie this high forces a draw-free season, so any profile with a
        # drawish take (1, 2 or 4) is dead.
        if _DRAWISH_TAKES.isdisjoint(takes):
            return ProfileClass.EULERIAN_SPECIAL
        return ProfileClass.PRUNED_HIGH
    if p > 3 * n - 3:
        return ProfileClass.PRUNED_HIGH

    rest_matches = (n - 1) * (n - 2)
    spread = (n - 1) * p - profile.conceded
    if n >= 5:
        low, high = 2 * rest_matches + 3, 3 * rest_matches - 3
    else:
        low, high = 2 * rest_matches, 3 * rest_matches
    if spread < low:
        return ProfileClass.PRUNED_SPREAD_LOW
    if spread > high:
        return ProfileClass.PRUNED_SPREAD_HIGH
    return ProfileClass.SEARCH
