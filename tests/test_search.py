"""The completion counter against its oracles."""

import gc
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from league_ties import brute
from league_ties.brute import count_completions_bruteforce
from league_ties.engine import KNOWN_TOTALS, count_tied
from league_ties.eulerian import eulerian_count
from league_ties.profiles import (
    PRUNED_CLASSES,
    Profile,
    ProfileClass,
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)
from league_ties.scoring import TAKE_VALUES, complement
from league_ties.search import (
    _CODES,
    _POW,
    _SMALL,
    _TAILS3,
    _extend,
    _solve,
    _tails4,
    count_completions,
    split_prefixes,
)


class TestCountCompletions:
    def test_mirror_pair(self):
        assert count_completions(Profile((4, 1))) == 2

    def test_unreachable(self):
        assert count_completions(Profile((3, 2))) == 0

    def test_single_opponent(self):
        assert count_completions(Profile((3,))) == 1
        assert count_completions(Profile((6,))) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_sweep_exhaustively(self, n):
        for p in iter_profiles(n):
            assert count_completions(p) == count_completions_bruteforce(p.takes, n), p

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        profile = data.draw(
            st.sampled_from([p for p in iter_profiles(4)]).filter(
                lambda p: classify_profile(p) is ProfileClass.SEARCH
            )
        )
        expected = count_completions_bruteforce(profile.takes, 4)
        for perm in permutations(profile.takes):
            assert count_completions_bruteforce(perm, 4) == expected

    def test_eulerian_class_mass_at_four_teams(self):
        # Representation-weighted completions over the draw-free specials
        # must reproduce the digraph count (doubling is carried jointly by
        # the take-3 entries and the (3,3) codes inside the search).
        from league_ties.eulerian import eulerian_count_bruteforce

        total = 0
        for p in iter_profiles(4):
            if classify_profile(p) is ProfileClass.EULERIAN_SPECIAL:
                total += (
                    representation_factor(p)
                    * doubling_factor(p)
                    * count_completions(p)
                )
        assert total == eulerian_count_bruteforce(4) == 152


def encode(deficits):
    """The memo code of a deficit multiset: 4 bits per deficit value."""
    return sum(_POW[d] for d in deficits)


def decode(code):
    """The sorted deficits of a memo code."""
    deficits = []
    value = 0
    while code:
        deficits += [value] * (code & 15)
        code >>= 4
        value += 1
    return tuple(deficits)


def search_profiles(n):
    return [p for p in iter_profiles(n) if classify_profile(p) is ProfileClass.SEARCH]


def reference_search(p):
    """Completions of ``p`` by the recursive reference search in ``brute``."""
    base = tuple(complement(t) for t in p.takes)
    return brute.completions_search(base, p.taken)


def assert_dp_matches_recursive_search(n):
    """The deficit DP against the pruned recursive search, profile by profile.

    Each profile is counted with a fresh memo and with one memo shared by
    all of them.
    """
    memo = {}
    for p in search_profiles(n):
        want = reference_search(p)
        assert count_completions(p) == want, p
        assert count_completions(p, memo=memo) == want, p


class TestDeficitDP:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_recursive_search(self, n):
        assert_dp_matches_recursive_search(n)

    def test_matches_sweep_six_teams(self):
        # The full completion sweep, free of pruning, on every n = 6 SEARCH
        # profile: the recursive reference above cuts overshooting branches.
        memo = {}
        for p in search_profiles(6):
            base = tuple(complement(t) for t in p.takes)
            want = brute.completions_sweep(base, p.taken)
            assert count_completions(p) == want, p
            assert count_completions(p, memo=memo) == want, p

    @pytest.mark.parametrize(
        "m, top, oracle",
        [
            (2, 7, brute.completions_sweep),
            (3, 13, brute.completions_sweep),
            (4, 11, brute.completions_search),
            (4, 18, brute.completions_sweep),
            (5, 10, brute.completions_search),
            pytest.param(5, 16, brute.completions_search, marks=pytest.mark.long),
        ],
        ids=[
            "two-sweep", "three-sweep", "four-search", "four-sweep",
            "five-small-search", "five-search",
        ],
    )
    def test_every_small_deficit_tuple(self, m, top, oracle):
        # Every sorted tuple of m deficits in 0..top, small and zero ones
        # included, once per tuple and once through one memo.  Two- and
        # three-team keys are read from _SMALL and never stored.  The first
        # row of a four-team key ends in the width-3 tail pass and that of
        # a five-team key in the width-4 pass; each drops a take above its
        # deficit before building a key, and the four-team keys a five-team
        # row reaches end in the width-3 pass.  A take that overshoots its
        # deficit would still count zero, so the memo's keys show whether a
        # fit check let one through: its negative _POW index would wrap to
        # a deficit far above top.
        shared = {}
        for deficits in combinations_with_replacement(range(top + 1), m):
            target = max(deficits)
            want = oracle(tuple(target - d for d in deficits), target)
            assert _solve(deficits, {}) == want, deficits
            assert _solve(deficits, shared) == want, deficits
        if m <= 3:
            assert not shared
        else:
            assert shared
            assert all(0 <= d <= top for key in shared for d in decode(key))

    @pytest.mark.long
    def test_matches_recursive_search_seven_teams(self):
        assert_dp_matches_recursive_search(7)

    def test_leaves_no_cyclic_garbage(self):
        # The DP recurses through module-level functions only; a recursive
        # closure would leave one reference cycle per call for the collector.
        profiles = search_profiles(6)
        gc.collect()
        gc.disable()
        try:
            for p in profiles:
                count_completions(p)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "run",
        [
            lambda: count_tied(6),
            lambda: list(iter_profiles(6)),
            lambda: [reference_search(p) for p in search_profiles(6)],
        ],
        ids=["count_tied", "iter_profiles", "reference_search"],
    )
    def test_count_leaves_no_cyclic_garbage(self, run):
        # A recursive closure in the profile enumeration or in the
        # reference search would leave a reference cycle behind on every
        # call.
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def tail_tables(width):
    """The tail tables of ``width``, extended one code at a time from the empty tail.

    Widths 3 and 4, which the row DP reads, must equal the tables it holds:
    ``_TAILS3``, built at import, and ``_tails4()``, built on first use.
    """
    tables = ((((0, 1),),),)
    for w in range(1, width + 1):
        tables = _extend(tables, w)
    if width == 3:
        assert tables == _TAILS3
    if width == 4:
        assert tables == _tails4()
    return tables


def split(entry):
    """(opponents' total, takes, weight) of one flat tail-table entry."""
    return entry[0], entry[1:-1], entry[-1]


class TestTailTables:
    @pytest.mark.parametrize("width", range(5))
    def test_every_assignment_once(self, width):
        # Pattern 0 is the reference the folded tables are checked against:
        # every ordered assignment once, weighted by its codes' multiplicities.
        full = tail_tables(width)[0]
        entries = [split(e) for by_need in full for e in by_need]
        assert len(entries) == 6**width
        assert sum(mult for _, _, mult in entries) == 9**width
        all_takes = [takes for _, takes, _ in entries]
        assert len(set(all_takes)) == len(all_takes)
        assert set(all_takes) == set(product(TAKE_VALUES, repeat=width))
        owner_points = {b: a for a, b, _ in _CODES}
        multiplicity = {b: mult for _, b, mult in _CODES}
        for need, by_need in enumerate(full):
            for taken, takes, mult in map(split, by_need):
                assert sum(owner_points[b] for b in takes) == need
                assert sum(takes) == taken
                assert mult == prod(multiplicity[b] for b in takes)
            totals = [taken for taken, *_ in by_need]
            assert totals == sorted(totals)

    @pytest.mark.parametrize(
        "width, pattern",
        [(w, p) for w in range(5) for p in range(1 << max(w - 1, 0))],
    )
    def test_folded_tables_expand_to_the_full_table(self, width, pattern):
        # Bit i of the pattern joins tail positions i and i + 1 into one run of
        # equal deficits.  Every ordering of a folded entry's takes within its
        # runs is one entry of pattern 0, each met exactly once, and the folded
        # weight is the sum of theirs.
        tables = tail_tables(width)
        assert len(tables) == 1 << max(width - 1, 0)
        starts = [0] + [i + 1 for i in range(width - 1) if not pattern >> i & 1]
        runs = [slice(a, b) for a, b in zip(starts, starts[1:] + [width])]
        owner_points = {b: a for a, b, _ in _CODES}
        for need, by_need in enumerate(tables[pattern]):
            full = {takes: mult for _, takes, mult in map(split, tables[0][need])}
            expanded = []
            for taken, takes, weight in map(split, by_need):
                assert sum(owner_points[b] for b in takes) == need
                assert sum(takes) == taken
                orderings = [
                    tuple(sum(parts, ()))
                    for parts in product(*(set(permutations(takes[r])) for r in runs))
                ]
                assert weight == sum(full[t] for t in orderings)
                expanded += orderings
            assert sorted(expanded) == sorted(full)
            totals = [taken for taken, *_ in by_need]
            assert totals == sorted(totals)

    @pytest.mark.parametrize("width, size, distinct", [(3, 524, 426), (4, 4803, 3361)])
    def test_equal_entries_are_one_object(self, width, size, distinct):
        # An entry that several patterns list alike is stored once, which
        # keeps the width-4 build's peak memory down.
        tables = _TAILS3 if width == 3 else _tails4()
        entries = [e for by_pattern in tables for by_need in by_pattern for e in by_need]
        assert len(entries) == size
        assert len(set(entries)) == distinct
        assert len({id(e) for e in entries}) == distinct

    def test_width_four_is_built_on_first_use(self):
        # Neither the import nor a count whose keys have four teams or fewer
        # builds the width-4 table; the first five-team key does.
        code = (
            "from league_ties import count_tied, search\n"
            "built = [search._TAILS4 is not None]\n"
            "count_tied(5)\n"
            "built.append(search._TAILS4 is not None)\n"
            "count_tied(6)\n"
            "built.append(search._TAILS4 is not None)\n"
            "print(built)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "[False, False, True]\n"


def fixed_point_free_slice(n):
    """n! [x^n] of e^(-2x-x^2)/(1-2x), with exact fractions.

    A tie on 2n-1 points leaves exactly n decisive matches, and every team
    wins one and loses one: winner to loser is a fixed-point-free
    permutation.  Each win picks its leg (home or away), except that the two
    wins of a 2-cycle must take different legs, hence cycle weights 2^k for
    k >= 3 and 2 for k = 2.
    """
    # h = exp(-2x - x^2) satisfies h' = (-2 - 2x) h.
    h = [Fraction(1), Fraction(-2)]
    for k in range(1, n):
        h.append((-2 * h[k] - 2 * h[k - 1]) / (k + 1))
    coeff = sum(h[i] * 2 ** (n - i) for i in range(n + 1))
    return int(coeff * factorial(n))


#: Deficit tuples with runs of equal values at the start, middle or end,
#: and with every value equal, for 2 to 6 teams; some count zero.  The
#: first row of a six-team key walks one code and closes its last four
#: encounters from the width-4 table, so the six-team tuples put equal runs
#: across that boundary and inside the tail.  (6, 6, 6, 14, 14, 14) counts
#: zero from its sum before any row: 60 points over 15 pairs means every
#: pair drew both legs, which leaves every team 10.
REPEATED_DEFICITS = [
    (2, 2), (3, 3), (6, 6),
    (5, 5, 5), (6, 6, 6), (3, 3, 8), (5, 5, 8), (2, 6, 6), (4, 7, 7),
    (4, 4, 4, 4), (6, 6, 6, 6), (9, 9, 9, 9), (3, 3, 8, 18), (5, 5, 7, 7),
    (0, 9, 9, 14), (5, 6, 9, 9), (6, 6, 6, 9),
    (8, 8, 8, 8, 8), (9, 9, 9, 9, 9), (12, 12, 12, 12, 12),
    (10, 10, 10, 10, 12), (7, 7, 9, 9, 10), (8, 9, 9, 9, 10),
    (0, 11, 11, 11, 22), (6, 10, 10, 10, 10), (0, 6, 17, 17, 17),
    (9, 9, 12, 12, 12, 15), (6, 6, 6, 14, 14, 14), (9, 9, 9, 12, 12, 13),
    pytest.param((12,) * 6, marks=pytest.mark.long, id="all-12-six-teams"),
    pytest.param((15,) * 6, marks=pytest.mark.long, id="all-15-six-teams"),
]


class TestRepeatedDeficits:
    """Equal deficits close from folded tail tables; the DP must not notice."""

    @pytest.mark.parametrize("deficits", REPEATED_DEFICITS, ids=str)
    def test_matches_recursive_search(self, deficits):
        target = max(deficits)
        base = tuple(target - d for d in deficits)
        assert _solve(tuple(sorted(deficits)), {}) == brute.completions_search(
            base, target
        )

    def test_some_counts_are_nonzero(self):
        for m in range(2, 7):
            # The long cases are pytest.param entries, not tuples.
            cases = [d for d in REPEATED_DEFICITS if isinstance(d, tuple) and len(d) == m]
            assert any(_solve(d, {}) for d in cases), m
            assert not all(_solve(d, {}) for d in cases), m

    @pytest.mark.parametrize("n, size", [(6, 481), (7, 3916)])
    def test_shared_memo_size(self, n, size):
        # One shared-memo pass over the SEARCH profiles stores each profile's
        # own deficits and every key of four teams or more its rows reach.
        # The fold skips lookups, never keys: the unfolded tables leave the
        # same memo.  The 174 (n = 6) and 200 (n = 7) keys of two and three
        # teams are read from _SMALL instead.
        memo = {}
        for p in search_profiles(n):
            count_completions(p, memo=memo)
        assert len(memo) == size
        assert all(len(decode(key)) >= 4 for key in memo)


class TestMemoCodes:
    """The memo's int keys name deficit multisets exactly, within their guards."""

    def test_codes_are_distinct_and_decode(self):
        seen = {}
        for m in range(5):
            for deficits in combinations_with_replacement(range(19), m):
                code = encode(deficits)
                assert seen.setdefault(code, deficits) == deficits
                assert decode(code) == deficits

    def test_small_keys_match_the_sweep(self):
        # Every key of three teams or fewer with a nonzero count, checked by
        # the sweep; the sweep needs a team, and no team is met one way.
        assert len(_SMALL) == 46
        sizes = [len(decode(code)) for code in _SMALL]
        assert [sizes.count(m) for m in range(4)] == [1, 1, 4, 40]
        assert _SMALL[encode(())] == 1
        for code, count in _SMALL.items():
            deficits = decode(code)
            if deficits:
                target = max(deficits)
                base = tuple(target - d for d in deficits)
                assert count == brute.completions_sweep(base, target), deficits

    def test_more_teams_than_a_code_holds(self):
        assert _solve((0,) * 15, {}) == 0
        with pytest.raises(ValueError, match="at most 15 teams"):
            _solve((0,) * 16, {})

    @pytest.mark.parametrize(
        "deficits",
        # Above 6(m - 1), then below 0; -81 would wrap to the index of 4,
        # and (4, 4, 4) counts 1.
        [(0, 0, 0, 19), (0, 0, 0, 100), (-1, 2, 2, 9), (-81, 4, 4)],
        ids=str,
    )
    def test_unmeetable_deficits_count_zero(self, deficits):
        assert _solve(deficits, {}) == 0

    @pytest.mark.long
    def test_nine_team_slice_and_eight_team_memo(self):
        # The widest codes any test builds: nine teams, deficits up to 48.
        assert _solve((19,) * 9, {}) == 140_771_973_870_352_448_512
        memo = {}
        assert sum(_solve((p,) * 8, memo) for p in range(14, 22)) == KNOWN_TOTALS[8]
        assert len(memo) == 24_229


class TestClosedFormSlices:
    """Level targets whose count is known in closed form, straight through the DP."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_all_draw_level(self, n):
        assert _solve((2 * n - 2,) * n, {}) == 1

    @pytest.mark.parametrize("n", range(2, 10))
    def test_draw_free_level_is_eulerian(self, n):
        assert _solve((3 * n - 3,) * n, {}) == eulerian_count(n)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_above_all_draw_level(self, n):
        assert _solve((2 * n - 1,) * n, {}) == fixed_point_free_slice(n)

    def test_fixed_point_free_series(self):
        assert [fixed_point_free_slice(n) for n in range(2, 10)] == [
            2, 16, 108, 1088, 13240, 184896, 2956688, 53231104,
        ]


def tied_seasons_by_level(n):
    """Tied seasons of ``n`` teams by team 0's points, from every season outcome."""
    matches = [(h, a) for h in range(n) for a in range(n) if h != a]
    tally = {}
    for results in product(((3, 0), (1, 1), (0, 3)), repeat=len(matches)):
        points = [0] * n
        for (h, a), (home, away) in zip(matches, results):
            points[h] += home
            points[a] += away
        if len(set(points)) == 1:
            tally[points[0]] = tally.get(points[0], 0) + 1
    return tally


#: Tied seasons by level P, for P = 2n - 2..3n - 3 (from the season tally).
TIED_BY_LEVEL = {
    2: {2: 1, 3: 2},
    3: {4: 1, 5: 16, 6: 10},
    4: {6: 1, 7: 108, 8: 822, 9: 152},
}


def assert_route_b_is_route_a_by_level(n):
    """Weighted profile counts summed by the first team's total P (route B),
    against ``_solve((P,) * n)``, every team short of P points (route A).

    Every profile is counted, pruned and special ones included, so the
    classification and both closed-form specials are checked on the way.
    """
    memo = {}
    by_level = {}
    eulerian = 0
    for p in iter_profiles(n):
        cls = classify_profile(p)
        weighted = (
            representation_factor(p) * doubling_factor(p) * count_completions(p, memo=memo)
        )
        by_level[p.taken] = by_level.get(p.taken, 0) + weighted
        if cls in PRUNED_CLASSES:
            assert weighted == 0, p
        elif cls is ProfileClass.ALL_DRAW_SPECIAL:
            assert weighted == 1, p
        elif cls is ProfileClass.EULERIAN_SPECIAL:
            eulerian += weighted
    assert eulerian == eulerian_count(n)
    route_a = {p: _solve((p,) * n, {}) for p in range(2 * n - 2, 3 * n - 2)}
    assert route_a.keys() <= by_level.keys()
    assert by_level == {p: route_a.get(p, 0) for p in by_level}


class TestPerLevel:
    """``_solve`` on n equal deficits P counts the tied seasons at level P."""

    @pytest.mark.parametrize("n", sorted(TIED_BY_LEVEL))
    def test_solve_per_level(self, n):
        levels = range(2 * n - 2, 3 * n - 2)
        assert {p: _solve((p,) * n, {}) for p in levels} == TIED_BY_LEVEL[n]
        assert sum(TIED_BY_LEVEL[n].values()) == KNOWN_TOTALS[n]

    @pytest.mark.parametrize("n", [2, 3])
    def test_season_tally(self, n):
        assert tied_seasons_by_level(n) == TIED_BY_LEVEL[n]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", sorted(TIED_BY_LEVEL))
    def test_season_sweep_per_level(self, n, workers):
        # Only n = 4 has more than one block, so only it starts a pool.
        assert brute.count_tied_by_level_bruteforce(n, workers=workers) == TIED_BY_LEVEL[n]

    @pytest.mark.long
    def test_season_sweep_per_level_five_teams(self):
        levels = range(8, 13)
        want = {p: _solve((p,) * 5, {}) for p in levels}
        assert brute.count_tied_by_level_bruteforce(5, workers=2) == want
        assert sum(want.values()) == KNOWN_TOTALS[5]

    @pytest.mark.long
    def test_season_tally_four_teams(self):
        assert tied_seasons_by_level(4) == TIED_BY_LEVEL[4]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_route_b_per_level(self, n):
        assert_route_b_is_route_a_by_level(n)

    @pytest.mark.long
    def test_route_b_per_level_eight_teams(self):
        assert_route_b_is_route_a_by_level(8)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_profile_keys_are_the_first_row_of_each_level(self, n):
        # A profile's key is the deficits its takes leave the other teams,
        # which is where the first row of (P,) * n lands.  Once every
        # profile has been counted into one memo, route A finds each key
        # below its targets there and adds only the targets themselves.
        # For n <= 3 both routes read every key from _SMALL.
        memo = {}
        for p in iter_profiles(n):
            count_completions(p, memo=memo)
        before = set(memo)
        levels = range(2 * n - 2, 3 * n - 2)
        for level in levels:
            _solve((level,) * n, memo)
        targets = {encode((level,) * n) for level in levels} if n > 3 else set()
        assert set(memo) - before == targets


class TestPrefixSplitting:
    def test_split_prefixes_shape(self):
        p = Profile((4, 3, 3, 0))
        assert split_prefixes(p, 0) == [()]
        assert len(split_prefixes(p, 2)) == 36
        with pytest.raises(ValueError):
            split_prefixes(p, 4)
