"""The completion counter against its oracles."""

import gc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from league_ties import brute
from league_ties.brute import count_completions_bruteforce
from league_ties.engine import count_tied
from league_ties.eulerian import eulerian_count
from league_ties.profiles import Profile, ProfileClass, classify_profile, iter_profiles
from league_ties.scoring import TAKE_VALUES, complement
from league_ties.search import (
    _CODES,
    _TAIL_WIDTH,
    _TAILS,
    _solve,
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
        from league_ties.profiles import doubling_factor, representation_factor

        total = 0
        for p in iter_profiles(4):
            if classify_profile(p) is ProfileClass.EULERIAN_SPECIAL:
                total += (
                    representation_factor(p)
                    * doubling_factor(p)
                    * count_completions(p)
                )
        assert total == eulerian_count_bruteforce(4) == 152


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

    @pytest.mark.parametrize(
        "m, top, oracle",
        [
            (2, 7, brute.completions_sweep),
            (3, 13, brute.completions_sweep),
            (4, 11, brute.completions_search),
        ],
        ids=["two-sweep", "three-sweep", "four-search"],
    )
    def test_every_small_deficit_tuple(self, m, top, oracle):
        # Every sorted tuple of m deficits in 0..top, small and zero ones
        # included, whose rows close from the tail tables by the sign of
        # the smallest residual; once per tuple and once through one memo.
        # A take that overshoots its deficit would still count zero, so the
        # memo's keys show whether the sign check let one through.
        shared = {}
        for deficits in combinations_with_replacement(range(top + 1), m):
            target = max(deficits)
            want = oracle(tuple(target - d for d in deficits), target)
            assert _solve(deficits, {}) == want, deficits
            assert _solve(deficits, shared) == want, deficits
        assert shared
        assert all(key[0] >= 0 for key in shared)

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


class TestTailTables:
    @pytest.mark.parametrize("width", range(_TAIL_WIDTH + 1))
    def test_every_assignment_once(self, width):
        # Pattern 0 is the reference the folded tables are checked against:
        # every ordered assignment once, weighted by its codes' multiplicities.
        entries = [e for by_need in _TAILS[width][0] for e in by_need]
        assert len(entries) == 6**width
        assert sum(mult for _, _, mult in entries) == 9**width
        all_takes = [takes for _, takes, _ in entries]
        assert len(set(all_takes)) == len(all_takes)
        assert set(all_takes) == set(product(TAKE_VALUES, repeat=width))
        owner_points = {b: a for a, b, _ in _CODES}
        multiplicity = {b: mult for _, b, mult in _CODES}
        for need, by_need in enumerate(_TAILS[width][0]):
            for taken, takes, mult in by_need:
                assert sum(owner_points[b] for b in takes) == need
                assert sum(takes) == taken
                assert mult == prod(multiplicity[b] for b in takes)
            totals = [taken for taken, _, _ in by_need]
            assert totals == sorted(totals)

    @pytest.mark.parametrize(
        "width, pattern",
        [(w, p) for w in range(_TAIL_WIDTH + 1) for p in range(1 << max(w - 1, 0))],
    )
    def test_folded_tables_expand_to_the_full_table(self, width, pattern):
        # Bit i of the pattern joins tail positions i and i + 1 into one run of
        # equal deficits.  Every ordering of a folded entry's takes within its
        # runs is one entry of pattern 0, each met exactly once, and the folded
        # weight is the sum of theirs.
        assert len(_TAILS[width]) == 1 << max(width - 1, 0)
        starts = [0] + [i + 1 for i in range(width - 1) if not pattern >> i & 1]
        runs = [slice(a, b) for a, b in zip(starts, starts[1:] + [width])]
        owner_points = {b: a for a, b, _ in _CODES}
        for need, by_need in enumerate(_TAILS[width][pattern]):
            full = {takes: mult for _, takes, mult in _TAILS[width][0][need]}
            expanded = []
            for taken, takes, weight in by_need:
                assert sum(owner_points[b] for b in takes) == need
                assert sum(takes) == taken
                orderings = [
                    tuple(sum(parts, ()))
                    for parts in product(*(set(permutations(takes[r])) for r in runs))
                ]
                assert weight == sum(full[t] for t in orderings)
                expanded += orderings
            assert sorted(expanded) == sorted(full)
            totals = [taken for taken, _, _ in by_need]
            assert totals == sorted(totals)


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
#: and with every value equal, for 2 to 5 teams; some count zero.
REPEATED_DEFICITS = [
    (2, 2), (3, 3), (6, 6),
    (5, 5, 5), (6, 6, 6), (3, 3, 8), (5, 5, 8), (2, 6, 6), (4, 7, 7),
    (4, 4, 4, 4), (6, 6, 6, 6), (9, 9, 9, 9), (3, 3, 8, 18), (5, 5, 7, 7),
    (0, 9, 9, 14), (5, 6, 9, 9), (6, 6, 6, 9),
    (8, 8, 8, 8, 8), (9, 9, 9, 9, 9), (12, 12, 12, 12, 12),
    (10, 10, 10, 10, 12), (7, 7, 9, 9, 10), (8, 9, 9, 9, 10),
    (0, 11, 11, 11, 22), (6, 10, 10, 10, 10), (0, 6, 17, 17, 17),
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
        for m in range(2, 6):
            cases = [d for d in REPEATED_DEFICITS if len(d) == m]
            assert any(_solve(d, {}) for d in cases), m
            assert not all(_solve(d, {}) for d in cases), m

    @pytest.mark.parametrize("n, size", [(6, 611), (7, 3855)])
    def test_shared_memo_size(self, n, size):
        # The fold skips lookups, never keys: one shared-memo pass over the
        # SEARCH profiles leaves the same memo as the unfolded tables did.
        memo = {}
        for p in search_profiles(n):
            count_completions(p, memo=memo)
        assert len(memo) == size


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


class TestPrefixSplitting:
    def test_split_prefixes_shape(self):
        p = Profile((4, 3, 3, 0))
        assert split_prefixes(p, 0) == [()]
        assert len(split_prefixes(p, 2)) == 36
        with pytest.raises(ValueError):
            split_prefixes(p, 4)
