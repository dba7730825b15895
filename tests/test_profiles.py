"""Profile generation, weights and classification."""

from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from league_ties.brute import count_completions_bruteforce
from league_ties.profiles import (
    PRUNED_CLASSES,
    Profile,
    ProfileClass,
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)
from league_ties.scoring import DOUBLED_TAKES, TAKE_VALUES, complement
from league_ties.search import count_completions

profiles_st = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.lists(
        st.sampled_from(TAKE_VALUES), min_size=n - 1, max_size=n - 1
    ).map(lambda takes: Profile(tuple(sorted(takes, reverse=True))))
)


class TestProfileType:
    def test_rejects_ascending(self):
        message = r"^takes must be weakly descending, got \(4, 1, 3\)$"
        with pytest.raises(ValueError, match=message):
            Profile((4, 1, 3))

    def test_rejects_bad_take(self):
        # The first bad take is named; an unhashable one is a bad take too.
        for takes, bad in [((5,), "5"), ((6, 5, 7), "5"), ((6, [1]), r"\[1\]")]:
            message = rf"^bad take {bad}; must be one of \(0, 1, 2, 3, 4, 6\)$"
            with pytest.raises(ValueError, match=message):
                Profile(takes)

    def test_rejects_take_not_int(self):
        # A take equal to a take value but not an int is refused, as
        # LeagueSize refuses such a team count: no reading 4.0 as 4.
        cases = [((4.0, 3.0, 3.0, 0.0), "4.0"), ((True,), "True"), ((4, False), "False")]
        for takes, bad in cases:
            with pytest.raises(ValueError, match=rf"^bad take {bad}; a take must be an int$"):
                Profile(takes)

    def test_accepts_int_subclass(self):
        class Take(int):
            pass

        assert Profile((Take(4), 3)).takes == (4, 3)

    def test_takes_are_stored_as_a_tuple(self):
        from_list = Profile([4, 3, 3, 0])
        assert from_list.takes == (4, 3, 3, 0)
        assert from_list == Profile((4, 3, 3, 0))
        assert hash(from_list) == hash(Profile((4, 3, 3, 0)))
        assert len({from_list, Profile((4, 3, 3, 0))}) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^profile must cover at least one opponent$"):
            Profile(())

    @given(profiles_st)
    def test_points_bounds(self, profile):
        # Each encounter hands the pair 4..6 points in total.
        spread = profile.taken + profile.conceded
        assert 4 * (profile.n - 1) <= spread <= 6 * (profile.n - 1)


class TestGeneration:
    def test_two_teams(self):
        takes = [p.takes for p in iter_profiles(2)]
        assert takes == [(6,), (4,), (3,), (2,), (1,), (0,)]

    @pytest.mark.parametrize("n,count", [(2, 6), (3, 21), (4, 56), (5, 126)])
    def test_multiset_counts(self, n, count):
        # Multisets of size n-1 from 6 values.
        assert comb(n - 1 + 5, 5) == count
        profiles = list(iter_profiles(n))
        assert len(profiles) == count
        assert len(set(profiles)) == count

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_profiles_pass_the_constructor(self, n):
        # iter_profiles skips the constructor's checks; each of its profiles
        # must pass them all the same.
        for p in iter_profiles(n):
            assert Profile(p.takes) == p
            assert all(type(t) is int for t in p.takes)

    def test_descending_lex_order(self):
        profiles = [p.takes for p in iter_profiles(4)]
        assert profiles[0] == (6, 6, 6)
        assert profiles[-1] == (0, 0, 0)
        assert profiles == sorted(profiles, reverse=True)

    def test_covers_every_ordered_vector(self):
        canonical = {p.takes for p in iter_profiles(3)}
        for vec in product(TAKE_VALUES, repeat=2):
            assert tuple(sorted(vec, reverse=True)) in canonical


class TestWeights:
    def test_representation_examples(self):
        assert representation_factor(Profile((4, 3, 3, 0))) == 12
        assert representation_factor(Profile((2, 2, 2, 2))) == 1
        assert representation_factor(Profile((6, 4, 3, 1))) == 24

    @given(profiles_st)
    def test_representation_counts_distinct_orderings(self, profile):
        assert representation_factor(profile) == len(set(permutations(profile.takes)))

    def test_doubling_examples(self):
        assert doubling_factor(Profile((3, 3, 1))) == 8
        assert doubling_factor(Profile((6, 2, 0))) == 1
        assert doubling_factor(Profile((4, 3, 3, 0))) == 8

    @pytest.mark.parametrize("n", range(2, 9))
    def test_weight_identities(self, n):
        # Ordered take vectors: 6^(n-1); ordered home/away realisations of
        # the first team's 2(n-1) matches: 9^(n-1).
        reps = 0
        weighted = 0
        for p in iter_profiles(n):
            r = representation_factor(p)
            reps += r
            weighted += r * doubling_factor(p)
        assert reps == 6 ** (n - 1)
        assert weighted == 9 ** (n - 1)


class TestClassification:
    def test_all_draw_profile(self):
        assert classify_profile(Profile((2, 2, 2, 2))) is ProfileClass.ALL_DRAW_SPECIAL

    def test_exactly_one_all_draw_per_n(self):
        for n in range(2, 8):
            special = [
                p for p in iter_profiles(n)
                if classify_profile(p) is ProfileClass.ALL_DRAW_SPECIAL
            ]
            assert [p.takes for p in special] == [(2,) * (n - 1)]

    def test_low_total_siblings_are_pruned(self):
        # Same total as the all-draw profile but not all draws.
        assert classify_profile(Profile((4, 2, 1, 1))) is ProfileClass.PRUNED_LOW

    def test_high_cutoff(self):
        assert classify_profile(Profile((6, 6, 6, 6))) is ProfileClass.PRUNED_HIGH

    def test_draw_free_total_with_drawish_take_is_pruned(self):
        # taken = 12 = 3(n-1) at n=5, but the take 4 needs a draw somewhere.
        assert classify_profile(Profile((4, 4, 4, 0))) is ProfileClass.PRUNED_HIGH

    def test_eulerian_profiles_are_draw_free_vectors(self):
        for n in range(2, 8):
            got = {
                p.takes
                for p in iter_profiles(n)
                if classify_profile(p) is ProfileClass.EULERIAN_SPECIAL
            }
            want = {
                tuple(sorted(vec, reverse=True))
                for vec in product((0, 3, 6), repeat=n - 1)
                if sum(vec) == 3 * (n - 1)
            }
            assert got == want

    def test_spread_bounds_at_five_teams(self):
        # (4,4,1,0): the other four teams would have to share 24 points in
        # their twelve mutual matches, below the feasible minimum of 27.
        assert classify_profile(Profile((4, 4, 1, 0))) is ProfileClass.PRUNED_SPREAD_LOW
        # (4,3,3,0): 27 points needed, inside [27, 33].
        assert classify_profile(Profile((4, 3, 3, 0))) is ProfileClass.SEARCH

    def test_search_band_for_five_teams(self):
        for p in iter_profiles(5):
            if classify_profile(p) is ProfileClass.SEARCH:
                assert 2 * 5 - 1 <= p.taken <= 3 * 5 - 4

    def test_classification_is_total(self):
        for n in range(2, 8):
            for p in iter_profiles(n):
                assert classify_profile(p) in ProfileClass

    @pytest.mark.parametrize("n", [3, 4])
    def test_pruned_profiles_have_no_completions(self, n):
        for p in iter_profiles(n):
            if classify_profile(p) in PRUNED_CLASSES:
                assert count_completions_bruteforce(p.takes, n) == 0, p.takes

    @pytest.mark.parametrize("n, pruned", [(6, 204), (7, 358), (8, 573), (9, 918)])
    def test_pruned_profiles_have_no_dp_completions(self, n, pruned):
        memo = {}
        checked = 0
        for p in iter_profiles(n):
            if classify_profile(p) in PRUNED_CLASSES:
                assert count_completions(p, memo=memo) == 0, p.takes
                checked += 1
        assert checked == pruned

    @pytest.mark.parametrize(
        "takes, completions",
        [((4, 1), 2), ((6, 2, 0), 1), ((6, 1, 1), 8), ((4, 4, 0), 8), ((4, 3, 1), 12)],
    )
    def test_sharpened_spread_bound_fails_below_five_teams(self, takes, completions):
        # These live profiles fall outside [2L+3, 3L-3], so the sharpened
        # bound used from n = 5 on would wrongly prune them at n = 3 and 4.
        p = Profile(takes)
        rest_matches = (p.n - 1) * (p.n - 2)
        spread = (p.n - 1) * p.taken - p.conceded
        assert not 2 * rest_matches + 3 <= spread <= 3 * rest_matches - 3
        assert classify_profile(p) is ProfileClass.SEARCH
        assert count_completions(p) == completions
        assert count_completions_bruteforce(takes, p.n) == completions

    def test_specials_are_consistent_with_sweep(self):
        # The all-draw profile completes exactly one way; a draw-free
        # special completes into draw-free assignments only.
        assert count_completions_bruteforce((2, 2), 3) == 1
        assert count_completions_bruteforce((2, 2, 2), 4) == 1

    @given(profiles_st)
    def test_conceded_matches_complements(self, profile):
        assert profile.conceded == sum(complement(t) for t in profile.takes)


def reference_layer(takes):
    """The profile layer's formulas as first written, one take at a time.

    Returns (class, representation, doubling, taken, conceded).
    """
    n = len(takes) + 1
    taken = 0
    for t in takes:
        taken += t
    conceded = sum(complement(t) for t in takes)
    representation = factorial(len(takes))
    for v in set(takes):
        representation //= factorial(takes.count(v))
    doubling = 2 ** sum(1 for t in takes if t in DOUBLED_TAKES)
    if taken < 2 * n - 2:
        cls = ProfileClass.PRUNED_LOW
    elif taken == 2 * n - 2:
        all_draw = all(t == 2 for t in takes)
        cls = ProfileClass.ALL_DRAW_SPECIAL if all_draw else ProfileClass.PRUNED_LOW
    elif taken == 3 * n - 3:
        draw_free = all(t in (0, 3, 6) for t in takes)
        cls = ProfileClass.EULERIAN_SPECIAL if draw_free else ProfileClass.PRUNED_HIGH
    elif taken > 3 * n - 3:
        cls = ProfileClass.PRUNED_HIGH
    else:
        rest_matches = (n - 1) * (n - 2)
        spread = (n - 1) * taken - conceded
        if n >= 5:
            low, high = 2 * rest_matches + 3, 3 * rest_matches - 3
        else:
            low, high = 2 * rest_matches, 3 * rest_matches
        if spread < low:
            cls = ProfileClass.PRUNED_SPREAD_LOW
        elif spread > high:
            cls = ProfileClass.PRUNED_SPREAD_HIGH
        else:
            cls = ProfileClass.SEARCH
    return cls, representation, doubling, taken, conceded


@pytest.mark.parametrize("n", range(2, 10))
def test_layer_matches_reference_formulas(n):
    seen = 0
    for p in iter_profiles(n):
        got = (
            classify_profile(p),
            representation_factor(p),
            doubling_factor(p),
            p.taken,
            p.conceded,
        )
        assert got == reference_layer(p.takes), p.takes
        seen += 1
    assert seen == comb(n + 4, 5)  # 1 287 at n = 9
