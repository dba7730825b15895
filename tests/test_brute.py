"""Brute-force oracles: encodings, tallies, season and completion sweeps."""

from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from league_ties import brute
from league_ties.brute import (
    completions_sweep,
    count_completions_bruteforce,
    count_tied_block,
    count_tied_bruteforce,
    decode_outcome,
    encode_outcome,
    tally_points,
)
from league_ties.errors import SizeRefusedError
from league_ties.scoring import (
    PAIR_MULTIPLICITY,
    PAIR_POINTS,
    LeagueSize,
    TAKE_VALUES,
    match_order,
    result_points,
)


@cache
def completion_weights(k):
    """Weight of every point gain vector over all 6**C(k,2) code assignments."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    weights = Counter()
    for codes in product(range(6), repeat=len(pairs)):
        gains = [0] * k
        weight = 1
        for (i, j), c in zip(pairs, codes):
            gains[i] += PAIR_POINTS[c][0]
            gains[j] += PAIR_POINTS[c][1]
            weight *= PAIR_MULTIPLICITY[c]
        weights[tuple(gains)] += weight
    return weights


class TestEncoding:
    def test_zero_is_all_away_wins(self):
        assert decode_outcome(0, LeagueSize(2)) == (0, 0)

    def test_repunit_is_all_draws(self):
        for n in (2, 3, 4):
            size = LeagueSize(n)
            e = (3**size.matches - 1) // 2
            assert decode_outcome(e, size) == tuple([1] * size.matches)

    def test_small_arithmetic(self):
        # 4 = 1 + 1*3 -> digits (1, 1)
        assert decode_outcome(4, LeagueSize(2)) == (1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode_outcome(3**2, LeagueSize(2))
        with pytest.raises(ValueError):
            decode_outcome(-1, LeagueSize(2))

    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_round_trip(self, n, data):
        size = LeagueSize(n)
        e = data.draw(st.integers(min_value=0, max_value=3**size.matches - 1))
        assert encode_outcome(decode_outcome(e, size), size) == e


class TestTally:
    def test_two_team_draws(self):
        assert tally_points((1, 1), LeagueSize(2)) == (2, 2)

    def test_two_team_home_wins(self):
        # Both teams win at home: 3 points each; checks the conservation
        # identity 6 = 2*M + 2 non-draws with M = 2.
        assert tally_points((2, 2), LeagueSize(2)) == (3, 3)

    def test_three_team_all_draws(self):
        assert tally_points((1,) * 6, LeagueSize(3)) == (4, 4, 4)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            tally_points((1, 1, 1), LeagueSize(2))

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_conservation(self, n, data):
        size = LeagueSize(n)
        e = data.draw(st.integers(min_value=0, max_value=3**size.matches - 1))
        results = decode_outcome(e, size)
        non_draws = sum(1 for r in results if r != 1)
        assert sum(tally_points(results, size)) == 2 * size.matches + non_draws


class TestSeasonSweep:
    def test_published_small_counts(self):
        assert count_tied_bruteforce(2) == 3
        assert count_tied_bruteforce(3) == 27

    def test_chunking_and_workers_do_not_matter(self):
        expected = count_tied_bruteforce(3)
        assert count_tied_bruteforce(3, workers=2) == expected

    def test_ceiling(self):
        with pytest.raises(SizeRefusedError):
            count_tied_bruteforce(6)

    # n = 5 is the first size whose odometer closes team 0's home row of
    # four matches; block 31337 holds 8 ties.
    @pytest.mark.parametrize("n, block", [(2, 0), (3, 0), (4, 0), (4, 8), (5, 31337)])
    def test_whole_block_matches_reference(self, n, block):
        # A block is 3**min(M, 10) aligned encodings; the reference decodes
        # and tallies each one, and files each tie under its level.
        size = LeagueSize(n)
        span = 3 ** min(size.matches, 10)
        want = [0] * n
        for e in range(block * span, (block + 1) * span):
            points = tally_points(decode_outcome(e, size), size)
            if min(points) == max(points):
                want[points[0] - (2 * n - 2)] += 1
        assert count_tied_block(n, block) == tuple(want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_home_row_keys_are_distinct(self, n):
        # One lookup tests every home row of team 0 only if no two rows
        # close the same gaps.
        assert len(brute.home_row_table(n)) == 3 ** (n - 1)

    def test_block_out_of_range(self):
        with pytest.raises(ValueError):
            count_tied_block(3, 1)
        with pytest.raises(ValueError):
            count_tied_block(4, -1)
        with pytest.raises(ValueError):
            count_tied_block(4, 9)
        with pytest.raises(ValueError):
            count_tied_block(6, 0)  # above BRUTE_CEILING

    def test_one_range_runs_in_process(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a one-range sweep started a pool")

        monkeypatch.setattr(brute, "Pool", no_pool)
        assert count_tied_bruteforce(2, workers=4) == 3
        assert count_tied_bruteforce(3, workers=4) == 27

    def test_pool_no_wider_than_ranges(self, monkeypatch):
        sizes = []
        real_pool = brute.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(brute, "Pool", recording_pool)
        assert count_tied_bruteforce(4, workers=16) == 1083
        assert sizes == [9]

    def test_home_away_flip_symmetry(self):
        # Swapping home and away in every match permutes outcomes and must
        # preserve the tied count; count with a flipped tally to check.
        for n in (2, 3):
            size = LeagueSize(n)
            flipped = 0
            for e in range(3**size.matches):
                results = decode_outcome(e, size)
                points = [0] * n
                for (h, a), r in zip(match_order(n), results):
                    ph, pa = result_points(r)
                    points[h] += pa  # roles reversed
                    points[a] += ph
                if min(points) == max(points):
                    flipped += 1
            assert flipped == count_tied_bruteforce(n)


class TestFold:
    @pytest.mark.parametrize("bound", [1, 2, 5])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_vectors_within_bound_fold_apart(self, bound, width):
        # Digits 0..bound differ by at most bound in every place; the last
        # place may differ by any amount.
        weights = brute._fold_weights(bound, width)
        lower = [range(bound + 1)] * (width - 1)
        vectors = list(product(*lower, range(-10, 11)))
        keys = {sum(d * w for d, w in zip(v, weights)) for v in vectors}
        assert len(keys) == len(vectors)


class TestCompletionSweep:
    def test_two_opponents_needing_mirror_pair(self):
        # Opponents start on 1 and 4 points and both must reach 5: only the
        # (4, 1) tuple works and it carries multiplicity 2.
        assert count_completions_bruteforce((4, 1), LeagueSize(3)) == 2

    def test_two_opponents_unreachable(self):
        assert count_completions_bruteforce((3, 2), LeagueSize(3)) == 0

    def test_single_opponent(self):
        # n=2: no matches remain; the count is 1 exactly when the opponent
        # already sits on the target, i.e. the take equals its complement.
        assert count_completions_bruteforce((2,), LeagueSize(2)) == 1
        assert count_completions_bruteforce((3,), LeagueSize(2)) == 1
        assert count_completions_bruteforce((6,), LeagueSize(2)) == 0

    def test_ceiling(self):
        with pytest.raises(SizeRefusedError):
            count_completions_bruteforce((4, 4, 4, 3, 0), LeagueSize(6))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            count_completions_bruteforce((4, 5), LeagueSize(3))
        with pytest.raises(ValueError):
            count_completions_bruteforce((4,), LeagueSize(3))

    def test_rejects_take_not_int(self):
        # (4.0, 1.0) would otherwise count the 2 completions of (4, 1).
        for takes, bad in [((4.0, 1.0), "4.0"), ((4, True), "True")]:
            with pytest.raises(ValueError, match=rf"^bad take {bad}; a take must be an int$"):
                count_completions_bruteforce(takes, LeagueSize(3))
        with pytest.raises(ValueError, match=r"^bad take 5; must be one of \(0, 1, 2, 3, 4, 6\)$"):
            count_completions_bruteforce((4, 5), LeagueSize(3))

    def test_team_count_range(self):
        for base in [(), (0,) * 9]:
            with pytest.raises(ValueError, match="^completion sweep supports 1 to 8 teams"):
                completions_sweep(base, 0)

    def test_search_team_count_range(self):
        # The recursive search refuses the same team counts as the sweep:
        # an empty base has no first row to search.
        for base in [(), (0,) * 9]:
            with pytest.raises(ValueError, match="^completion search supports 1 to 8 teams"):
                brute.completions_search(base, 0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_first_row_keys_are_distinct(self, k):
        # One lookup tests every code row of team 0 only if no two rows
        # share a key, for every fold bound the sweep picks: at least
        # 3(k - 1), when each team needs half of the most it can gain.
        for bound in range(3 * (k - 1), 3 * (k - 1) + 8):
            assert len(brute.first_row_table(k, bound)) == 6 ** (k - 1), bound

    @pytest.mark.parametrize("k, reach", [(2, 16), (3, 8)])
    def test_fold_bound_is_met_at_the_edges(self, k, reach):
        # Every base within reach of the target on each side, so that an
        # opponent ends exactly the fold bound away from it while the next
        # digit is one point off: a fold base one smaller counts such
        # misses as ties.
        weights = completion_weights(k)
        target = 20
        for base in product(range(target - reach, target + reach + 1), repeat=k):
            want = weights[tuple(target - b for b in base)]
            assert completions_sweep(base, target) == want, base

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstructs_season_count(self, n):
        # Summing doubling * completions over all ordered take vectors of
        # the first team must reproduce the full season sweep.
        from itertools import product

        total = 0
        for takes in product(TAKE_VALUES, repeat=n - 1):
            doubling = 2 ** sum(1 for t in takes if t in (1, 3, 4))
            total += doubling * count_completions_bruteforce(takes, LeagueSize(n))
        assert total == count_tied_bruteforce(n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_matches_product_reference(self, k, data):
        # Start from a reachable gain vector and nudge some teams off it, so
        # both non-zero and zero counts are drawn, and some bases lie far
        # from the target, which widens the fold.
        weights = completion_weights(k)
        target = data.draw(st.integers(min_value=0, max_value=30))
        gains = data.draw(st.sampled_from(sorted(weights)))
        shifts = (0, 0, 0, 1, -1, 3, 20, -20, 40, -40)
        nudges = data.draw(st.lists(st.sampled_from(shifts), min_size=k, max_size=k))
        base = tuple(target - g + d for g, d in zip(gains, nudges))
        want = weights[tuple(target - b for b in base)]
        assert completions_sweep(base, target) == want
