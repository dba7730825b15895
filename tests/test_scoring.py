"""Scoring primitives: match results, pair outcomes, complements, tables."""

from pathlib import Path

import pytest

from league_ties.brute import count_tied_bruteforce
from league_ties.engine import count_tied
from league_ties.errors import IncompleteTableError
from league_ties.scoring import (
    DOUBLED_TAKES,
    LeagueSize,
    PAIR_MULTIPLICITY,
    PAIR_POINTS,
    TAKE_VALUES,
    ScoreTable,
    complement,
    match_order,
    pair_outcome,
    parse_score_table,
    result_points,
    table_points,
)

FIXTURE = Path(__file__).parent / "data" / "bundesliga_2021_22.txt"


class TestLeagueSize:
    def test_dimensions(self):
        for n in range(2, 11):
            size = LeagueSize(n)
            assert size.matches == n * (n - 1)
            assert size.rest_matches == (n - 1) * (n - 2)
            assert size.matches - size.rest_matches == 2 * (n - 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            LeagueSize(1)

    @pytest.mark.parametrize("size", [4.9, 4.0, "5", True], ids=repr)
    @pytest.mark.parametrize(
        "make", [LeagueSize, count_tied, count_tied_bruteforce],
        ids=lambda f: f.__name__,
    )
    def test_team_count_must_be_an_int(self, make, size):
        # No truncation to 4 or reading of "5": a size that is not an int
        # (bool included) is refused before anything is counted.
        with pytest.raises(ValueError, match="must be an int"):
            make(size)

    def test_match_order_is_home_major_and_complete(self):
        order = match_order(3)
        assert order == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for n in (2, 4, 5):
            order = match_order(n)
            assert len(order) == n * (n - 1)
            assert len(set(order)) == len(order)
            assert all(h != a for h, a in order)


class TestResultPoints:
    def test_home_win(self):
        assert result_points(2) == (3, 0)

    def test_draw(self):
        assert result_points(1) == (1, 1)

    def test_away_win(self):
        assert result_points(0) == (0, 3)

    @pytest.mark.parametrize("bad", [-1, 3, 7, "1", None])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            result_points(bad)

    def test_points_sum(self):
        # 2 points enter the table on a draw, 3 otherwise.
        for r in (0, 1, 2):
            h, a = result_points(r)
            assert h + a == (2 if r == 1 else 3)


class TestPairOutcome:
    def test_code_table(self):
        seen = [(pair_outcome(c).points_a, pair_outcome(c).points_b) for c in range(6)]
        assert tuple(seen) == PAIR_POINTS

    def test_multiplicities_match_raw_match_pairs(self):
        # Independent derivation: enumerate all 3x3 ordered (home leg, away
        # leg) results of one pairing and count how often each tuple occurs.
        realised = {}
        for r1 in (0, 1, 2):
            for r2 in (0, 1, 2):
                h1, a1 = result_points(r1)  # first leg: A at home
                h2, a2 = result_points(r2)  # second leg: B at home
                tup = (h1 + a2, a1 + h2)
                realised[tup] = realised.get(tup, 0) + 1
        assert realised == {
            PAIR_POINTS[c]: PAIR_MULTIPLICITY[c] for c in range(6)
        }

    def test_multiplicity_total_is_nine(self):
        assert sum(pair_outcome(c).multiplicity for c in range(6)) == 9

    def test_doubled_codes(self):
        assert pair_outcome(1).multiplicity == 2
        assert pair_outcome(3).multiplicity == 2
        assert pair_outcome(4).multiplicity == 2
        assert pair_outcome(2).multiplicity == 1
        assert pair_outcome(5).points_a == 6

    def test_point_sum_realisation_counts(self):
        sums = {4: 0, 5: 0, 6: 0}
        for c in range(6):
            o = pair_outcome(c)
            sums[o.points_a + o.points_b] += o.multiplicity
        assert sums == {4: 1, 5: 4, 6: 4}

    @pytest.mark.parametrize("bad", [-1, 6, 2.0, "3"])
    def test_rejects_bad_code(self, bad):
        with pytest.raises(ValueError):
            pair_outcome(bad)


class TestDerivedTables:
    """The encounter tables are folded from the match rule; pin their literals."""

    def test_pair_points_and_multiplicities(self):
        assert PAIR_POINTS == ((0, 6), (1, 4), (2, 2), (3, 3), (4, 1), (6, 0))
        assert PAIR_MULTIPLICITY == (1, 2, 1, 2, 2, 1)
        assert type(PAIR_POINTS) is tuple and type(PAIR_MULTIPLICITY) is tuple
        assert all(type(points) is tuple for points in PAIR_POINTS)

    def test_takes(self):
        assert TAKE_VALUES == (0, 1, 2, 3, 4, 6)
        assert DOUBLED_TAKES == {1, 3, 4}
        assert type(TAKE_VALUES) is tuple and type(DOUBLED_TAKES) is frozenset

    def test_complement_map(self):
        assert {t: complement(t) for t in TAKE_VALUES} == {
            0: 6, 1: 4, 2: 2, 3: 3, 4: 1, 6: 0
        }


class TestComplement:
    def test_pairs(self):
        assert complement(4) == 1
        assert complement(2) == 2
        assert complement(6) == 0

    def test_involution(self):
        for p in TAKE_VALUES:
            assert complement(complement(p)) == p

    @pytest.mark.parametrize("bad", [5, -1, 7, None])
    def test_rejects_non_takes(self, bad):
        with pytest.raises(ValueError):
            complement(bad)


class TestScoreTable:
    def test_fixture_is_all_level(self):
        table = parse_score_table(FIXTURE.read_text())
        assert table.n == 5
        assert table_points(table) == (10, 10, 10, 10, 10)

    def test_all_draws(self):
        for n in (2, 3, 5):
            text = "\n".join(
                " ".join("-" if i == j else "0:0" for j in range(n)) for i in range(n)
            )
            assert table_points(parse_score_table(text)) == tuple(
                2 * (n - 1) for _ in range(n)
            )

    def test_two_team_sweep(self):
        table = parse_score_table("- 1:0\n0:1 -")
        assert table_points(table) == (6, 0)

    def test_missing_cell_raises(self):
        table = ScoreTable(2, ((None, None), ((0, 1), None)))
        with pytest.raises(IncompleteTableError):
            table_points(table)

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_score_table("- 1:0\n0:1 - 2:2")

    def test_parse_rejects_off_diagonal_dash(self):
        with pytest.raises(ValueError):
            parse_score_table("- -\n0:1 -")

    def test_parse_rejects_garbage_cell(self):
        with pytest.raises(ValueError):
            parse_score_table("- a:b\n0:1 -")
