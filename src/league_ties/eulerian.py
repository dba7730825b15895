"""Labeled Eulerian digraph counts.

A draw-free tied season corresponds to a loop-free digraph on the teams with
an arc for every home win; every team then wins exactly n-1 matches, which
is the same as every vertex having equal in- and out-degree.  Antiparallel
arcs may coexist (both teams winning at home) but no arc repeats in one
direction.  The closed-form contribution of the draw-free profile class is
therefore the number of such digraphs.
"""

from __future__ import annotations

from .errors import SizeRefusedError

#: Labeled Eulerian digraphs on n nodes (OEIS A007080).  The test suite
#: re-derives entries up to n=5 by brute force, and every entry from the
#: deficit DP's draw-free level P = 3n - 3 (route A), none trusted blindly.
EULERIAN_COUNTS: dict[int, int] = {
    2: 2,
    3: 10,
    4: 152,
    5: 7736,
    6: 1375952,
    7: 877901648,
    8: 2046320373120,
    9: 17658221702361472,
}

#: Largest n the brute verifier will sweep: 2**(n*(n-1)) arc subsets.
BRUTE_CEILING = 5


def eulerian_count(n: int) -> int:
    """Table lookup of the labeled Eulerian digraph count."""
    try:
        return EULERIAN_COUNTS[n]
    except KeyError:
        bounds = f"{min(EULERIAN_COUNTS)}..{max(EULERIAN_COUNTS)}"
        raise SizeRefusedError(
            f"no Eulerian digraph count tabulated for n={n}; table covers {bounds}"
        ) from None


def eulerian_count_bruteforce(n: int) -> int:
    """Count Eulerian digraphs by sweeping all arc subsets.

    Every subset of the ``n*(n-1)`` possible arcs is one digraph; it counts
    when each vertex's out-degree equals its in-degree.
    """
    if not 2 <= n <= BRUTE_CEILING:
        raise SizeRefusedError(
            f"digraph sweep covers 2 <= n <= {BRUTE_CEILING}; "
            f"n={n} means 2**{n * (n - 1)} subsets"
        )
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out_mask = [0] * n
    in_mask = [0] * n
    for bit, (i, j) in enumerate(arcs):
        out_mask[i] |= 1 << bit
        in_mask[j] |= 1 << bit
    count = 0
    for mask in range(1 << len(arcs)):
        for v in range(n):
            if (mask & out_mask[v]).bit_count() != (mask & in_mask[v]).bit_count():
                break
        else:
            count += 1
    return count
