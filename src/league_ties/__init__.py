"""Exact counting of tied double round-robin seasons under 3/1/0 scoring.

Two independent routes produce the totals through n=5: a brute-force
enumeration of all match outcomes (the oracle, practical to n=5) and an
optimised counter that folds away symmetries, prunes impossible first-team
profiles and searches the rest (practical to n=8).  The totals for n=6..8
rest on the optimised counter, whose per-profile counts are checked
against a plain recursive row search (``brute.completions_search``).
"""

from .brute import count_completions_bruteforce, count_tied_bruteforce
from .engine import ENGINE_VERSION, KNOWN_TOTALS, TiedCountReport, count_tied, resume
from .eulerian import eulerian_count, eulerian_count_bruteforce
from .profiles import (
    Profile,
    ProfileClass,
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)
from .scoring import LeagueSize, complement, pair_outcome, result_points
from .search import count_completions

__version__ = ENGINE_VERSION

#: The counting kernels are pure Python; benchmark records name this backend.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "KNOWN_TOTALS",
    "LeagueSize",
    "Profile",
    "ProfileClass",
    "TiedCountReport",
    "classify_profile",
    "complement",
    "count_completions",
    "count_completions_bruteforce",
    "count_tied",
    "count_tied_bruteforce",
    "doubling_factor",
    "eulerian_count",
    "eulerian_count_bruteforce",
    "iter_profiles",
    "pair_outcome",
    "representation_factor",
    "resume",
    "result_points",
    "__version__",
]
