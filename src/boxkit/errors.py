"""Exception types and the subset budgets shared across the package."""

from math import comb


class BudgetExceededError(Exception):
    """A combinatorial search or sampling budget was exhausted.

    Raised instead of returning a wrong or partial answer, so callers can
    distinguish "could not decide within budget" from a definite result.
    """


SUBSET_BUDGET = 10**7


def check_subset_budget(n: int, k: int) -> None:
    """Refuse a scan over all k-subsets of n items above SUBSET_BUDGET."""
    if comb(n, k) > SUBSET_BUDGET:
        raise BudgetExceededError(f"C({n},{k}) subsets exceed {SUBSET_BUDGET}")


# The supergraph DP keeps a table over all 2^n vertex subsets, one byte
# per subset up to n = 23 and two at the cap (32 MB).
SUPERGRAPH_MAX_VERTICES = 24
# The isoperimetric profile scans all 2^n vertex subsets in bounded
# chunks, so time alone sets its cap.
PROFILE_MAX_VERTICES = 28


def check_vertex_cap(n: int, cap: int) -> None:
    """Refuse a scan over all 2^n vertex subsets above cap vertices."""
    if n > cap:
        raise BudgetExceededError(f"a scan of all 2^{n} vertex subsets is capped at n <= {cap}")
