"""Exception types and the subset budget shared across the package."""

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
