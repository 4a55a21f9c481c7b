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


PROFILE_MAX_VERTICES = 24


def check_table_budget(n: int) -> None:
    """Refuse a table over all 2^n vertex subsets above PROFILE_MAX_VERTICES."""
    if n > PROFILE_MAX_VERTICES:
        raise BudgetExceededError(
            f"subset table needs 2^{n} entries; capped at n <= {PROFILE_MAX_VERTICES}"
        )
