"""Uniform result record for every lower-bound method."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation.

    Inapplicable bounds carry a machine-readable reason and no value;
    they are reported rather than silently dropped so a sweep over many
    graphs never hides why a cell is empty.  ``value`` is an exact
    rational and ``ceiling`` its integer round-up, the usable bound on
    boxicity.  ``notes`` carries caveats that do not affect soundness.
    """

    name: str
    applicable: bool
    value: Fraction | None = None
    ceiling: int | None = None
    reason: str | None = None
    certificate: Any = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.applicable:
            if self.value is None or self.ceiling is None:
                raise ValueError(f"applicable report {self.name} needs a value")
        else:
            if self.value is not None or self.ceiling is not None:
                raise ValueError(f"inapplicable report {self.name} must not carry a value")
            if not self.reason:
                raise ValueError(f"inapplicable report {self.name} needs a reason")


def bound_report(name: str, value: Fraction, certificate: Any = None,
                 notes: tuple[str, ...] = ()) -> BoundReport:
    return BoundReport(
        name=name,
        applicable=True,
        value=value,
        ceiling=math.ceil(value),
        certificate=certificate,
        notes=notes,
    )


def not_applicable(name: str, reason: str) -> BoundReport:
    return BoundReport(name=name, applicable=False, reason=reason)
