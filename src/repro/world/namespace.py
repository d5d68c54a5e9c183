"""TLD registry churn: initial cohorts, births, deaths.

The gTLD zones grew 1.09× over the study (140M → 152M names) while
individual names churned underneath. :class:`ChurnParameters` solves for
the constant daily birth rate that lands an initial cohort with geometric
deletion on a target end size; :class:`TldRegistry` then realises the
population as ``(name, created, deleted)`` rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple


@dataclass(frozen=True)
class ChurnParameters:
    """A zone's growth plan over the study horizon."""

    initial: int
    target_end: int
    horizon: int
    #: Geometric per-day deletion probability.
    deletion_rate: float

    def __post_init__(self) -> None:
        if self.initial < 0 or self.target_end < 0:
            raise ValueError("population sizes must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one day")
        if not 0.0 <= self.deletion_rate < 1.0:
            raise ValueError("deletion_rate must be in [0, 1)")

    @property
    def survival(self) -> float:
        """P(a day-0 name is still registered at the horizon)."""
        return (1.0 - self.deletion_rate) ** self.horizon

    def expected_survivors(self) -> float:
        return self.initial * self.survival

    def _birth_weight(self) -> float:
        """``Σ_{d=1..H} (1-p)^(H-d)`` — the per-unit-birth contribution.

        The closed form ``(1-p)(1-s)/p`` underflows for tiny p, where the
        sum approaches H; switch to the limit below p ≈ 1e-9.
        """
        p = self.deletion_rate
        if p < 1e-9:
            return float(self.horizon)
        return (1.0 - p) * (1.0 - self.survival) / p

    def daily_births(self) -> float:
        """The constant birth rate b solving

        ``target_end = initial·s + b·Σ_{d=1..H} (1-p)^(H-d)``.
        """
        needed = max(0.0, self.target_end - self.expected_survivors())
        return needed / max(self._birth_weight(), 1e-12)

    def expected_end(self) -> float:
        """Sanity check: the expected zone size at the horizon."""
        return (
            self.expected_survivors()
            + self.daily_births() * self._birth_weight()
        )


class TldRegistry:
    """Realises a zone's population as creation/deletion rows."""

    def __init__(
        self,
        tld: str,
        parameters: ChurnParameters,
        rng: random.Random,
        name_factory: Callable[[str], str],
    ):
        self.tld = tld
        self.parameters = parameters
        self._rng = rng
        self._name_factory = name_factory
        # Lifetimes past twice the horizon count as 'never deleted'.
        self._cap = 2 * parameters.horizon

    def _lifetime(self) -> Optional[int]:
        """Days until deletion (exponential), or None for 'beyond cap'."""
        rate = self.parameters.deletion_rate
        if rate <= 0:
            return None
        lifetime = int(self._rng.expovariate(rate)) + 1
        return lifetime if lifetime < self._cap else None

    def population(self) -> Iterator[Tuple[str, int, Optional[int]]]:
        """Yield ``(name, created, deleted)`` for the whole study.

        ``deleted`` is None when the name outlives the horizon.
        """
        horizon = self.parameters.horizon
        for _ in range(self.parameters.initial):
            yield self._row(created=0)
        carry = 0.0
        per_day = self.parameters.daily_births()
        for day in range(1, horizon):
            carry += per_day
            births = int(carry)
            carry -= births
            for _ in range(births):
                yield self._row(created=day)

    def _row(self, created: int) -> Tuple[str, int, Optional[int]]:
        name = self._name_factory(self.tld)
        lifetime = self._lifetime()
        deleted = None
        if (
            lifetime is not None
            and created + lifetime < self.parameters.horizon
        ):
            deleted = created + lifetime
        return name, created, deleted
