"""Seeded random-number utilities.

All stochastic elements in the reproduction (sensor noise, workload
generation, attack timing, weather sampling) draw from a :class:`SeededRNG`
so that every experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class SeededRNG:
    """Thin wrapper around :class:`numpy.random.Generator` with helpers used
    across the library (UUniFast task-set generation, bounded normals)."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def spawn(self, offset: int) -> "SeededRNG":
        """Derive an independent child generator; useful to decouple streams
        (e.g. sensor noise vs attack timing) while keeping determinism."""
        return SeededRNG(child_seed(self.seed, offset))

    # -- basic draws ------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return int(self._rng.integers(low, high + 1))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self._rng.normal(mean, std))

    def bounded_normal(self, mean: float, std: float, low: float, high: float) -> float:
        """Normal draw clipped to ``[low, high]``; used for physical quantities
        that must stay in a plausible range (sensor quality, temperatures)."""
        return float(np.clip(self._rng.normal(mean, std), low, high))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self._rng.integers(0, len(items)))
        return items[index]

    def shuffle(self, items: Sequence[T]) -> List[T]:
        result = list(items)
        self._rng.shuffle(result)  # type: ignore[arg-type]
        return result

    def bernoulli(self, p: float) -> bool:
        return bool(self._rng.uniform() < p)

    # -- domain-specific helpers -----------------------------------------

    def uunifast(self, n: int, total_utilization: float) -> List[float]:
        """UUniFast: draw ``n`` task utilizations summing to ``total_utilization``.

        Standard workload generator for schedulability experiments (Bini &
        Buttazzo); used by the E9 WCRT acceptance bench and MCC tests.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if total_utilization <= 0:
            raise ValueError("total utilization must be positive")
        utilizations: List[float] = []
        remaining = total_utilization
        for i in range(1, n):
            next_remaining = remaining * self._rng.uniform() ** (1.0 / (n - i))
            utilizations.append(remaining - next_remaining)
            remaining = next_remaining
        utilizations.append(remaining)
        return utilizations

    def log_uniform_periods(self, n: int, low: float, high: float) -> List[float]:
        """Periods drawn log-uniformly in ``[low, high]`` (common in timing
        analysis experiments so that period magnitudes spread over decades)."""
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        lo, hi = np.log(low), np.log(high)
        return [float(np.exp(self._rng.uniform(lo, hi))) for _ in range(n)]


def child_seed(seed: Optional[int], offset: int) -> int:
    """The seed of ``SeededRNG(seed).spawn(offset)``.

    ``SeededRNG(child_seed(seed, offset))`` draws the child's stream without
    seeding the parent generator first.
    """
    base = 0 if seed is None else seed
    return base * 1_000_003 + offset


def derive_seed(base: int, *components: object) -> int:
    """Derive a deterministic child seed from a base seed and a run identity.

    The experiment runner uses this to give every run of a sweep its own
    independent-but-reproducible seed: the derivation depends only on the
    base seed and the hashable identity components (e.g. the spec name and
    the run index), never on process or scheduling order, so serial and
    parallel executions of the same sweep draw identical random streams.
    """
    text = repr((int(base),) + components).encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
