"""Object popularity: Zipf skew around a movable hotspot.

Closed-loop workloads select objects uniformly (or with a static
per-workload skew).  Under open-loop traffic, a
:class:`PopularityModel` is installed on the workload
(:attr:`repro.workloads.base.Workload.popularity`) and every object
selection routes through it:

* ``s = 0`` is uniform; larger ``s`` concentrates probability mass on a
  few hot objects (rank ``r`` has weight ``1/(r+1)^s``), making load
  non-uniform across homes;
* the rank→object mapping rotates by a shift that scenario scripts jump
  (:meth:`PopularityModel.set_hotspot_shift`) at exact phase
  boundaries — a *moving* hotspot no static placement can absorb.

The model holds no RNG of its own: every draw consumes the caller's
named seeded stream, so arrival streams stay byte-identical per seed.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["PopularityModel"]


class PopularityModel:
    """Zipf(s) object selection with a rotating hotspot."""

    def __init__(self, s: float = 0.0) -> None:
        if s < 0:
            raise ValueError(f"zipf s must be >= 0, got {s}")
        self.s = float(s)
        #: scenario-controlled extra rotation (phase boundaries jump it)
        self.shift = 0
        #: (n, s) -> normalised rank weights (reused across draws)
        self._weights: Dict[Tuple[int, float], np.ndarray] = {}

    # -- retargeting (scenario hooks) -----------------------------------

    def set_skew(self, s: float) -> None:
        if s < 0:
            raise ValueError(f"zipf s must be >= 0, got {s}")
        self.s = float(s)

    def set_hotspot_shift(self, shift: int) -> None:
        self.shift = int(shift)

    # -- selection -------------------------------------------------------

    def _rank_weights(self, n: int) -> np.ndarray:
        key = (n, self.s)
        weights = self._weights.get(key)
        if weights is None:
            weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), self.s)
            weights /= weights.sum()
            self._weights[key] = weights
        return weights

    def hotspot(self, n: int) -> int:
        """The index of the currently hottest object (rank 0)."""
        return self.shift % n

    def pick_many(
        self,
        rng: np.random.Generator,
        n: int,
        size: int,
        replace: bool = True,
    ) -> np.ndarray:
        """Draw ``size`` object indices from [0, n)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if self.s == 0:
            ranks = rng.choice(n, size, replace=replace)
        else:
            ranks = rng.choice(n, size=size, replace=replace, p=self._rank_weights(n))
        return (ranks + self.hotspot(n)) % n

    def pick(self, rng: np.random.Generator, n: int) -> int:
        """Draw one object index from [0, n)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if self.s == 0:
            rank = int(rng.integers(0, n))
        else:
            rank = int(rng.choice(n, p=self._rank_weights(n)))
        return (rank + self.hotspot(n)) % n

    def __repr__(self) -> str:
        return f"<PopularityModel s={self.s} shift={self.shift}>"
