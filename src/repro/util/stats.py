"""Online estimator used by the schedulers.

:class:`Ewma` backs the transaction stats table's expected-commit-time
estimate.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["Ewma"]


class Ewma:
    """Exponentially weighted moving average with optional variance tracking.

    ``alpha`` is the weight of the newest observation.  Before any
    observation the estimate falls back to ``initial`` (if given) or raises.
    """

    __slots__ = ("alpha", "_mean", "_var", "count", "_initial")

    def __init__(self, alpha: float = 0.25, initial: Optional[float] = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._initial = initial
        self._mean: Optional[float] = None
        self._var = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._mean is None:
            self._mean = value
            self._var = 0.0
            return
        delta = value - self._mean
        incr = self.alpha * delta
        self._mean += incr
        # West (1979) EW variance update.
        self._var = (1.0 - self.alpha) * (self._var + delta * incr)

    @property
    def available(self) -> bool:
        return self._mean is not None or self._initial is not None

    @property
    def value(self) -> float:
        if self._mean is not None:
            return self._mean
        if self._initial is not None:
            return self._initial
        raise ValueError("Ewma has no observations and no initial value")

    @property
    def stdev(self) -> float:
        return math.sqrt(self._var)

    def __repr__(self) -> str:
        est = f"{self.value:.4g}" if self.available else "n/a"
        return f"<Ewma alpha={self.alpha} n={self.count} value={est}>"
