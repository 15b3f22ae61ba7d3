"""Online estimator used by the schedulers.

:class:`Ewma` backs the transaction stats table's expected-commit-time
estimate.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Ewma"]


class Ewma:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of the newest observation.  Before any
    observation the estimate falls back to ``initial`` (if given) or raises.
    """

    __slots__ = ("alpha", "_mean", "count", "_initial")

    def __init__(self, alpha: float = 0.25, initial: Optional[float] = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._initial = initial
        self._mean: Optional[float] = None
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._mean is None:
            self._mean = value
            return
        self._mean += self.alpha * (value - self._mean)

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

    def __repr__(self) -> str:
        est = f"{self.value:.4g}" if self.available else "n/a"
        return f"<Ewma alpha={self.alpha} n={self.count} value={est}>"
