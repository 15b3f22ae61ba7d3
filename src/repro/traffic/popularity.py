"""Object popularity: Zipf skew over object ranks.

Closed-loop workloads select objects uniformly (or with a static
per-workload skew).  Under open-loop traffic, a
:class:`PopularityModel` is installed on the workload
(:attr:`repro.workloads.base.Workload.popularity`) and every object
selection routes through it.
``s = 0`` is uniform; larger ``s`` concentrates probability mass on a
few hot objects (rank ``r`` is object ``r`` and has weight
``1/(r+1)^s``), making load non-uniform across homes.

The model holds no RNG of its own: every draw consumes the caller's
named seeded stream, so arrival streams stay byte-identical per seed.

Every ``s > 0`` draw goes through :func:`zipf_draw`, the one weighted
sampler (``repro.workloads.base.zipf_choice`` uses it too).  It returns
exactly what ``Generator.choice(n, size, replace, p=weights)`` would and
leaves the stream where ``choice`` would, but bisects a cached CDF per
``rng.random()`` double instead of paying ``choice``'s per-call
validation, ``cumsum`` and ``np.unique``:

* with replacement (and :meth:`PopularityModel.pick`), each double is
  ``bisect_right`` over the CDF — numpy's ``searchsorted(side='right')``;
* without replacement, numpy's rejection loop is replayed: each round
  draws ``size - found`` doubles; from the second round on, the found
  ranks' weights are zeroed and the CDF rebuilt (so they cannot recur),
  and the new ranks of a round are kept in first-occurrence order, which
  is what ``np.unique(return_index=True)`` plus ``sort`` yields.

The CDF is ``accumulate`` then division by its last entry — numpy's
``np.cumsum(p); cdf /= cdf[-1]``, addition for addition.  The weights are
built in plain Python as numpy's ``1.0 / np.power(arange(1, n + 1), s)``
then ``/= sum``, with the sum in numpy's pairwise order, so the module
never imports numpy.  Python's ``**`` is libm's ``pow``; numpy's SIMD
``pow`` can differ from it by an ulp (DESIGN.md, "The import rule"), so
a table equals libm's on every host, and numpy's where its ``pow`` is
libm's.  ``s = 0`` stays on ``rng.choice`` / ``rng.integers``: that is
the closed-loop draw the uniform path must equal byte for byte.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from typing import TYPE_CHECKING, List, Tuple

from repro.net.topology import pairwise_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import Stream

__all__ = ["PopularityModel", "zipf_draw"]

#: numpy's tolerance on ``sum(p) == 1`` in ``Generator.choice``
_SUM_ATOL = math.sqrt(sys.float_info.epsilon)


def _cdf(weights: List[float]) -> List[float]:
    """``np.cumsum(weights) / last`` in the same float operations."""
    cdf = list(itertools.accumulate(weights))
    last = cdf[-1]
    return [c / last for c in cdf]


def _weight(rank: int, s: float) -> float:
    """``1 / rank**s``; 0.0 where the power overflows, as numpy's
    ``1 / inf`` is."""
    try:
        return 1.0 / float(rank) ** s
    except OverflowError:
        return 0.0


@functools.lru_cache(maxsize=None)
def _table(n: int, s: float) -> Tuple[List[float], List[float], int]:
    """Rank weights ``1/(r+1)^s`` normalised, their CDF, and how many
    are positive (a large ``s`` underflows the tail to 0)."""
    raw = [_weight(rank, s) for rank in range(1, n + 1)]
    norm = pairwise_sum(raw)
    weights = [w / norm for w in raw]
    total = math.fsum(weights)
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    return weights, _cdf(weights), sum(1 for w in weights if w > 0)


def zipf_draw(
    rng: Stream, n: int, s: float, size: int, replace: bool
) -> List[int]:
    """``size`` ranks from [0, n) with weight ``1/(r+1)^s`` — what
    ``rng.choice(n, size, replace, p=weights)`` returns, as a list."""
    if s == 0:
        return [int(i) for i in rng.choice(n, size, replace=replace)]
    weights, cdf, positive = _table(n, float(s))
    bisect_right = bisect.bisect_right
    found: List[int] = []
    if replace:
        for x in rng.random(size):
            found.append(bisect_right(cdf, x))
        return found
    if size > n:
        raise ValueError(
            "Cannot take a larger sample than population when replace is False"
        )
    if positive < size:
        raise ValueError("Fewer non-zero entries in p than size")
    while len(found) < size:
        draws = rng.random(size - len(found))
        if found:
            weights = list(weights)
            for rank in found:
                weights[rank] = 0.0
            cdf = _cdf(weights)
        for x in draws:
            rank = bisect_right(cdf, x)
            # earlier rounds' ranks have zero width: only this round's repeat
            if rank not in found:
                found.append(rank)
    return found


class PopularityModel:
    """Zipf(s) object selection: object 0 is the hottest."""

    def __init__(self, s: float = 0.0) -> None:
        if s < 0:
            raise ValueError(f"zipf s must be >= 0, got {s}")
        self.s = float(s)

    def pick_many(
        self,
        rng: Stream,
        n: int,
        size: int,
        replace: bool = True,
    ) -> List[int]:
        """Draw ``size`` object indices from [0, n)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return zipf_draw(rng, n, self.s, size, replace)

    def pick(self, rng: Stream, n: int) -> int:
        """Draw one object index from [0, n)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if self.s == 0:
            return int(rng.integers(0, n))
        return bisect.bisect_right(_table(n, self.s)[1], rng.random())

    def __repr__(self) -> str:
        return f"<PopularityModel s={self.s}>"
