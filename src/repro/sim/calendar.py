"""Calendar-queue pending-event structure for the DES kernel.

The kernel's schedule used to be one global binary heap.  At the
10–80-node scale every layer (rpc batching, traffic arrivals, payload
fetches, fault timers) funnels through it, and the event mix is
dominated by *short-horizon deliveries* — many of them tied at the same
timestamp — plus a sparse band of far-future timers (lease reclaims,
crash windows, orphan sweeps).  That is exactly the distribution where
a calendar queue gives amortized O(1) scheduling: near-term events land
in time buckets (append, no sift), same-timestamp bursts share one
bucket, and the sparse long-delay band sits in an overflow heap that
never slows the hot window down.

Structure
---------

* **Buckets** — a hash-indexed array of time buckets: bucket ``i``
  covers ``[i*width, (i+1)*width)`` of simulated time and is stored in
  a dict keyed by the *absolute* bucket index ``int(when * 1/width)``
  (no wraparound years; Python's dict is the sparse array).  A small
  min-heap of the *distinct* non-empty bucket indices finds the next
  bucket without scanning empty bands — its size is the number of
  occupied buckets, not the number of events, so same-timestamp bursts
  cost one heap entry total.
* **Current bucket** — when the drain front reaches a bucket it is
  sorted once (Timsort; near-sorted in practice because sequence
  numbers arrive monotonically) and consumed by an index pointer.
  Events pushed *at the current time* (zero-delay cascades:
  ``Event.succeed``, process bootstraps) append or binary-insert into
  the live tail; the common cascade lands in O(1) via the
  ``tail < entry`` fast path.
* **Far-future overflow heap** — entries beyond a sliding window of
  ``span`` buckets go to a plain heap.  The window advances with the
  drain front and migrates far entries in as they come inside it.
  Sparse lease-scale timers therefore never inflate the bucket index
  heap.
* **Self-tuning resize** — on overflow (near population over twice the
  window) or a too-coarse signal (one bucket holding many *distinct*
  timestamps), the queue rebuilds: bucket width is re-derived from the
  observed inter-event gap of a sorted sample, and the window span
  follows the population.  Retuning only relocates entries between
  buckets; it can never reorder pops (see below), so a bad estimate
  costs speed, never correctness.

Ordering invariant
------------------

Entries are ``(when, priority, seq, event)`` tuples and :meth:`pop`
yields them in **exact tuple order** — identical to ``heapq`` on the
same tuples, which is what every byte-identity pin in this repository
ultimately rests on.  The argument: the index map ``when ->
int(when * inv_width)`` is monotone non-decreasing and collapses equal
timestamps to equal indices, so bucket order respects time order and a
``(when, priority)`` tie can never straddle two buckets; within a
bucket, sorting orders by tuple; the far heap only holds indices at or
beyond the window limit, strictly after every near bucket.  FIFO within
``(when, priority)`` falls out of the globally monotone sequence
number.

The structure is pure bookkeeping — it draws no randomness and reads no
clock, so a rebuild at a different moment (different tuning history)
still pops the identical sequence.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["CalendarQueue"]

#: one pending entry: (when, priority, seq, event)
Entry = Tuple[float, int, int, Any]

#: starting bucket width in sim-time units (~one RPC hop on the modelled
#: 1–50 ms links); the self-tuning rebuild re-derives it from live gaps
DEFAULT_WIDTH = 0.002
#: starting / minimum window span, in buckets
MIN_SPAN = 64
DEFAULT_SPAN = 1024
#: span ceiling — beyond this the far heap is the right home anyway
MAX_SPAN = 1 << 16
#: a bucket this long holding >1 distinct timestamp wants narrower buckets
COARSE_BUCKET = 64
#: rebuild cooldown (bucket adoptions) for granularity-triggered retunes
RETUNE_COOLDOWN = 256


class CalendarQueue:
    """Bucketed pending-event queue; pops in exact ``(when, prio, seq)`` order."""

    __slots__ = (
        "_width", "_inv_width", "_span", "_cursor", "_limit", "_horizon",
        "_buckets", "_idx_heap", "_far", "_current", "_cpos", "_count",
        "_retune", "_adoptions", "resizes",
    )

    def __init__(
        self,
        width: float = DEFAULT_WIDTH,
        span: int = DEFAULT_SPAN,
        origin: float = 0.0,
    ) -> None:
        if width <= 0.0:
            raise ValueError(f"bucket width must be positive, got {width!r}")
        if span < 1:
            raise ValueError(f"window span must be >= 1 bucket, got {span!r}")
        self._width = float(width)
        self._inv_width = 1.0 / self._width
        self._span = int(span)
        # cursor = index of the bucket the drain front occupies; start one
        # below the origin bucket so the first push is adopted normally
        self._cursor = int(origin * self._inv_width) - 1
        self._limit = self._cursor + self._span
        self._horizon = (self._limit + 1) * self._width
        #: absolute bucket index -> unsorted entry list (indices in
        #: (cursor, limit) only)
        self._buckets: Dict[int, List[Entry]] = {}
        #: min-heap over the keys of _buckets, each exactly once
        self._idx_heap: List[int] = []
        #: overflow heap: entries whose bucket index is >= _limit
        self._far: List[Entry] = []
        #: the bucket being drained (sorted from _cpos on)
        self._current: List[Entry] = []
        self._cpos = 0
        #: entries in the near *buckets* (the current bucket's remnant is
        #: len(_current) - _cpos, so drain pops are a bare pointer bump)
        self._count = 0
        self._retune = False
        self._adoptions = 0
        #: self-tuning rebuilds performed (observability/tests)
        self.resizes = 0

    # -- size / inspection -------------------------------------------------

    def __len__(self) -> int:
        return (
            self._count + len(self._current) - self._cpos + len(self._far)
        )

    def __bool__(self) -> bool:
        return (
            self._count > 0
            or self._cpos < len(self._current)
            or bool(self._far)
        )

    def entries(self) -> Iterator[Entry]:
        """Iterate every pending entry (deterministic, NOT time-sorted)."""
        yield from self._current[self._cpos:]
        for idx in sorted(self._buckets):
            yield from self._buckets[idx]
        yield from self._far

    def stats(self) -> Dict[str, Any]:
        """Structure snapshot for benchmarks and tests."""
        return {
            "width": self._width,
            "span": self._span,
            "near": self._count + len(self._current) - self._cpos,
            "far": len(self._far),
            "buckets": len(self._buckets) + (
                1 if self._cpos < len(self._current) else 0
            ),
            "resizes": self.resizes,
        }

    # -- insertion ---------------------------------------------------------

    def push(self, entry: Entry) -> None:
        """Insert one entry.  Amortized O(1); the kernel's hottest call.

        Routing: current bucket (append fast path for zero-delay
        cascades, binary insert into the live tail otherwise), a future
        near bucket (plain append), or the far overflow heap.  The
        ``when < horizon`` screen is conservative — ``horizon`` sits one
        bucket past the limit, so anything passing it indexes safely and
        anything at or beyond it belongs to the far heap regardless of
        float rounding (and infinite timestamps never reach ``int()``).
        """
        when = entry[0]
        if when < self._horizon:
            try:
                idx = int(when * self._inv_width)
            except OverflowError:
                heappush(self._far, entry)
                return
            if idx < self._limit:
                # _count tracks the *bucketed* population only; the
                # current bucket's live population is len - _cpos, so
                # current-bucket inserts and drain pops need no counter
                # maintenance (a pop is a bare cursor bump).
                if idx <= self._cursor:
                    cur = self._current
                    if not cur or cur[-1] < entry:
                        cur.append(entry)
                    else:
                        insort(cur, entry, self._cpos)
                else:
                    bucket = self._buckets.get(idx)
                    if bucket is None:
                        self._buckets[idx] = [entry]
                        heappush(self._idx_heap, idx)
                    else:
                        bucket.append(entry)
                    self._count += 1
                return
        heappush(self._far, entry)

    # -- removal -----------------------------------------------------------

    def head(self) -> Optional[Entry]:
        """The globally minimal entry without removing it (None if empty).

        **Pure read** — unlike :meth:`pop` this never adopts buckets,
        migrates far entries, or retunes, so event callbacks can call it
        mid-run (``Environment.peek`` is exactly that call) and the
        schedule controller can call it with the ready set detached
        (``Environment._select``).  The global
        minimum is the least of three candidates: the current bucket's
        sorted remnant head, the minimum of the earliest occupied near
        bucket (the index-heap head; equal timestamps never straddle
        buckets, so the earliest bucket contains the bucketed minimum),
        and the far heap's root.
        """
        best: Optional[Entry] = None
        if self._cpos < len(self._current):
            best = self._current[self._cpos]
        if self._idx_heap:
            candidate = min(self._buckets[self._idx_heap[0]])
            if best is None or candidate < best:
                best = candidate
        if self._far:
            candidate = self._far[0]
            if best is None or candidate < best:
                best = candidate
        return best

    def pop(self) -> Optional[Entry]:
        """Remove and return the globally minimal entry (None if empty).

        ``Environment.run`` spells the same two steps out — it has to
        look at the head before deciding to pop it; ``Environment.step``
        calls this.
        """
        if self._advance():
            cpos = self._cpos
            entry = self._current[cpos]
            self._cpos = cpos + 1
            return entry
        return None

    def next_time(self) -> float:
        """Time of the minimal entry, or ``inf`` when empty.

        Pure read, like :meth:`head`.
        """
        head = self.head()
        return head[0] if head is not None else float("inf")

    # -- internals ---------------------------------------------------------

    def _advance(self) -> bool:
        """Make ``_current[_cpos]`` the global minimum; False when empty.

        This is the only place buckets are adopted, windows slide, far
        entries migrate in, and retunes run.  The read-only inspectors
        (:meth:`head`, :meth:`next_time`, :meth:`entries`,
        :meth:`stats`) must never route through this method: they are
        called from event callbacks (``Environment.peek``) and from
        ``Environment._select`` while it holds the ready set detached
        from ``_current``, and neither expects the queue to restructure
        under it.
        """
        if self._cpos < len(self._current):
            return True
        cur = self._current
        if cur:
            del cur[:]
        if self._cpos:
            self._cpos = 0
        if not self._count:
            if not self._far:
                return False
            # Near window ran dry: jump it to the far frontier.  The far
            # minimum seeds the fresh current bucket directly; the rest
            # of the new window migrates in behind it.
            entry = heappop(self._far)
            try:
                self._cursor = int(entry[0] * self._inv_width)
            except OverflowError:
                pass  # infinite-time tail: drain one per jump, in order
            self._limit = self._cursor + self._span
            self._horizon = (self._limit + 1) * self._width
            cur.append(entry)
            if self._far:
                self._migrate_far()
            return True
        if self._count > (self._span << 1) or (
            self._retune and self._adoptions >= RETUNE_COOLDOWN
        ):
            self._rebuild()
        self._adoptions += 1
        idx = heappop(self._idx_heap)
        bucket = self._buckets.pop(idx)
        self._count -= len(bucket)
        self._cursor = idx
        limit = idx + self._span
        if limit > self._limit:
            self._limit = limit
            self._horizon = (limit + 1) * self._width
            if self._far:
                # Migrated entries index strictly above the old limit,
                # hence above `idx`: they land in future buckets, never
                # in the bucket adopted below.
                self._migrate_far()
        if len(bucket) > 1:
            bucket.sort()
            if len(bucket) > COARSE_BUCKET and bucket[0][0] != bucket[-1][0]:
                # Many distinct timestamps share one bucket: the width
                # overshoots the live inter-event gap.  Flag a retune
                # (cooldown-gated) rather than rebuilding mid-adoption.
                self._retune = True
        self._current = bucket
        self._cpos = 0
        return True

    def _migrate_far(self) -> None:
        """Pull far entries that now index inside the window into buckets."""
        far = self._far
        horizon = self._horizon
        limit = self._limit
        inv_width = self._inv_width
        while far and far[0][0] < horizon:
            entry = far[0]
            try:
                idx = int(entry[0] * inv_width)
            except OverflowError:
                break
            if idx >= limit:
                break  # float-edge of the screen: still beyond the window
            heappop(far)
            self.push(entry)

    def _rebuild(self) -> None:
        """Self-tuning resize: re-derive width/span, redistribute.

        Width comes from the mean inter-event gap over a sorted sample
        of distinct pending timestamps (the calendar-queue classic),
        span from the live population.  Only bucket *placement* changes;
        pop order is untouched by construction.
        """
        entries = self._current[self._cpos:]
        for bucket in self._buckets.values():
            entries.extend(bucket)
        self._retune = False
        self._adoptions = 0
        self.resizes += 1
        whens = sorted({entry[0] for entry in entries[:4096]})
        if len(whens) >= 2:
            gaps = whens[1:513]
            mean_gap = (gaps[-1] - whens[0]) / len(gaps)
            if mean_gap > 0.0:
                self._width = min(max(3.0 * mean_gap, 1e-9), 1e6)
                self._inv_width = 1.0 / self._width
        # Span follows the *near* population only: the window exists to
        # hold the dense short-horizon band, and sizing it from the far
        # count would stretch the horizon until sparse long-delay timers
        # leak back into (one-entry) near buckets — the exact cost the
        # far heap is there to avoid.
        self._span = min(max(MIN_SPAN, 2 * len(entries)), MAX_SPAN)
        self._buckets = {}
        self._idx_heap = []
        self._current = []
        self._cpos = 0
        self._count = 0
        if entries:
            front = min(entry[0] for entry in entries)
            try:
                self._cursor = int(front * self._inv_width) - 1
            except OverflowError:
                pass
        self._limit = self._cursor + self._span
        self._horizon = (self._limit + 1) * self._width
        for entry in entries:
            self.push(entry)
        if self._far:
            self._migrate_far()
