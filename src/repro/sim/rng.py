"""Reproducible named random streams.

Every stochastic component of the simulation (workload mix, link delays,
key selection, ...) draws from its own named stream, derived from a single
root seed the way ``numpy.random.SeedSequence`` derives a spawned child.
Streams are independent of each other and of the order in which they are
first requested, so adding a new consumer never perturbs existing ones —
the property that keeps experiment sweeps comparable across code changes.

A stream is a :class:`Generator`: a pure-Python replica of
``numpy.random.Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(crc32(name),))))`` for the draws the simulation makes —
``random()`` and ``random(size)``, scalar or sized ``uniform`` and
``integers`` (``integers(high)`` included), scalar ``exponential`` (numpy's
ziggurat, :mod:`repro.sim.ziggurat`) and ``choice`` over an integer
population — value for value and state for state.  Any other method or
argument shape (a sized ``exponential``, ``choice(..., p=w)``, an array
population, ``standard_normal``, ``bit_generator``, ...) hands the
stream's exact PCG64 state to a real numpy ``Generator``: the first
moment numpy is imported.  From then on every draw on that stream goes to
numpy, and no run the repo ships imports numpy for its streams (DESIGN.md,
"The import rule").  A sized replica draw returns a list where numpy
returns an array; draw sites index and iterate, which both support.

numpy stays the reference: ``tests/sim/test_rng_replica.py`` compares
every replica draw and the state it leaves against numpy's own.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Generator", "RngRegistry", "Stream"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
#: ``1 / 2**53``: a double from the top 53 bits of a 64-bit output
_TWO_M53 = 1.0 / 9007199254740992.0

# SeedSequence (numpy/random/bit_generator.pyx): a 4-word pool mixed with
# hashmix/mix, then expanded with a second hash.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341

# numpy's ``choice`` without replacement shuffles a full ``arange`` instead
# of running Floyd's algorithm above this population and sample share.
_TAIL_SHUFFLE_POP = 10000
_TAIL_SHUFFLE_CUTOFF = 50


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer (CRC32; not security)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def _words(value: int) -> List[int]:
    """An entropy int as little-endian 32-bit words, at least one."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _seed_words(entropy: int, spawn_key: Tuple[int, ...]) -> List[int]:
    """``SeedSequence(entropy, spawn_key).generate_state(8)``: the eight
    32-bit words PCG64 seeds from."""
    data = _words(entropy)
    spawn = [w for key in spawn_key for w in _words(key)]
    if spawn and len(data) < _POOL_SIZE:
        data += [0] * (_POOL_SIZE - len(data))
    data += spawn
    head = data[:_POOL_SIZE]
    pool = list(_mixed_pool(tuple(head + [0] * (_POOL_SIZE - len(head)))))
    # every word past the pool's size is mixed into each pool word in turn
    consts = _hash_consts(_POOL_SIZE * max(len(data), _POOL_SIZE))
    k = _POOL_SIZE * _POOL_SIZE
    for word in data[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts, k))
            k += 1
    out = []
    mult = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ mult
        mult = mult * _MULT_B & _M32
        value = value * mult & _M32
        out.append(value ^ value >> _XSHIFT)
    return out


@functools.lru_cache(maxsize=256)
def _mixed_pool(head: Tuple[int, ...]) -> Tuple[int, ...]:
    """The pool after its first ``_POOL_SIZE`` entropy words are hashed in
    and every pool word is mixed into every other: with a spawn key these
    are the run entropy's words alone, so every stream of one seed shares
    them (``_POOL_SIZE ** 2`` hashmix calls, counting the ``_POOL_SIZE``
    of the hashing)."""
    consts = _hash_consts(_POOL_SIZE * _POOL_SIZE)
    pool = [_hashmix(word, consts, k) for k, word in enumerate(head)]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k))
                k += 1
    return tuple(pool)


def _hashmix(value: int, consts: Tuple[int, ...], k: int) -> int:
    """SeedSequence's ``hashmix``, its ``k``-th call of one seeding."""
    value = (value ^ consts[k]) * consts[k + 1] & _M32
    return value ^ value >> _XSHIFT


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix``."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y & _M32
    return value ^ value >> _XSHIFT


@functools.lru_cache(maxsize=16)
def _hash_consts(calls: int) -> Tuple[int, ...]:
    """hashmix's running constant: ``_INIT_A``, then times ``_MULT_A`` per
    call, ``calls + 1`` values."""
    consts = [_INIT_A]
    for _ in range(calls):
        consts.append(consts[-1] * _MULT_A & _M32)
    return tuple(consts)


class Generator:
    """PCG64 draws, bit-exact with numpy's ``Generator`` (module docstring).

    ``Generator(entropy, spawn_key)`` is ``numpy.random.Generator(PCG64(
    SeedSequence(entropy, spawn_key=spawn_key)))``; ``Generator(0)`` is
    ``numpy.random.default_rng(0)``.
    """

    # ``__dict__``: after a hand-off, numpy's bound methods shadow the
    # replica's there, so a draw costs what it costs on numpy itself
    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger", "_numpy", "__dict__")

    def __init__(self, entropy: int, spawn_key: Tuple[int, ...] = ()) -> None:
        w = _seed_words(entropy, spawn_key)
        seed = (w[0] | w[1] << 32) << 64 | (w[2] | w[3] << 32)
        inc = (((w[4] | w[5] << 32) << 64 | (w[6] | w[7] << 32)) << 1 | 1) & _M128
        self._inc = inc
        self._state = ((inc + seed) * _PCG_MULT + inc) & _M128
        self._has_uint32 = 0
        self._uinteger = 0
        self._numpy: Any = None

    @property
    def state(self) -> Dict[str, Any]:
        """The stream's state in ``bit_generator.state``'s form."""
        if self._numpy is not None:
            return self._numpy.bit_generator.state
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    # -- the replicated draws ---------------------------------------------

    def random(self, size: Any = None, *args: Any, **kwargs: Any) -> Any:
        """One double in [0, 1), or a list of ``size`` of them."""
        if size is not None or args or kwargs:
            if args or kwargs or type(size) is not int or size < 0:
                return self._hand_off().random(size, *args, **kwargs)
            return [self.random() for _ in range(size)]
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot | (x << (64 - rot)) & _M64) >> 11) * _TWO_M53

    def uniform(
        self, low: Any = 0.0, high: Any = 1.0, size: Any = None, *args: Any, **kwargs: Any
    ) -> Any:
        """``low + (high - low) * random()``, one or ``size`` of them."""
        if (
            args or kwargs
            or type(low) not in (float, int) or type(high) not in (float, int)
            or not 0.0 <= high - low < math.inf
            or not (size is None or type(size) is int and size >= 0)
        ):
            return self._hand_off().uniform(low, high, size, *args, **kwargs)
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * self.random()
        return [low + span * self.random() for _ in range(size)]

    def integers(
        self, low: Any, high: Any = None, size: Any = None, *args: Any, **kwargs: Any
    ) -> Any:
        """Ints in ``[low, high)``, or ``[0, low)`` without ``high`` —
        numpy's Lemire draws for a range below 2**32; one or ``size`` of
        them."""
        if high is None and type(low) is int:
            low, high = 0, low
        if (
            args or kwargs
            or type(low) is not int or type(high) is not int
            or not (_I64_MIN <= low and high - 1 <= _I64_MAX and 0 <= high - 1 - low <= _M32)
            or not (size is None or type(size) is int and size >= 0)
        ):
            return self._hand_off().integers(low, high, size, *args, **kwargs)
        span = high - 1 - low
        if size is None:
            return low + self._bounded((span,))[0]
        return [low + v for v in self._bounded((span,) * size)]

    def exponential(self, scale: Any = 1.0, size: Any = None) -> Any:
        """One exponential of mean ``scale``: ``scale`` times numpy's
        ziggurat draw; a ``size`` hands off."""
        if size is not None or type(scale) not in (float, int) or not 0.0 < scale < math.inf:
            return self._hand_off().exponential(scale, size)
        return scale * _ziggurat().standard_exponential(self)

    def choice(
        self, a: Any, size: Any = None, replace: Any = True, *args: Any, **kwargs: Any
    ) -> Any:
        """``size`` draws from ``range(a)``, with or without replacement."""
        if (
            args or kwargs
            or type(a) is not int or not 1 <= a <= _M32
            or not (size is None or type(size) is int and 0 <= size)
            or not replace and (size or 1) > a
        ):
            return self._hand_off().choice(a, size, replace, *args, **kwargs)
        if replace:
            return self.integers(0, a, size)
        n = a
        k = 1 if size is None else size
        if n > _TAIL_SHUFFLE_POP and k > n // _TAIL_SHUFFLE_CUTOFF:
            # numpy's tail shuffle: a Fisher-Yates pass over the last k
            # slots of arange(n)
            data = list(range(n))
            first = max(n - k, 1)
            _shuffle(data, first, self._bounded(range(n - 1, first - 1, -1)))
            idx = data[n - k:]
        else:
            # Floyd's algorithm, then a shuffle of the sample; the draw
            # count never depends on the values, so both run in one pass
            draws = self._bounded(itertools.chain(range(n - k, n), range(k - 1, 0, -1)))
            idx = []
            taken = set()
            for j, val in zip(range(n - k, n), draws):
                if val in taken:
                    val = j
                taken.add(val)
                idx.append(val)
            _shuffle(idx, 1, draws[k:])
        return idx[0] if size is None else idx

    def _next64(self) -> int:
        """The stream's next 64-bit output (``random()`` keeps its top 53
        bits)."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return x >> rot | (x << (64 - rot)) & _M64

    def _bounded(self, spans: Iterable[int]) -> List[int]:
        """One value in ``[0, span]`` per span (each below 2**32):
        numpy's ``random_bounded_uint64`` without masking — Lemire's
        method on 32-bit draws, whose high half is buffered."""
        state = self._state
        inc = self._inc
        has = self._has_uint32
        buffered = self._uinteger
        out = []
        append = out.append
        for span in spans:
            if not span:
                append(0)
                continue
            excl = span + 1
            while True:
                if has:
                    has = 0
                    m = buffered * excl
                else:
                    state = (state * _PCG_MULT + inc) & _M128
                    rot = state >> 122
                    x = ((state >> 64) ^ state) & _M64
                    x = (x >> rot) | (x << (64 - rot)) & _M64
                    has = 1
                    buffered = x >> 32
                    m = (x & _M32) * excl
                # a leftover below ``excl`` is rare: only then is the
                # rejection threshold (itself below ``excl``) worth computing
                leftover = m & _M32
                if leftover >= excl or leftover >= (_M32 - span) % excl:
                    append(m >> 32)
                    break
        self._state = state
        self._has_uint32 = has
        self._uinteger = buffered
        return out

    # -- the hand-off -------------------------------------------------------

    def _hand_off(self) -> np.random.Generator:
        """Move this stream's state into a numpy ``Generator`` that serves
        every later draw."""
        import numpy as np

        gen = np.random.Generator(np.random.PCG64(0))
        gen.bit_generator.state = self.state
        self._numpy = gen
        vars(self).update(
            random=gen.random, uniform=gen.uniform, integers=gen.integers,
            exponential=gen.exponential, choice=gen.choice,
        )
        return gen

    def __getattr__(self, name: str) -> Any:
        # Only a name neither the class nor the instance has lands here; a
        # dunder probe (copy, pickle) is not a draw and must not move the
        # stream to numpy.  The attribute is kept, so its next lookup is a
        # plain instance read.
        if name.startswith("__"):
            raise AttributeError(name)
        value = getattr(self._numpy if self._numpy is not None else self._hand_off(), name)
        setattr(self, name, value)
        return value

    def __repr__(self) -> str:
        if self._numpy is not None:
            return f"<Generator handed off to {self._numpy!r}>"
        return f"<Generator PCG64 replica state={self._state:#x}>"


@functools.lru_cache(maxsize=None)
def _ziggurat() -> Any:
    """:mod:`repro.sim.ziggurat`, loaded on the process's first
    exponential draw, so a run that draws none never builds its tables."""
    from repro.sim import ziggurat

    return ziggurat


def _shuffle(data: List[int], first: int, draws: List[int]) -> None:
    """numpy's ``_shuffle_int``: swap slot ``i`` with ``draws`` (each in
    ``[0, i]``) for ``i`` from the last slot down to ``first``."""
    for i, j in zip(range(len(data) - 1, first - 1, -1), draws):
        data[i], data[j] = data[j], data[i]


#: what a draw site takes: a registry stream, or a numpy ``Generator``
#: (the one a stream hands off to, or one a caller builds itself)
Stream = Union[Generator, "np.random.Generator"]


class RngRegistry:
    """A factory of named, independent streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Generator] = {}

    def stream(self, name: str) -> Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical stream, and
        repeated calls return the *same* generator object so state advances
        coherently across call sites.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = Generator(self.seed, (_stable_key(name),))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str, count: int) -> Iterator[Generator]:
        """Yield ``count`` independent sub-streams ``name[0..count)``."""
        for i in range(count):
            yield self.stream(f"{name}[{i}]")

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"
