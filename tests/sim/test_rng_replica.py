"""The pure-Python stream replica against numpy, draw for draw.

``repro.sim.rng.Generator`` must return what ``numpy.random.Generator(
PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(name),))))`` returns and
leave the same ``bit_generator.state`` behind, for every draw it
replicates; every digest in the repo hangs on that.  numpy is the
reference here, so a failure after a numpy upgrade means numpy's
``Generator`` moved (a new seeding, sampler or rounding), not the
simulation: pin numpy, or re-derive the replica from the new release.
"""

import copy
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

import repro
from repro.sim import RngRegistry
from repro.sim import ziggurat
from repro.sim.rng import Generator, _stable_key

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

NAMES = ("topology", "clocks", "workload.setup", "worker[3][1]", "backoff[7]")
#: 0..39 plus entropy of two, three, four, five and seven 32-bit words
SEEDS = tuple(range(40)) + (2**32, 2**64 + 5, 2**100 + 7, 2**160, 2**200 + 3)


def reference(seed, name):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_stable_key(name),))
    return np.random.Generator(np.random.PCG64(seq))


def reference_pair(seed):
    return RngRegistry(seed).stream("edge"), reference(seed, "edge")


def plain(value):
    """numpy's return value as the replica spells it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def assert_same(got, want):
    assert type(got) is not np.ndarray
    assert got == plain(want)
    assert not isinstance(got, list) or all(type(v) in (int, float) for v in got)


def handed_off(gen):
    return gen._numpy is not None


def assert_same_state(gen, ref):
    assert not handed_off(gen)
    assert gen.state == ref.bit_generator.state


def random_draw(pick):
    """One replicated draw, its arguments chosen by ``pick``."""
    kind = pick.randrange(9)
    if kind == 0:
        return "random", (pick.randrange(6),) if pick.random() < 0.3 else ()
    if kind == 7:
        return "exponential", (pick.choice([1e-3, 0.5, 1, 40.0]),)
    if kind == 8:
        high = pick.choice([1, 2, 7, 640, 2**32])
        return "integers", (high,) + ((None, pick.randrange(6)) if pick.random() < 0.3 else ())
    if kind == 1:
        low = pick.uniform(-5.0, 5.0)
        size = (pick.randrange(6),) if pick.random() < 0.3 else ()
        return "uniform", (low, low + pick.choice([0.0, 1e-3, 1.0, 7.5])) + size
    if kind == 2:
        low = pick.randrange(-1000, 1000)
        width = pick.choice([1, 2, 3, 7, 640, 2**31 + 1, 2**32 - 1, 2**32])
        size = (pick.randrange(6),) if pick.random() < 0.3 else ()
        return "integers", (low, low + width) + size
    if kind == 3:
        n = pick.choice([1, 2, 5, 64, 640, 1600])
        return "choice", (n, pick.randrange(n + 1), False)
    if kind == 4:
        return "choice", (pick.choice([1, 3, 640]), pick.randrange(9), True)
    if kind == 5:
        return "choice", (pick.choice([1, 3, 640]),)
    return "choice", (pick.choice([3, 640]), None, False)


class TestSeeding:
    @pytest.mark.parametrize("name", NAMES)
    def test_a_fresh_stream_holds_numpys_state(self, name):
        for seed in SEEDS:
            gen = RngRegistry(seed).stream(name)
            assert_same_state(gen, reference(seed, name))

    def test_no_spawn_key_is_default_rng(self):
        for seed in (0, 1, 2**32 + 1, 2**130):
            gen, ref = Generator(seed), np.random.default_rng(seed)
            assert_same_state(gen, ref)
            assert [gen.random() for _ in range(5)] == ref.random(5).tolist()
            assert_same_state(gen, ref)

    def test_negative_entropy_is_refused(self):
        with pytest.raises(ValueError):
            Generator(-1)


class TestDraws:
    @pytest.mark.parametrize("name", NAMES)
    def test_mixed_draws_match_value_and_state(self, name):
        pick = random.Random(name)
        for seed in SEEDS:
            gen, ref = RngRegistry(seed).stream(name), reference(seed, name)
            for _ in range(60):
                method, args = random_draw(pick)
                got = getattr(gen, method)(*args)
                assert_same(got, getattr(ref, method)(*args))
                assert_same_state(gen, ref)

    @pytest.mark.parametrize(
        "span",
        [
            0,  # no draw at all
            1,
            2**31 + 1,  # about half of all 32-bit draws are rejected
            3 * 2**30,
            2**32 - 3,
            2**32 - 2,  # Lemire's rejection window at its narrowest
            2**32 - 1,  # the raw 32-bit draw, no Lemire
        ],
    )
    def test_integers_at_the_edges_of_the_32_bit_range(self, span):
        for seed in range(8):
            gen, ref = reference_pair(seed)
            for low in (0, -7, 2**40):
                got = [gen.integers(low, low + span + 1) for _ in range(50)]
                assert got == [int(ref.integers(low, low + span + 1)) for _ in range(50)]
                assert gen.integers(low, low + span + 1, 9) == ref.integers(
                    low, low + span + 1, 9
                ).tolist()
                assert_same_state(gen, ref)

    @pytest.mark.parametrize("n", [1, 2, 7, 640])
    def test_choice_of_all_and_of_one(self, n):
        for seed in range(8):
            gen, ref = reference_pair(seed)
            for k in (n, 1):
                got = gen.choice(n, k, replace=False)
                assert got == ref.choice(n, k, replace=False).tolist()
                assert sorted(got) == sorted(set(got))
                assert_same_state(gen, ref)

    def test_choice_tail_shuffle_branch(self):
        # numpy shuffles a whole arange, not Floyd's set, once n > 10000
        # and k > n // 50
        for seed in range(3):
            gen, ref = reference_pair(seed)
            for n, k in ((10001, 201), (20000, 401), (20000, 400), (12000, 12000)):
                assert gen.choice(n, k, replace=False) == ref.choice(
                    n, k, replace=False
                ).tolist()
                assert_same_state(gen, ref)


class TestExponential:
    """numpy's 256-layer ziggurat: most draws stop inside a layer; the
    rest take a double for the tail (layer 0) or the wedge, where a
    rejected draw starts over."""

    def test_every_branch_matches_numpy(self):
        paths = set()
        for seed in range(2):
            gen, ref = reference_pair(seed)
            outputs = []

            def counted(raw=gen._next64):
                outputs.append(raw())
                return outputs[-1]

            gen._next64 = counted
            for _ in range(5000):
                outputs.clear()
                assert gen.exponential(0.5) == ref.exponential(0.5)
                ri = outputs[-1] >> 3
                idx = ri & 0xFF
                if len(outputs) > 1:
                    paths.add("wedge rejected")
                if ri >> 8 >= ziggurat.KE[idx]:
                    paths.add("tail" if idx == 0 else "wedge")
            assert_same_state(gen, ref)
        assert paths == {"tail", "wedge", "wedge rejected"}

    def test_the_default_scale_is_one(self):
        gen, ref = reference_pair(5)
        assert [gen.exponential() for _ in range(20)] == [ref.exponential() for _ in range(20)]
        assert_same_state(gen, ref)

    def test_tables_follow_the_marsaglia_tsang_recurrence(self):
        # ``FE`` and ``WE`` are numpy's constants; ``KE`` has no exact
        # recurrence and is covered by the draws above
        with localcontext() as ctx:
            ctx.prec = 60
            # the right edge to numpy's 29 digits, which the double rounds
            r = Decimal("7.6971174701310497140446280481")
            assert float(r) == ziggurat.ZIGGURAT_EXP_R
            v = (-r).exp() * (1 + r)
            xs = [r]
            for _ in range(254):
                xs.append(-(v / xs[-1] + (-xs[-1]).exp()).ln())
            xs.reverse()
            two53 = Decimal(2) ** 53
            assert list(ziggurat.FE) == [1.0] + [float((-x).exp()) for x in xs]
            assert list(ziggurat.WE) == [float(v * r.exp() / two53)] + [
                float(x / two53) for x in xs
            ]
        assert len(ziggurat.KE) == 256


class TestHandOff:
    def test_unreplicated_draw_hands_the_exact_state_to_numpy(self):
        gen, ref = reference_pair(11)
        assert gen.choice(640, 6, replace=False) == ref.choice(640, 6, replace=False).tolist()
        # leave a buffered 32-bit half behind, which must travel too
        while not gen.state["has_uint32"]:
            assert gen.integers(0, 10) == ref.integers(0, 10)
        assert gen.standard_normal() == ref.standard_normal()
        assert handed_off(gen)
        # the replica-named draws now go to numpy: same values, same types;
        # the replica's own state is stale, so a draw it kept would differ
        assert gen.exponential(2.0) == ref.exponential(2.0)
        assert gen.integers(0, 10) == ref.integers(0, 10)
        assert gen.random() == ref.random()
        assert np.array_equal(gen.choice(640, 6, replace=False), ref.choice(640, 6, replace=False))
        assert np.array_equal(gen.uniform(0.0, 1.0, 4), ref.uniform(0.0, 1.0, 4))
        assert gen.state == ref.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize(
        "method, args, kwargs",
        [
            ("random", (3, np.float32), {}),
            ("uniform", (0.0, 1.0, (2, 2)), {}),
            ("integers", (5,), {"dtype": np.int32}),
            ("integers", (0, 2**40), {}),
            ("integers", (0, 10), {"endpoint": True}),
            ("choice", (5, 3, True, [0.1, 0.2, 0.3, 0.2, 0.2]), {}),
            ("choice", ([10, 20, 30], 2), {}),
            ("standard_normal", (), {}),
            ("exponential", (1.0, 3), {}),
            ("exponential", (0.0,), {}),
        ],
    )
    def test_any_other_shape_is_numpys_answer(self, method, args, kwargs):
        gen, ref = reference_pair(3)
        assert gen.random() == ref.random()
        got = getattr(gen, method)(*args, **kwargs)
        assert np.array_equal(got, getattr(ref, method)(*args, **kwargs))
        assert gen.state == ref.bit_generator.state

    def test_a_refused_draw_raises_numpys_error(self):
        gen = RngRegistry(0).stream("x")
        with pytest.raises(ValueError, match="low >= high"):
            gen.integers(5, 5)
        with pytest.raises(ValueError):
            gen.choice(3, 4, replace=False)
        with pytest.raises(ValueError, match="high - low < 0"):
            gen.uniform(1.0, 0.0)

    def test_copying_a_stream_is_not_a_draw(self):
        gen = RngRegistry(0).stream("x")
        twin = copy.deepcopy(gen)
        assert not handed_off(gen) and not handed_off(twin)
        assert twin.random() == gen.random()


def test_replica_draws_load_no_numpy():
    # sized draws, a choice, an exponential and a stream creation stay in
    # pure Python
    # (``tests/core/test_import_graph.py`` checks whole cells)
    code = (
        "import sys; from repro.sim import RngRegistry\n"
        "g = RngRegistry(1).stream('w')\n"
        "g.random(); g.uniform(0, 1, 4); g.integers(0, 9, 3); g.choice(640, 6, replace=False)\n"
        "g.random(4); g.integers(9); g.exponential(2.0)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"
