"""Admission queues: tail drop, accounting, close semantics."""

import pytest

from repro.sim import Environment
from repro.traffic.admission import AdmissionQueue


@pytest.fixture
def env():
    return Environment()


class TestOffer:
    def test_admits_until_capacity(self, env):
        q = AdmissionQueue(env, 0, capacity=2)
        assert q.offer("a") and q.offer("b")
        assert not q.offer("c")          # the arrival is shed
        assert (q.offered, q.admitted, q.shed) == (3, 2, 1)
        assert list(q.items) == ["a", "b"]

    def test_accounting_invariant(self, env):
        """offered == admitted + shed under tail drop (every arrival is
        either admitted or shed, never both), and a full queue keeps what
        it holds."""
        q = AdmissionQueue(env, 0, capacity=3)
        for i in range(10):
            q.offer(i)
        assert q.offered == q.admitted + q.shed == 10
        assert list(q.items) == [0, 1, 2]

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            AdmissionQueue(env, 0, capacity=0)


class TestGet:
    def test_fifo_order(self, env):
        q = AdmissionQueue(env, 0, capacity=4)
        got = []

        def consumer():
            for _ in range(2):
                item = yield from q.get()
                got.append(item)

        q.offer("x"), q.offer("y")
        env.process(consumer())
        env.run()
        assert got == ["x", "y"]

    def test_blocked_consumer_wakes_on_offer(self, env):
        q = AdmissionQueue(env, 0, capacity=4)
        got = []

        def consumer():
            item = yield from q.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(1.5)
            q.offer("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(1.5, "late")]

    def test_close_wakes_blocked_consumers_with_none(self, env):
        q = AdmissionQueue(env, 0, capacity=4)
        got = []

        def consumer():
            item = yield from q.get()
            got.append(item)

        def closer():
            yield env.timeout(1.0)
            q.close()

        env.process(consumer())
        env.process(closer())
        env.run()
        assert got == [None]

    def test_backlog_is_not_served_after_close(self, env):
        q = AdmissionQueue(env, 0, capacity=4)
        q.offer("stuck")
        assert q.close() == 1
        got = []

        def consumer():
            item = yield from q.get()
            got.append(item)

        env.process(consumer())
        env.run()
        assert got == [None]
        assert q.backlog == 1

    def test_offers_after_close_are_shed(self, env):
        q = AdmissionQueue(env, 0, capacity=4)
        q.close()
        assert not q.offer("too-late")
        assert q.shed == 1


class TestDepthGauge:
    def test_time_weighted_depth(self, env):
        q = AdmissionQueue(env, 0, capacity=8)

        def script():
            q.offer("a")                 # depth 1 from t=0
            yield env.timeout(2.0)
            q.offer("b")                 # depth 2 from t=2
            yield env.timeout(2.0)

        env.process(script())
        env.run()
        # area = 1*2 + 2*2 = 6 over 4s -> mean 1.5
        assert q.depth.average(4.0) == pytest.approx(1.5)
