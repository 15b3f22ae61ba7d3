"""The retry/deadline policy — and that it is the ONLY one in the tree."""

import pytest

from repro.rpc import RetryPolicy


def windows(pol):
    """Every attempt's reply window, first try to last retry."""
    return [pol.nth_timeout(i) for i in range(pol.attempts)]


class TestRetryPolicy:
    def test_attempts_and_ladder(self):
        pol = RetryPolicy(timeout=0.2, max_retries=2, backoff_factor=2.0,
                          backoff_cap=1.0)
        assert pol.attempts == 3
        assert [pol.nth_timeout(i) for i in range(3)] == pytest.approx(
            [0.2, 0.4, 0.8]
        )
        assert sum(windows(pol)) == pytest.approx(1.4)

    def test_cap_flattens_the_ladder(self):
        pol = RetryPolicy(timeout=0.5, max_retries=5, backoff_factor=3.0,
                          backoff_cap=0.9)
        assert pol.nth_timeout(0) == pytest.approx(0.5)
        for i in range(1, 6):
            assert pol.nth_timeout(i) == pytest.approx(0.9)
        # a ladder that grows, then meets the cap
        pol = RetryPolicy(timeout=0.1, max_retries=4, backoff_factor=2.0,
                          backoff_cap=0.5)
        assert [pol.nth_timeout(i) for i in range(5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )
        assert sum(windows(pol)) == pytest.approx(1.7)

    def test_the_recovery_ladder(self):
        """The one ladder every fault-mode call runs under: a silent peer
        is given up on after 6.25 simulated seconds."""
        from repro.faults.recovery import RETRY_POLICY

        assert windows(RETRY_POLICY) == pytest.approx([0.15, 0.3, 0.6, 1.2, 2.0, 2.0])
        assert sum(windows(RETRY_POLICY)) == pytest.approx(6.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestSinglePolicyObject:
    """The refactor's no-duplication guarantee: faults and net both
    delegate to the one policy class in repro.rpc."""

    def test_faults_exports_no_second_policy_name(self):
        import repro.faults
        from repro.faults import recovery

        # The one policy class is repro.rpc.RetryPolicy, under that one
        # name: faults holds one instance of it and no alias.
        assert not hasattr(repro.faults, "RpcPolicy")
        assert not hasattr(recovery, "RpcPolicy")
        assert type(recovery.RETRY_POLICY) is RetryPolicy

    def test_node_submit_honours_policy_ladder(self, env):
        """Node.submit's resend chain is the one retry path: a silent peer
        resolves the reply signal with None at exactly the policy's
        worst-case wait, with on_timeout called per attempt and a fresh
        request (new msg_id) per window."""
        from repro.net import Network, Node, Topology
        from repro.net.message import MessageType
        from repro.sim import RngRegistry

        rngs = RngRegistry(seed=11)
        topo = Topology(2, rngs.stream("topology"))
        network = Network(env, topo)
        nodes = [Node(env, network, i) for i in range(2)]
        # Node 1 swallows pings without answering: every attempt times out.
        asked = []
        nodes[1].on(MessageType.PING, lambda msg: asked.append(msg.msg_id))

        pol = RetryPolicy(timeout=0.1, max_retries=2, backoff_factor=2.0,
                          backoff_cap=0.4)
        seen = []
        outcome = {}
        reply = nodes[0].submit(
            1, MessageType.PING, {}, policy=pol,
            on_timeout=lambda a, w, r: seen.append((a, w, r)),
        )
        reply.then(lambda value: outcome.update(at=env.now, value=value))
        env.run()
        assert outcome == {"at": pytest.approx(sum(windows(pol))),
                           "value": None}
        assert reply.processed  # resolved, never failed: a join waits for it
        assert seen == [
            (0, pytest.approx(0.1), True),
            (1, pytest.approx(0.2), True),
            (2, pytest.approx(0.4), False),
        ]
        assert len(set(asked)) == pol.attempts
        assert nodes[0]._pending_replies == {}
