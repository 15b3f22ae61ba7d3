"""The bounded systematic explorer (`repro.check.explore`).

Pins the PR's acceptance properties: the 2-node/2-txn/1-object
configuration is exhaustively enumerated with real pruning and zero
violations under both schedulers; a seeded lost-wakeup bug IS found
within budget; and the counterexample replays deterministically."""

import json

import pytest

from repro.check.explore import (
    ExploreConfig,
    dump_counterexample,
    explore,
    main,
    replay_counterexample,
    run_interleaving,
    seeded_bug,
)

SMALL = dict(nodes=2, txns=2, objects=1, scheduler="rts")


def test_default_interleaving_commits_everything():
    out = run_interleaving(ExploreConfig(**SMALL))
    assert out.violations == []
    assert out.outcomes == {0: "committed", 1: "committed"}
    assert not out.truncated
    assert len(out.commits) == 2


@pytest.mark.parametrize("scheduler", ["rts", "tfa"])
def test_small_config_is_exhaustive_clean_and_pruned(scheduler):
    cfg = ExploreConfig(nodes=2, txns=2, objects=1, scheduler=scheduler)
    report = explore(cfg)
    assert report.violations == []
    assert report.counterexample is None
    assert report.exhaustive, "2/2/1 must be fully enumerable"
    # pinned enumeration: the ready sets are the ties in tuple order,
    # whatever holds the schedule; unchanged by the callback-chained
    # inbox server
    assert report.runs == {"rts": 10, "tfa": 7}[scheduler]
    assert report.truncated_runs == 0
    # DPOR-style pruning must beat the naive fan-out by at least 2x.
    assert report.pruned_branches > 0
    assert report.pruning_ratio > 2.0


@pytest.mark.parametrize(
    "scheduler, runs, naive, kept, events_before",
    [("rts", 10, 91, 35, 812), ("tfa", 7, 55, 21, 496)],
)
def test_reply_event_fanouts_leave_the_choice_points_alone(
    scheduler, runs, naive, kept, events_before
):
    """Validation and registration calls are reply signals joined by one
    counting join, not one process each: runs and naive/kept branches
    are what they were with the processes (recorded at 317ae3b); only
    the kernel events spent enumerating them fall."""
    report = explore(ExploreConfig(nodes=2, txns=2, objects=1,
                                   scheduler=scheduler))
    assert report.exhaustive and report.violations == []
    assert (report.runs, report.naive_branches, report.kept_branches) == (
        runs, naive, kept
    )
    assert report.events_total < events_before


def test_service_events_are_attributed_to_their_node():
    """An inbox service completion belongs to its node (by the owner's
    name, as a process does), not to "unknown = dependent with all":
    two nodes' service calls commute, and a service call is never
    mistaken for a remote delivery."""
    from repro.check.explore import _delivery_dst, _dependent, _entry_sites
    from repro.net import MessageType, Network, Node, Topology
    from repro.sim import Environment, RngRegistry

    env = Environment()
    net = Network(env, Topology(3, RngRegistry(seed=4).stream("topo")))
    nodes = [Node(env, net, i, msg_process_time=0.01) for i in range(3)]
    for node in nodes:
        node.on(MessageType.PING, lambda m: None)
    nodes[0].send(1, MessageType.PING)
    nodes[0].send(2, MessageType.PING)
    env.run(until=max(net.topology.delay(0, 1), net.topology.delay(0, 2)))
    services = sorted(
        env.pending_entries(), key=lambda entry: entry[3].__self__.name,
    )
    assert [_entry_sites(entry) for entry in services] == [
        frozenset({1}), frozenset({2}),
    ]
    assert [_delivery_dst(entry) for entry in services] == [None, None]
    one, two = (_entry_sites(entry) for entry in services)
    assert not _dependent(one, False, two, False)
    assert not _dependent(one, False, one, False)  # same node: program order
    assert _dependent(one, False, one, True)       # ... unless one arrives


def test_interleavings_really_differ():
    cfg = ExploreConfig(**SMALL)
    base = run_interleaving(cfg)
    assert base.widths, "the default run must hit branch points"
    flipped = run_interleaving(cfg, prefix=(1,))
    assert flipped.violations == []
    # The flipped schedule took a different branch at depth 0 ...
    assert flipped.choices[0] == 1
    # ... and still terminates with every transaction resolved.
    assert len(flipped.outcomes) == cfg.txns


def test_seeded_lost_wakeup_bug_is_found_within_budget():
    cfg = ExploreConfig(**SMALL, max_runs=50)
    report = explore(cfg, bug="lost-wakeup")
    assert report.counterexample is not None, "the seeded bug must be found"
    rules = {v["rule"] for v in report.violations}
    assert "mc-lost-wakeup" in rules
    assert "mc-quiescence" in rules
    assert report.runs <= 50


def test_seeded_bug_patch_is_fully_restored():
    from repro.dstm.proxy import TMProxy

    release, await_ = TMProxy.release_object, TMProxy._await_handoff
    with seeded_bug("lost-wakeup"):
        assert TMProxy.release_object is not release
        assert TMProxy._await_handoff is not await_
    assert TMProxy.release_object is release
    assert TMProxy._await_handoff is await_
    # A post-bug healthy run is unaffected by the (undone) patch.
    assert run_interleaving(ExploreConfig(**SMALL)).violations == []


def test_unknown_seeded_bug_is_an_error():
    with pytest.raises(ValueError, match="unknown seeded bug"):
        with seeded_bug("nope"):
            pass


def test_counterexample_dumps_and_replays_deterministically(tmp_path):
    cfg = ExploreConfig(**SMALL, max_runs=50)
    report = explore(cfg, bug="lost-wakeup")
    assert report.counterexample is not None

    ce_path = tmp_path / "ce.jsonl"
    repro_cmd = dump_counterexample(ce_path, cfg, report.counterexample,
                                    bug="lost-wakeup")
    assert "--replay" in repro_cmd and str(ce_path) in repro_cmd

    lines = [json.loads(line) for line in ce_path.read_text().splitlines()]
    assert lines[0]["cat"] == "explore.meta"
    assert lines[0]["bug"] == "lost-wakeup"
    assert lines[0]["repro"] == repro_cmd
    assert any(line["cat"] == "explore.violation" for line in lines)

    # Replay twice: the same choices reproduce the same violations.
    first = replay_counterexample(ce_path)
    second = replay_counterexample(ce_path)
    assert first.violations == second.violations == report.violations
    assert first.choices == report.counterexample.choices


def test_cli_seed_bug_roundtrip(tmp_path, capsys):
    ce = tmp_path / "ce.jsonl"
    code = main([
        "--nodes", "2", "--txns", "2", "--objects", "1",
        "--scheduler", "rts", "--max-runs", "50",
        "--seed-bug", "lost-wakeup", "--ce-out", str(ce),
    ])
    assert code == 0, "with --seed-bug, exit 0 means the bug WAS found"
    assert ce.exists()
    assert main(["--replay", str(ce)]) == 0
    out = capsys.readouterr().out
    assert "reproduced [mc-" in out


def test_cli_healthy_run_exits_zero(capsys):
    code = main([
        "--nodes", "2", "--txns", "2", "--objects", "1",
        "--scheduler", "tfa", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["exhaustive"] is True
    assert payload["pruning_ratio"] > 2.0
