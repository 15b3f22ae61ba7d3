"""Unit tests for versioned objects and the home-node hash."""

from repro.dstm.objects import (
    ObjectMode,
    ObjectState,
    VersionedObject,
    home_node,
)


class TestHomeNode:
    def test_stable(self):
        assert home_node("obj1", 10) == home_node("obj1", 10)

    def test_in_range(self):
        for i in range(50):
            assert 0 <= home_node(f"obj{i}", 7) < 7

    def test_single_node(self):
        assert home_node("anything", 1) == 0

    def test_spreads_across_nodes(self):
        homes = {home_node(f"obj{i}", 8) for i in range(100)}
        assert len(homes) >= 6  # near-uniform for 100 draws over 8 bins


class TestObjectMode:
    def test_copy_property(self):
        assert ObjectMode.READ.is_copy
        assert ObjectMode.WRITE.is_copy
        assert not ObjectMode.ACQUIRE.is_copy

    def test_values_roundtrip(self):
        assert ObjectMode("r") is ObjectMode.READ
        assert ObjectMode("a") is ObjectMode.ACQUIRE


class TestVersionedObject:
    def test_initial_state(self):
        obj = VersionedObject("o1", value=10)
        assert obj.version == 0
        assert obj.state is ObjectState.FREE
        assert obj.holder is None

    def test_commit_write_bumps_version(self):
        obj = VersionedObject("o1", value=1)
        new_version = obj.commit_write(2)
        assert new_version == 1
        assert obj.value == 2
        assert obj.version == 1

    def test_release_resets_hold_state(self):
        obj = VersionedObject("o1", value=1)
        obj.state = ObjectState.VALIDATING
        obj.holder = "tx9"
        obj.release()
        assert obj.state is ObjectState.FREE
        assert obj.holder is None

    def test_repr_mentions_state(self):
        obj = VersionedObject("o1", value=1)
        obj.state = ObjectState.VALIDATING
        obj.holder = "tx1"
        assert "validating" in repr(obj)
        assert "tx1" in repr(obj)
