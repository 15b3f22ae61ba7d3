"""The shared bench CLI: --arrival/--zipf parsing and rejection rules."""

import argparse
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from benchmarks.conftest import add_traffic_args, arrival_from_args  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser()
    add_traffic_args(parser)
    args = parser.parse_args(argv)
    return arrival_from_args(args, parser)


class TestParsing:
    def test_no_flags_means_closed_loop(self):
        assert _parse([]) is None

    def test_poisson(self):
        arrival = _parse(["--arrival", "poisson:40"])
        assert arrival.enabled is True
        assert arrival.process == "poisson"
        assert arrival.rate == 40.0

    def test_modifiers_flow_through(self):
        arrival = _parse([
            "--arrival", "poisson:10", "--zipf", "1.5",
            "--queue-capacity", "16",
        ])
        assert arrival.zipf_s == 1.5
        assert arrival.queue_capacity == 16


class TestRejection:
    def test_zipf_without_arrival_rejected(self):
        with pytest.raises(SystemExit):
            _parse(["--zipf", "1.5"])

    @pytest.mark.parametrize("argv", [
        ["--queue-capacity", "8"],
    ], ids=["queue-capacity"])
    def test_admission_flags_without_arrival_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            _parse(argv)
        assert "need --arrival" in capsys.readouterr().err

    def test_bad_queue_capacity_rejected(self):
        with pytest.raises(SystemExit):
            _parse(["--arrival", "poisson:10", "--queue-capacity", "0"])

    @pytest.mark.parametrize("spec", [
        "poisson", "poisson:fast", "uniform:10", "mmpp:10:4:9", "poisson:10:4",
        "mmpp:25:6", "poisson:inf",
    ])
    def test_malformed_arrival_rejected(self, spec):
        with pytest.raises(SystemExit):
            _parse(["--arrival", spec])

    @pytest.mark.parametrize("flag,value", [
        ("--scenario", "flash-crowd"), ("--shed-policy", "drop-oldest"),
    ])
    def test_removed_flag_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            _parse(["--arrival", "poisson:10", flag, value])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
