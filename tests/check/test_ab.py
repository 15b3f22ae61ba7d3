"""``python -m repro.check.ab host``: offline, with an injected runner.

No test here runs the ledger: a fake runner prints what
``benchmarks/e2e/run.py --trace 0`` prints, so the header parsing, the
pair order, the verdict and the checkout handling are checked in
milliseconds.
"""

import json
import subprocess

import pytest

from repro.check import ab
from repro.prof.trend import row_from_payload

HEADER = (
    "# lowcont_bank_80  seed=1 reps=2 attempted=578 failed=0 "
    "sim_digest={digest}"
)


def run_stdout(us, digest="86a2119ac14e452f", commits_per_s=289.0, failed=0):
    """A run.py stdout: the table, its header and the result line."""
    result = {
        "correct": failed == 0, "attempted": 578, "failed": failed,
        "metrics": {
            "host_us_per_commit": {"value": us, "unit": "us"},
            "setup_s": {"value": 0.07, "unit": "s"},
            "sim_commits_per_s": {"value": commits_per_s, "unit": "tx/sim-s"},
        },
    }
    return "\n".join([
        "workload        metric   value",
        HEADER.format(digest=digest),
        f"  host_us_per_commit   {us} us   (lower is better, bound 18%)",
        json.dumps(result),
    ]) + "\n"


class TestParseRun:
    def test_digest_from_the_header_metrics_from_the_last_line(self):
        run = ab.parse_run(run_stdout(414.2), "lowcont_bank_80")
        assert run["sim_digest"] == "86a2119ac14e452f"
        assert run["metrics"]["host_us_per_commit"] == 414.2
        assert run["correct"] and run["failed"] == 0

    def test_a_last_line_alone_is_refused(self):
        """The result line carries no digest: without the header there
        is nothing to compare."""
        last = run_stdout(414.2).strip().splitlines()[-1]
        with pytest.raises(ab.AbError, match="sim_digest"):
            ab.parse_run(last, "lowcont_bank_80")

    def test_another_cells_header_does_not_count(self):
        with pytest.raises(ab.AbError, match="sim_digest"):
            ab.parse_run(run_stdout(414.2), "hicont_vacation_20")

    def test_a_broken_result_line_is_refused(self):
        with pytest.raises(ab.AbError, match="result object"):
            ab.parse_run(run_stdout(414.2) + "Traceback ...\n", "lowcont_bank_80")


class TestPairOrder:
    def test_parent_first_in_odd_pairs(self):
        assert ab.pair_order(4) == [
            ("parent", "change"), ("change", "parent"),
            ("parent", "change"), ("change", "parent"),
        ]

    def test_the_runner_sees_that_order(self):
        calls = []

        def runner(checkout, workload, seed):
            calls.append((checkout, workload, seed))
            return run_stdout(400.0 if checkout == "P" else 380.0)

        result = ab.run_pairs(
            {"parent": "P", "change": "C"}, "lowcont_bank_80", 3, seed=2,
            runner=runner,
        )
        assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C"]
        assert {c[1:] for c in calls} == {("lowcont_bank_80", 2)}
        assert [row["first"] for row in result["pairs"]] == [
            "parent", "change", "parent",
        ]
        assert result["digests_equal"] and result["correct"]


class TestVerdict:
    def test_gain_needs_nine_tenths_and_a_gap_beyond_the_parent_iqr(self):
        parent = [470, 468, 466, 471, 469, 467, 472, 470, 468, 469]
        change = [p - 24 for p in parent]
        v = ab.verdict(parent, change)
        assert v["wins"] == 10 and v["gain"]
        assert v["parent_median"] == 469 and v["change_median"] == 445
        assert v["parent_iqr"] == pytest.approx(2.0)  # 470 - 468

    def test_eight_wins_of_ten_is_no_gain(self):
        parent = [470.0] * 10
        change = [440.0] * 8 + [470.0, 480.0]  # a tie counts for neither
        v = ab.verdict(parent, change)
        assert v["wins"] == 8 and not v["gain"]

    def test_a_gap_inside_the_parent_iqr_is_no_gain(self):
        parent = [400, 420, 440, 460, 480, 500, 520, 540, 560, 580]
        change = [p - 10 for p in parent]
        v = ab.verdict(parent, change)
        assert v["wins"] == 10 and not v["gain"]

    def test_one_pair_has_no_spread(self):
        v = ab.verdict([470.0], [470.0])
        assert v["parent_iqr"] == 0.0 and v["wins"] == 0 and not v["gain"]


class TestDigests:
    def test_a_moved_digest_or_sim_metric_is_reported(self):
        outputs = iter([
            run_stdout(400.0), run_stdout(390.0),
            run_stdout(390.0, digest="0000000000000000"), run_stdout(400.0),
            run_stdout(400.0), run_stdout(390.0, commits_per_s=288.0),
        ])
        result = ab.run_pairs(
            {"parent": "P", "change": "C"}, "lowcont_bank_80", 3,
            runner=lambda *_args: next(outputs),
        )
        assert [row["same"] for row in result["pairs"]] == [True, False, False]
        assert not result["digests_equal"]
        assert "DIFFER" in ab.summary_row(result)

    def test_a_failed_check_is_reported(self):
        result = ab.run_pairs(
            {"parent": "P", "change": "C"}, "lowcont_bank_80", 1,
            runner=lambda checkout, *_: run_stdout(400.0, failed=int(checkout == "C")),
        )
        assert not result["correct"]


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, capture_output=True, text=True,
    )


@pytest.fixture
def two_commits(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    for text in ("parent", "change"):
        (repo / "side.txt").write_text(text)
        git(repo, "add", "side.txt")
        git(repo, "commit", "-q", "-m", text)
    return repo


class TestHost:
    def test_checkouts_are_the_two_commits_and_are_removed(self, two_commits, tmp_path):
        seen = {}

        def runner(checkout, workload, seed):
            seen[checkout] = (checkout / "side.txt").read_text()
            return run_stdout(400.0 if seen[checkout] == "parent" else 380.0)

        out = tmp_path / "ab.json"
        result = ab.run_host(
            two_commits, "HEAD~1", "HEAD", "lowcont_bank_80", 2, 1, out, runner,
        )
        assert sorted(seen.values()) == ["change", "parent"]
        assert all(not checkout.exists() for checkout in seen)
        listed = subprocess.run(
            ["git", "-C", str(two_commits), "worktree", "list"],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        assert len(listed) == 1  # only the main checkout is left
        assert result["verdict"]["wins"] == 2
        # the JSON is a trend row as it stands
        row = row_from_payload(json.loads(out.read_text()))
        assert row["bench"] == "ab_host"
        assert row["metrics"]["lowcont_bank_80.host_us_per_commit"] == 380.0
        assert row["metrics"]["lowcont_bank_80.host_us_per_commit.parent"] == 400.0

    def test_out_under_the_ledger_is_refused(self, two_commits):
        out = two_commits / "benchmarks" / "e2e" / "captures" / "x.json"
        with pytest.raises(ab.AbError, match="benchmarks/e2e"):
            ab.run_host(
                two_commits, "HEAD", "HEAD", "lowcont_bank_80", 1, 1, out,
                runner=lambda *_: pytest.fail("ran before refusing --out"),
            )

    def test_an_unknown_revision_is_an_error(self, two_commits):
        with pytest.raises(ab.AbError, match="rev-parse"):
            ab.run_host(
                two_commits, "no-such-rev", "HEAD", "lowcont_bank_80", 1, 1,
                runner=lambda *_: pytest.fail("ran without a parent"),
            )
