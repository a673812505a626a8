"""Tail rule, failure counting and deadlines."""

import pytest

from measure import Op, deadlines, run_op, tail
from run import end_to_end


def test_tail_is_the_maximum_below_eleven_values():
    assert tail([5, 1, 3]) == (5, 100.0)
    assert tail(range(10)) == (9, 100.0)


@pytest.mark.parametrize("n", [11, 12, 100, 1500])
def test_tail_leaves_exactly_ten_values_beyond(n):
    values = [3 * i for i in range(n)]
    value, percentile = tail(reversed(values))
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_of_100_values_is_p90():
    assert tail(range(100)) == (89, 90.0)


def _spin():
    while True:
        pass


def test_each_failure_kind_is_counted_and_the_pass_goes_on():
    ops = [
        Op("ok", lambda: 2, lambda r: None if r == 2 else "bad", 5.0),
        Op("raised", lambda: 1 / 0, lambda r: None, 5.0),
        Op("wrong", lambda: 3, lambda r: None if r == 2 else f"got {r}", 5.0),
        Op("deadline", _spin, lambda r: None, 0.05),
        Op("check-raised", lambda: None, lambda r: r[0], 5.0),
        Op("after", lambda: 2, lambda r: None, 5.0),
    ]
    with deadlines():
        records = [run_op(op) for op in ops]
    assert [r.status for r in records] == ["ok", "raised", "wrong", "deadline", "wrong", "ok"]
    assert records[1].detail.startswith("ZeroDivisionError")
    assert records[3].latency_ns >= 0.05e9
    assert "check raised TypeError" in records[4].detail


def test_deadline_is_not_swallowed_by_except_exception():
    def stubborn():
        while True:
            try:
                _spin()
            except Exception:
                pass

    with deadlines():
        assert run_op(Op("stubborn", stubborn, lambda r: None, 0.05)).status == "deadline"


def test_failed_ops_frac_counts_every_failed_op_against_attempts():
    def record(latency_ms, status="ok"):
        return ["op", int(latency_ms * 1e6), status, ""]

    passes = [
        {"ops": [record(1), record(2), record(30, "deadline"), record(4)], "setup_s": 0.1, "rss_mb": 20.0},
        {"ops": [record(1), record(2, "wrong"), record(3), record(5)], "setup_s": 0.3, "rss_mb": 22.0},
    ]
    metrics, details = end_to_end(passes)
    assert details["failed_ops_frac"] == 2 / 8
    assert metrics["ok_ops_frac"] == (0.75, "ratio")
    assert details["ops_per_pass"] == 4 and details["op_tail_percentile"] == 100.0
    assert metrics["wall_s"][0] == pytest.approx((0.037 + 0.011) / 2)
    assert metrics["op_tail_ms"][0] == pytest.approx((30 + 5) / 2)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
