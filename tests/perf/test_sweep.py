"""Unit tests for the sweep-and-gate harness and the one percentile."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.obs.report import percentile
from repro.perf.sweep import (
    answer_digest,
    at_load,
    frontier,
    json_config,
    served_digest,
    strictly_below,
)


def neighbor(oid, distance):
    return SimpleNamespace(oid=oid, distance=distance)


@pytest.mark.parametrize(
    "fraction, expected", [(0.01, 1.0), (0.6, 3.0), (0.61, 4.0), (1.0, 5.0)]
)
def test_percentile_is_nearest_rank(fraction, expected):
    assert percentile([5.0, 1.0, 4.0, 2.0, 3.0], fraction) == expected


def test_percentile_takes_a_generator():
    assert percentile((x for x in (3.0, 1.0, 2.0)), 0.95) == 3.0


def test_answer_digest_heads_prefix_each_query():
    answers = [[neighbor(1, 0.5), neighbor(2, 1.25)], []]
    expected = hashlib.sha256(b"a:1:0.5;2:1.25;|b:|").hexdigest()
    assert answer_digest(answers, ["a:", "b:"]) == expected
    plain = hashlib.sha256(b"1:0.5;2:1.25;||").hexdigest()
    assert answer_digest(answers) == plain


def test_served_digest_heads_are_qid_and_outcome():
    query = SimpleNamespace(qid=7, outcome="shed", answers=[neighbor(3, 2.0)])
    serving = SimpleNamespace(queries=[query])
    expected = hashlib.sha256(b"7:shed:3:2.0;|").hexdigest()
    assert served_digest(serving) == expected


def test_json_config_lists_tuples_and_copies():
    config = {"loads": (1.0, 2.0), "k": 3}
    assert json_config(config) == {"loads": [1.0, 2.0], "k": 3}
    assert config["loads"] == (1.0, 2.0)


def test_frontier_and_at_load_read_the_sweep():
    points = [
        {"arm": arm, "offered_load": load, "latency_p99_s": p99}
        for arm, load, p99 in [
            ("a", 1.0, 0.1), ("b", 1.0, 0.2), ("a", 2.0, 0.3), ("b", 2.0, 0.4)
        ]
    ]
    assert frontier(points, "arm", ("b", "a")) == {
        "b": [[1.0, 0.2], [2.0, 0.4]],
        "a": [[1.0, 0.1], [2.0, 0.3]],
    }
    assert at_load(points, "arm", "b", 2.0)["latency_p99_s"] == 0.4


def test_strictly_below_returns_the_ratio():
    assert strictly_below({"m": 1.0}, {"m": 4.0}, "m", "claim") == 0.25


@pytest.mark.parametrize("value", [4.0, 5.0])
def test_strictly_below_refuses_a_tie_or_a_loss(value):
    with pytest.raises(RuntimeError, match=(
        rf"x beats y does not hold: m {value:.4f} >= 4\.0000"
    )):
        strictly_below({"m": value}, {"m": 4.0}, "m", "x beats y")
