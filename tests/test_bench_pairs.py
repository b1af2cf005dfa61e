"""The verdicts of ``scripts/bench_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _wins(parent, change):
    return sum(c < p for p, c in zip(parent, change))


def test_a_gain_needs_nine_wins_and_a_median_past_the_parents_spread():
    change = [0.8 * v for v in PARENT]
    v = bench_pairs._verdict(LOWER, PARENT, change, _wins(PARENT, change))
    assert v["verdict"].startswith("better: wins >= 9/10 pairs")
    assert v["pairs_won_by_change"] == 10
    assert v["change_over_parent"] == pytest.approx(-0.2)
    # the same medians with only 8 pairs won are no gain
    v = bench_pairs._verdict(LOWER, PARENT, change, 8)
    assert v["verdict"] == "within the bound"


def test_a_median_beyond_the_bound_is_worse():
    change = [1.3 * v for v in PARENT]
    v = bench_pairs._verdict(LOWER, PARENT, change, _wins(PARENT, change))
    assert v["verdict"] == "worse: beyond the bound"
    higher = {**LOWER, "better": "higher"}
    v = bench_pairs._verdict(higher, PARENT, [0.7 * p for p in PARENT], 0)
    assert v["verdict"] == "worse: beyond the bound"


def test_a_parent_wider_than_the_bound_leaves_an_overlap_unresolved():
    parent = [0.5, 1.5] * 5
    v = bench_pairs._verdict(LOWER, parent, [1.0] * 10, 5)
    assert v["verdict"].startswith("unresolved")


def test_a_claim_outside_the_benchmark_is_refused_before_any_run(tmp_path, capsys):
    for claim in ("join-uo-ea:nope", "nope:request_s.p50", "join-uo-ea"):
        with pytest.raises(SystemExit) as e:
            bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "b.json"),
                              "--claim", claim])
        assert e.value.code == 2
        assert "is not WORKLOAD:METRIC" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
