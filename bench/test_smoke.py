"""Smoke test for the benchmark itself: every workload at a tiny size, all
answer checks on, traced twice with the same seed.

    python -m pytest -q bench/test_smoke.py

Asserts that the run is correct and that the counters the per-layer
analysis leans on repeat exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Leading tasks of round 0 per workload: enough to reach every layer the
# workload exercises while staying well inside the budget.
TINY = {"exact": 4, "cone": 2, "books": 16}
REPEATING = [
    "solver.nodes",
    "planarity.lr_planar.calls",
    "maxcut.maxcut_exact.calls",
    "pages.two_page_orders",
]
EXERCISED = {
    "exact": ["solver.nodes", "planarity.lr_planar.calls"],
    "cone": ["solver.nodes", "apex.insert_apex.calls", "pages.outerplanar_cr.calls"],
    "books": ["maxcut.maxcut_exact.calls", "maxcut.maxcut_edwards.calls",
              "pages.two_page_orders", "pages.prefix_nodes"],
}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    report, line = run.run_workload(workload, seed, 1, trace=1, tiny=TINY[workload])
    assert line["correct"], report.get("wrong_answer")
    assert line["attempted"] == TINY[workload]
    assert line["failed"] == 0
    return report, line


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counters_repeat_for_a_seed(workload):
    first, _ = traced(workload, seed=3)
    again, _ = traced(workload, seed=3)
    for name in REPEATING + EXERCISED[workload]:
        assert first["per_layer"][name] == again["per_layer"][name], name
    for name in EXERCISED[workload]:
        assert first["per_layer"][name]["value"] > 0, name


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
