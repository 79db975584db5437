"""Canned experiment runners."""

import pytest

from conecross.experiments import (
    cor22_suite,
    family_points,
    fs_small,
    hh_table,
)


def test_fs_small_table(fs_rows):
    rows = fs_rows
    assert [r["k"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["value"] for r in rows] == [3, 5, 6, 8, 10]
    assert all(r["ok"] for r in rows)
    assert [r["provenance"] for r in rows] == [
        "solver-exact",
        "solver-exact",
        "solver-exact",
        "certificate+theorem",
        "certificate+theorem",
    ]
    assert [r["witness_cr"] for r in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["witness"] == "K5"


def test_fs_values_sit_on_the_lower_bound(fs_rows):
    for row in fs_rows:
        assert row["lower_bound"] == row["value"]


def test_family_points_rows():
    rows = family_points()
    assert [(r["r"], r["k"], r["cone_crossings"]) for r in rows] == [
        (1, 3, 6),
        (2, 12, 18),
    ]
    assert all(r["verified"] for r in rows)
    assert all(r["matches_formula"] for r in rows)


def test_fs_small_prints_open_brackets_as_null():
    rows = fs_small(budget_ms=0)
    # Rows 1-3 search both brackets; no search closes at budget 0.
    for row in rows[:3]:
        assert (row["value"], row["witness_cr"], row["ok"]) == (None, None, False)
    # Rows 4-5 keep the cone's closed bracket (drawing plus Theorem 4.1)
    # but not the witness's, whose counting bound needs the budget.
    assert [(r["value"], r["witness_cr"], r["ok"]) for r in rows[3:]] == [
        (8, None, False),
        (10, None, False),
    ]
    assert [r["lower_bound"] for r in rows] == [3, 5, 6, 8, 10]


def test_family_points_unsolved_r1_row_is_unverified():
    rows = family_points(budget_ms=0)
    assert [(r["r"], r["k"], r["cone_crossings"]) for r in rows] == [
        (1, 3, 6),
        (2, 12, 18),
    ]
    assert [r["verified"] for r in rows] == [False, True]
    assert all(r["matches_formula"] for r in rows)


def test_cor22_suite_finds_no_violations():
    # split_report raises on a split that misses either check.
    assert cor22_suite(count=120, seed=11) == {"count": 120, "seed": 11}


def test_cor22_suite_is_deterministic():
    assert cor22_suite(count=25, seed=4) == cor22_suite(count=25, seed=4)


def test_hh_table_rows():
    rows = hh_table(verify_upto=6)
    assert [r["z"] for r in rows] == [1, 3, 9, 18, 36, 60, 100, 150]
    assert rows[0]["two_page"] == 1 and rows[0]["verified"]
    assert rows[1]["two_page"] == 3 and rows[1]["verified"]
    assert "two_page" not in rows[2]


def test_hh_table_refuses_unverifiable_sizes():
    with pytest.raises(ValueError):
        hh_table(verify_upto=9)

