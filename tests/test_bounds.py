"""Closed-form bounds and the conditional phi table.

Everything here is integer arithmetic; frozen float fixtures appear only
for the diagnostic ratio, with a tight relative tolerance.
"""

import pytest

from conecross import (
    PhiUpper,
    bound_report,
    conjecture_ratio,
    fs_known,
    harary_hill,
    hh_phi_upper,
    multigraph_family_point,
    multigraph_upper_check,
    thm12_check,
    thm12_min_c,
    thm41_lower,
)
from conecross.bounds import FS_KNOWN


def test_sqrt_bound_check():
    assert thm12_check(3, 6)
    assert thm12_check(2, 5)
    assert thm12_check(0, 0)
    assert not thm12_check(3, 2)  # cone below the base is impossible
    assert not thm12_check(8, 9)  # 2*(9-8)^2 = 2 < 8
    with pytest.raises(ValueError):
        thm12_check(-1, 0)
    with pytest.raises(ValueError):
        thm12_check(0, -1)


def test_sqrt_bound_minimum():
    assert thm12_min_c(0) == 0
    assert thm12_min_c(1) == 2
    assert thm12_min_c(3) == 5
    assert thm12_min_c(50) == 55
    assert thm12_min_c(51) == 57
    for k in (0, 1, 2, 7, 19, 100, 12345):
        c = thm12_min_c(k)
        assert thm12_check(k, c)
        assert c == k or not thm12_check(k, c - 1)


def test_simple_graph_lower_bound_table():
    assert thm41_lower(0) == 0
    assert thm41_lower(1) == 3
    assert thm41_lower(2) == 5
    assert thm41_lower(3) == 6
    assert thm41_lower(4) == 8
    assert thm41_lower(5) == 10
    assert thm41_lower(10) == 15
    with pytest.raises(ValueError):
        thm41_lower(-2)


def test_simple_bound_matches_the_known_table_where_it_is_tight():
    for k, value in FS_KNOWN.items():
        assert thm41_lower(k) == value
        assert fs_known(k) == value
    assert fs_known(6) is None
    assert fs_known(0) is None


def test_simple_bound_dominates_the_sqrt_bound_only_up_to_fifty():
    """The linear k + 5 form wins for small k, the sqrt form past it.

    The crossover is exactly at k = 51: 55 >= 55 at fifty, then 56 < 57.
    """
    for k in range(0, 51):
        assert thm41_lower(k) >= thm12_min_c(k)
    assert thm41_lower(51) == 56
    assert thm12_min_c(51) == 57
    violations = [k for k in range(52, 2000) if thm41_lower(k) >= thm12_min_c(k)]
    assert violations == []


def test_multigraph_family_point():
    assert multigraph_family_point(1) == (3, 6)
    assert multigraph_family_point(2) == (12, 18)
    assert multigraph_family_point(3) == (27, 36)
    with pytest.raises(ValueError):
        multigraph_family_point(0)


def test_family_points_sit_on_the_multigraph_upper_bound():
    for r in range(1, 30):
        k, c = multigraph_family_point(r)
        assert c == k + 3 * r
        assert multigraph_upper_check(k, c)
        assert not multigraph_upper_check(k, c + 1)


def test_multigraph_upper_check_edges():
    assert multigraph_upper_check(12, 18)
    assert not multigraph_upper_check(12, 19)
    assert multigraph_upper_check(5, 3)  # any c <= k passes trivially
    with pytest.raises(ValueError):
        multigraph_upper_check(-1, 2)


def test_harary_hill_values():
    assert [harary_hill(n) for n in range(1, 5)] == [0, 0, 0, 0]
    assert [harary_hill(n) for n in range(5, 13)] == [1, 3, 9, 18, 36, 60, 100, 150]


def test_phi_upper_fixture_for_k_ten():
    row = hh_phi_upper(10)
    assert (row.n, row.n1, row.cr_g, row.cr_cone, row.phi_upper) == (8, 5, 10, 21, 11)
    assert row.conditional
    assert row.k == 10


@pytest.mark.parametrize(
    "k,expected",
    [
        (1, (5, 5, 1, 4, 3)),
        (2, (6, 5, 2, 6, 4)),
        (9, (7, 7, 12, 27, 18)),
    ],
)
def test_phi_upper_small_values(k, expected):
    row = hh_phi_upper(k)
    assert (row.n, row.n1, row.cr_g, row.cr_cone, row.phi_upper) == expected


def test_phi_upper_internal_consistency():
    for k in (1, 2, 3, 10, 99, 1234):
        row = hh_phi_upper(k)
        assert row.cr_g >= k
        assert row.cr_cone - k == row.phi_upper
        assert harary_hill(row.n) >= k > harary_hill(row.n - 1)
    with pytest.raises(ValueError):
        hh_phi_upper(0)


def test_phi_upper_is_a_frozen_conditional_record():
    row = PhiUpper(1, 5, 5, 1, 4, 3)
    assert row.conditional
    with pytest.raises(AttributeError):
        row.k = 2


def test_conjecture_ratio_frozen_values():
    assert conjecture_ratio(10) == pytest.approx(1.3831767726512287, rel=1e-9)
    assert conjecture_ratio(10**3) == pytest.approx(1.2843622269587867, rel=1e-9)
    assert conjecture_ratio(10**4) == pytest.approx(1.2791561671664644, rel=1e-9)
    assert conjecture_ratio(10**5) == pytest.approx(1.1637546391715565, rel=1e-9)
    assert conjecture_ratio(10**6) == pytest.approx(1.074631909306624, rel=1e-9)


def test_conjecture_ratio_stays_bounded():
    values = [conjecture_ratio(10**e) for e in range(3, 9)]
    assert all(0.9 < v < 1.4 for v in values)


def test_bound_report_rows():
    rows = bound_report(10)
    names = [r["bound"] for r in rows]
    assert names == [
        "cone-lower-sqrt",
        "cone-lower-simple",
        "cone-upper-multigraph",
        "phi-upper",
    ]
    by_name = {r["bound"]: r for r in rows}
    assert all(r["k"] == 10 for r in rows)
    assert by_name["cone-lower-sqrt"]["value"] == 13
    assert by_name["cone-lower-simple"]["value"] == 15
    assert by_name["cone-upper-multigraph"]["value"] == pytest.approx(10 + 30**0.5)
    assert by_name["phi-upper"]["value"] == 11
    assert by_name["phi-upper"]["conditional"]
    assert not by_name["cone-lower-sqrt"]["conditional"]


def test_bound_report_includes_known_values_when_they_exist():
    rows = bound_report(3)
    by_name = {r["bound"]: r for r in rows}
    assert by_name["fs-known"]["value"] == 6
    assert by_name["cone-lower-simple"]["value"] == 6


def test_bound_report_at_zero():
    by_name = {r["bound"]: r["value"] for r in bound_report(0)}
    assert by_name == {
        "cone-lower-sqrt": 0,
        "cone-lower-simple": 0,
        "cone-upper-multigraph": 0,
    }
    with pytest.raises(ValueError):
        bound_report(-1)
