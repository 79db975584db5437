"""Closed-form crossing-number bounds for cones, evaluated exactly.

Integer-versus-radical comparisons are always done through a squared
rearrangement, never through floats: for instance c >= k + sqrt(k/2)
becomes c >= k and 2(c-k)^2 >= k.  Floating point appears only in the
diagnostic ratio helpers.

Everything that depends on the Harary-Hill conjecture carries an explicit
conditional flag when serialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, sqrt


def thm12_check(k: int, c: int) -> bool:
    """Does c >= k + sqrt(k/2)?  (The general cone lower bound.)"""
    if k < 0 or c < 0:
        raise ValueError("k and c must be non-negative")
    return c >= k and 2 * (c - k) * (c - k) >= k


def thm12_min_c(k: int) -> int:
    """Smallest c passing thm12_check, i.e. k + ceil(sqrt(k/2))."""
    if k < 0:
        raise ValueError("k must be non-negative")
    t = isqrt(k // 2)
    while 2 * t * t < k:
        t += 1
    return k + t


def thm41_lower(k: int) -> int:
    """Lower bound on cone crossing numbers over simple graphs with cr >= k.

    Piecewise: 0, 3, k+3, k+3, k+4, then k+5 from k = 5 on.  Only valid
    for simple graphs; multigraph cones get as low as k + sqrt(3k),
    which drops below k + 5 once k is large.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 0
    if k == 1:
        return 3
    if k <= 3:
        return k + 3
    if k == 4:
        return k + 4
    return k + 5


def multigraph_family_point(r: int) -> tuple[int, int]:
    """(cr, cone cr) = (3r^2, 3r^2 + 3r) for the r-fold triangle-hexagon graph.

    These datapoints meet the multigraph upper bound k + sqrt(3k) with
    equality: sqrt(3 * 3r^2) = 3r exactly.
    """
    if r < 1:
        raise ValueError("r must be positive")
    return 3 * r * r, 3 * r * r + 3 * r


def multigraph_upper_check(k: int, c: int) -> bool:
    """Does c <= k + sqrt(3k), evaluated exactly?"""
    if k < 0 or c < 0:
        raise ValueError("k and c must be non-negative")
    return c <= k or (c - k) * (c - k) <= 3 * k


def harary_hill(n: int) -> int:
    """Z(n), the conjectured crossing number of K_n.

    n(n-2)^2(n-4)/64 for even n, (n-1)^2(n-3)^2/64 for odd n; both divisions
    are exact.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        num = n * (n - 2) ** 2 * (n - 4)
    else:
        num = (n - 1) ** 2 * (n - 3) ** 2
    if n <= 4:
        return 0
    if num % 64:
        raise RuntimeError(f"Z({n}) numerator {num} is not divisible by 64")
    return num // 64


@dataclass(frozen=True)
class PhiUpper:
    """Conditional upper bound data for phi_s(k) = f_s(k) - k.

    Split k into complete-graph chunks: G = K_{n-1} plus K_{n1} gives a
    simple graph with cr(G) >= k whose cone is K_n plus K_{n1+1}.  Valid
    only if the Harary-Hill conjecture holds, hence the flag.
    """

    k: int
    n: int
    n1: int
    cr_g: int
    cr_cone: int
    phi_upper: int
    conditional: bool = True

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n, self.n1, self.cr_g, self.cr_cone, self.phi_upper)


def _minimal_n(k: int) -> int:
    """Smallest n with Z(n) >= k (then Z(n-1) < k automatically)."""
    n = 1
    while harary_hill(n) < k:
        n += 1
    return n


def hh_phi_upper(k: int) -> PhiUpper:
    if k < 1:
        raise ValueError("k must be positive")
    n = _minimal_n(k)
    k1 = k - harary_hill(n - 1) if n > 1 else k
    n1 = _minimal_n(k1)
    cr_g = harary_hill(n - 1) + harary_hill(n1)
    cr_cone = harary_hill(n) + harary_hill(n1 + 1)
    return PhiUpper(k, n, n1, cr_g, cr_cone, cr_cone - k)


def conjecture_ratio(k: int) -> float:
    """phi upper bound over sqrt(2)*k^(3/4); diagnostic, floats allowed."""
    return hh_phi_upper(k).phi_upper / (sqrt(2) * k**0.75)


FS_KNOWN = {1: 3, 2: 5, 3: 6, 4: 8, 5: 10}


def fs_known(k: int) -> int | None:
    """The five established values of f_s, None elsewhere."""
    return FS_KNOWN.get(k)


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound evaluated at one k."""

    k: int
    thm12_lower_approx: float
    thm12_min_c: int
    thm41_lower: int
    multigraph_upper_approx: float
    fs_known: int | None
    phi: PhiUpper | None

    def rows(self) -> list[dict]:
        """Serializable rows: {k, bound, value, conditional}."""
        rows = [
            {
                "k": self.k,
                "bound": "cone-lower-sqrt",
                "value": self.thm12_min_c,
                "conditional": False,
            },
            {
                "k": self.k,
                "bound": "cone-lower-simple",
                "value": self.thm41_lower,
                "conditional": False,
            },
            {
                "k": self.k,
                "bound": "cone-upper-multigraph",
                "value": self.multigraph_upper_approx,
                "conditional": False,
            },
        ]
        if self.fs_known is not None:
            rows.append(
                {
                    "k": self.k,
                    "bound": "fs-known",
                    "value": self.fs_known,
                    "conditional": False,
                }
            )
        if self.phi is not None:
            rows.append(
                {
                    "k": self.k,
                    "bound": "phi-upper",
                    "value": self.phi.phi_upper,
                    "conditional": True,
                }
            )
        return rows


def bound_report(k: int) -> BoundReport:
    if k < 0:
        raise ValueError("k must be non-negative")
    return BoundReport(
        k=k,
        thm12_lower_approx=k + sqrt(k / 2),
        thm12_min_c=thm12_min_c(k),
        thm41_lower=thm41_lower(k),
        multigraph_upper_approx=k + sqrt(3 * k),
        fs_known=fs_known(k),
        phi=hh_phi_upper(k) if k >= 1 else None,
    )
