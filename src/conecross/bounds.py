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
    for simple graphs; multigraph cones get as low as k + sqrt(3k), which
    is below k + 5 only for k <= 8 (sqrt(3k) < 5 exactly when 3k < 25).
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

    n(n-2)^2(n-4)/64 for even n, (n-1)^2(n-3)^2/64 for odd n, both 0 for
    n <= 4.  Both divisions are exact: for odd n, (n-1)(n-3) is a product
    of consecutive even numbers, so 8 divides it; for n = 2a the numerator
    is 16 a(a-2)(a-1)^2, and 4 divides a(a-2) for even a and (a-1)^2 for
    odd a.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        return n * (n - 2) ** 2 * (n - 4) // 64
    return (n - 1) ** 2 * (n - 3) ** 2 // 64


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


def bound_report(k: int) -> list[dict]:
    """Every closed-form bound at one k, as serializable rows
    {k, bound, value, conditional}; fs-known only where f_s(k) is
    established, phi-upper (conditional on Harary-Hill) from k = 1 on."""
    if k < 0:
        raise ValueError("k must be non-negative")
    found = [
        ("cone-lower-sqrt", thm12_min_c(k), False),
        ("cone-lower-simple", thm41_lower(k), False),
        ("cone-upper-multigraph", k + sqrt(3 * k), False),
    ]
    if (known := fs_known(k)) is not None:
        found.append(("fs-known", known, False))
    if k >= 1:
        found.append(("phi-upper", hh_phi_upper(k).phi_upper, True))
    return [{"k": k, "bound": b, "value": v, "conditional": c} for b, v, c in found]
