"""Size bounds for equiangular families, in exact integer arithmetic.

Only `math` is used, so `grasspack bounds` runs without numpy.
"""

from __future__ import annotations

import math

from .errors import NotOddPrimeError


def bound_gerzon(n: int) -> int:
    """C(n+1, 2): max number of equiangular lines in R^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(n + 1, 2)


def bound_decaen(t: int) -> tuple[int, int]:
    """(n, lower bound) with n = 3*2^(2t-1) - 1 and 2(n+1)^2/9 equiangular lines."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    n = 3 * 2 ** (2 * t - 1) - 1
    lower, rem = divmod(2 * (n + 1) ** 2, 9)
    assert rem == 0  # (n+1)^2 = 9 * 4^(2t-1) by construction
    return n, lower


def bound_angle_distance(k: int, n: int) -> int:
    """C(C(n+1,2)+k-1, k): dimension of degree-k forms in the symmetric-matrix variables."""
    _require_grassmann_params(k, n)
    return math.comb(math.comb(n + 1, 2) + k - 1, k)


def bound_blokhuis(n: int) -> int:
    """C(2n+3, 4): the earlier bound for theta_1-equiangular planes."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.comb(2 * n + 3, 4)


def bound_chordal(n: int) -> int:
    """C(n+1, 2): simplex bound from the sphere embedding of projectors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(n + 1, 2)


def bound_fubini_study(k: int, n: int) -> int:
    """C(C(n,k)+1, 2): line bound applied in the exterior power."""
    _require_grassmann_params(k, n)
    return math.comb(math.comb(n, k) + 1, 2)


def bound_lemmens_seidel(k: int, n: int) -> int:
    """C(n+1,2) - C(k+1,2) + 1: bound on equi-isoclinic subspace families."""
    _require_grassmann_params(k, n)
    return math.comb(n + 1, 2) - math.comb(k + 1, 2) + 1


def bound_table(k: int, n: int) -> list[tuple[str, int]]:
    """The (name, value) rows of `grasspack bounds k n`: the upper bounds, then de Caen's
    lines where n = 3 * 2^(2t-1) - 1, for lines (k = 1) and their complements (k = n - 1)."""
    _require_grassmann_params(k, n)
    rows = [("gerzon", bound_gerzon(n))] if k == 1 else []
    rows.append(("angle-distance", bound_angle_distance(k, n)))
    if k == 2:
        rows.append(("blokhuis", bound_blokhuis(n)))
    rows += [("chordal", bound_chordal(n)), ("fubini-study", bound_fubini_study(k, n)),
             ("lemmens-seidel", bound_lemmens_seidel(k, n))]
    if k in (1, n - 1):
        t = 1
        while (decaen := bound_decaen(t))[0] < n:
            t += 1
        if decaen[0] == n:
            rows.append(("decaen-lower", decaen[1]))
    return rows


def size_chrss(p: int) -> tuple[int, int, int]:
    """(dimension, ambient, family size) = ((p-1)/2, p, C(p+1,2)) for odd prime p.

    Size formula only; the underlying Hadamard construction is out of scope.
    """
    if p < 3 or p % 2 == 0 or not _is_prime(p):
        raise NotOddPrimeError(f"need an odd prime, got {p}")
    return (p - 1) // 2, p, math.comb(p + 1, 2)


def _require_grassmann_params(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True
