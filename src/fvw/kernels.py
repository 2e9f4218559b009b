"""Reduction of a radial interaction kernel to a differential operator.

The sphere average of a smooth function expands in powers of the radius with
iterated-Laplacian coefficients C_{n,j}; integrating against a radial kernel
K0 then yields the moments ell_j multiplying v, Lap v, Lap^2 v, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad

from .errors import NumericalFailure, ValidationError


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere boundary in R^n (2 for n=1, 2*pi for n=2, ...)."""
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise ValidationError(f"dimension n = {n} is too large: Gamma(n/2) leaves the float range") from None


def pizzetti_constants(n: int, j_max: int) -> list[float]:
    """Constants C_{n,j}, j = 0..j_max, in the sphere-average expansion

        integral over |y|=rho of f = sum_j C_{n,j} rho^{n-1+2j} Lap^j f + O(rho^{n+2*j_max}).

    C_{n,j} = area(S^{n-1}) / (2^j j! n(n+2)...(n+2j-2)).
    """
    if n < 1:
        raise ValidationError("dimension n must be at least 1")
    if not 0 <= j_max <= 6:
        raise ValidationError("j_max must lie in [0, 6]")
    area = sphere_surface_area(n)
    out = []
    denom = 1.0
    for j in range(j_max + 1):
        if j > 0:
            denom *= 2.0 * j * (n + 2 * j - 2)
        out.append(area / denom)
    return out


@dataclass(frozen=True)
class KernelMoments:
    constants: list[float]  # C_{n,0} .. C_{n,j_max}
    moments: list[float]  # ell_0 .. ell_{j_max}


MAX_RADIUS = 1e8  # a kernel not negligible by this radius decays too slowly to truncate


def truncation_radius(K0: Callable[[float], float]) -> float:
    """Radius beyond which the kernel is negligible (below 1e-16 of K0(0))."""
    k0 = K0(0.0)
    if not k0 > 0:
        raise ValidationError("kernel must be positive at the origin")
    r = 1.0
    while K0(r) >= 1e-16 * k0:
        r *= 2.0
        if r > MAX_RADIUS:
            raise NumericalFailure(f"kernel has not decayed below 1e-16*K0(0) by radius {MAX_RADIUS}")
    return r


def kernel_moments(K0: Callable[[float], float], n: int, j_max: int) -> KernelMoments:
    """Moments ell_j = C_{n,j} * integral of rho^(n-1+2j) K0(rho) over (0, inf),
    computed by adaptive quadrature on a truncated range."""
    constants = pizzetti_constants(n, j_max)
    r_max = truncation_radius(K0)
    moments = []
    for j, c in enumerate(constants):
        power = n - 1 + 2 * j
        try:
            integral, _ = quad(
                lambda rho: rho**power * K0(rho), 0.0, r_max, epsrel=1e-10, epsabs=1e-14, limit=200
            )
        except OverflowError:
            raise ValidationError(
                f"dimension n = {n} is too large for this kernel's scale: rho**{power} overflows on [0, {r_max:g}]"
            ) from None
        moments.append(c * integral)
    return KernelMoments(constants=constants, moments=moments)
