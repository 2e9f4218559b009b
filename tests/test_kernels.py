import math

import numpy as np
import pytest
from scipy.integrate import quad

from fvw import NumericalFailure, ValidationError, kernel_moments, pizzetti_constants
from fvw.kernels import sphere_surface_area, truncation_radius


class TestPizzettiConstants:
    def test_one_dimensional_values(self):
        # Oracle: Taylor expansion of f(p+rho) + f(p-rho) gives 2, 1, 1/12.
        c = pizzetti_constants(1, 2)
        assert c[0] == pytest.approx(2.0)
        assert c[1] == pytest.approx(1.0)
        assert c[2] == pytest.approx(1.0 / 12.0)

    @pytest.mark.parametrize(
        "n,area",
        [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi**2), (5, 8 * math.pi**2 / 3)],
    )
    def test_zeroth_constant_is_sphere_area(self, n, area):
        assert pizzetti_constants(n, 0)[0] == pytest.approx(area)
        assert sphere_surface_area(n) == pytest.approx(area)

    def test_exactness_on_quartic_in_two_dimensions(self):
        # f(y) = |y|^4 at radius 1: circle integral vs expansion through j = 2.
        integral, _ = quad(lambda t: 1.0, 0.0, 2 * math.pi)  # |y|^4 = 1 on the unit circle
        c = pizzetti_constants(2, 2)
        # Laplacian powers of |y|^4 at the origin: f(0)=0, Lap f(0)=0, Lap^2 f(0)=64.
        expansion = c[0] * 0.0 + c[1] * 0.0 + c[2] * 64.0
        assert expansion == pytest.approx(integral, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pizzetti_constants(0, 2)
        with pytest.raises(ValueError):
            pizzetti_constants(1, 7)


class TestKernelMoments:
    def test_constants_are_the_pizzetti_constants(self):
        assert kernel_moments(lambda r: math.exp(-r), 3, 4).constants == pizzetti_constants(3, 4)

    def test_gaussian_closed_forms(self):
        result = kernel_moments(lambda r: math.exp(-r * r), 1, 2)
        assert result.moments[0] == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert result.moments[1] == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-9)
        # ell_2 = C_{1,2} * Gamma(5/2)/2 = (1/12)(3/8)sqrt(pi)
        assert result.moments[2] == pytest.approx(math.sqrt(math.pi) / 32.0, abs=1e-9)

    def test_convolution_expansion_order(self):
        # For v(x) = cos(kx), the kernel convolution equals
        # (ell0 - ell1 k^2 + ell2 k^4) cos(kx) up to O(k^6).
        K0 = lambda r: math.exp(-r * r)
        result = kernel_moments(K0, 1, 2)
        errors = []
        for k in (0.1, 0.05):
            direct, _ = quad(lambda y: K0(abs(y)) * math.cos(k * y), -30.0, 30.0, epsrel=1e-12)
            series = result.moments[0] - result.moments[1] * k**2 + result.moments[2] * k**4
            errors.append(abs(direct - series))
        ratio = errors[0] / errors[1]
        assert 40.0 < ratio < 100.0  # ~64 for an O(k^6) remainder

    def test_slow_decay_detection(self):
        with pytest.raises(NumericalFailure, match=r"^kernel has not decayed below 1e-16\*K0\(0\) by radius "):
            kernel_moments(lambda r: 1.0 / (1.0 + r), 1, 1)

    def test_truncation_radius_gaussian(self):
        r = truncation_radius(lambda x: math.exp(-x * x))
        assert math.exp(-r * r) < 1e-16
        assert r <= 16.0

    @pytest.mark.parametrize("k0", [0.0, math.nan], ids=["zero", "nan"])
    def test_truncation_radius_needs_a_positive_origin(self, k0):
        with pytest.raises(ValidationError, match="kernel must be positive at the origin"):
            truncation_radius(lambda r: k0 if r == 0.0 else math.exp(-r * r))

    def test_two_dimensional_gaussian(self):
        # n=2: ell_0 = 2 pi * integral rho e^{-rho^2} = pi.
        result = kernel_moments(lambda r: math.exp(-r * r), 2, 1)
        assert result.moments[0] == pytest.approx(math.pi, abs=1e-9)
        # ell_1 = (2 pi / 4) * integral rho^3 e^{-rho^2} = pi/4.
        assert result.moments[1] == pytest.approx(math.pi / 4.0, abs=1e-9)
