"""Integral-route cross-checks and exact combinatorial references."""

import math

import pytest

from helpers import sandwich_hurwitz
from oracles import (
    QuadratureError,
    QuadratureSpec,
    brute_alt_power_sum,
    brute_power_sum,
    quad_eta_split,
    quad_hurwitz,
)
from zetasums import DomainError, Tolerance, hurwitz_zeta, riemann_zeta

T12 = Tolerance(1e-12)


class TestQuadHurwitz:
    def test_integer_point_reference(self):
        v, err = quad_hurwitz(3.0, 1.0)
        assert abs(v - riemann_zeta(3.0, T12)) <= 1e-10
        assert err <= 1e-10

    def test_agrees_with_series_route(self):
        for s, alpha in ((4.0, 2.5), (2.5, 0.5), (6.0, 10.0)):
            v, err = quad_hurwitz(s, alpha)
            want = hurwitz_zeta(s, alpha, T12)
            assert abs(v - want) <= err + 1e-11, (s, alpha)

    def test_error_estimate_is_honest(self):
        for s, alpha in ((2.5, 1.0), (3.0, 0.4), (5.0, 2.0)):
            v, err = quad_hurwitz(s, alpha)
            lo, hi = sandwich_hurwitz(s, alpha, n=20000)
            assert lo - err - 1e-12 <= v <= hi + err + 1e-12, (s, alpha)

    def test_custom_cutoff_accepted(self):
        spec = QuadratureSpec(upper_cutoff=60.0, target_abs=1e-10)
        v, err = quad_hurwitz(3.0, 1.0, spec)
        assert abs(v - riemann_zeta(3.0, T12)) <= err + 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_hurwitz(2.0, 1.0)  # route is only certified from s = 2.5 up
        with pytest.raises(DomainError):
            quad_hurwitz(3.0, 0.0)

    def test_insufficient_refinement_raises(self):
        with pytest.raises(QuadratureError):
            quad_hurwitz(3.0, 1.0, QuadratureSpec(levels=2))


class TestQuadEtaSplit:
    def test_eta_reference(self):
        v, err = quad_eta_split(2.0, 1.0)
        assert abs(v - math.pi ** 2 / 12.0) <= err + 1e-11

    def test_half_lattice_difference(self):
        # sum_k (-1)^k (k+alpha)^(-s) = 2^(-s) (zeta(s, a/2) - zeta(s, (a+1)/2))
        for s, alpha in ((1.5, 0.4), (2.0, 2.0), (3.0, 1.0)):
            v, err = quad_eta_split(s, alpha)
            want = 2.0 ** -s * (
                hurwitz_zeta(s, alpha / 2.0, T12)
                - hurwitz_zeta(s, (alpha + 1.0) / 2.0, T12)
            )
            assert abs(v - want) <= err + 1e-9, (s, alpha)

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_eta_split(1.0, 1.0)
        with pytest.raises(DomainError):
            quad_eta_split(2.0, -1.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(levels=0)
        with pytest.raises(DomainError):
            QuadratureSpec(levels=13)
        with pytest.raises(DomainError):
            QuadratureSpec(upper_cutoff=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(target_abs=0.0)


class TestBrutePowerSums:
    def test_plain_references(self):
        assert brute_power_sum(1, 100) == 5050
        assert brute_power_sum(3, 4) == 100
        assert brute_power_sum(0, 5) == 5
        assert brute_power_sum(2, 0) == 0

    def test_alternating_references(self):
        assert brute_alt_power_sum(0, 4) == 0
        assert brute_alt_power_sum(1, 5) == 3
        assert brute_alt_power_sum(2, 6) == -21

    def test_results_are_exact_integers(self):
        assert isinstance(brute_power_sum(8, 50), int)
        assert isinstance(brute_alt_power_sum(8, 50), int)

    def test_validation(self):
        with pytest.raises(DomainError):
            brute_power_sum(1.5, 10)
        with pytest.raises(DomainError):
            brute_power_sum(1, -1)
        with pytest.raises(DomainError):
            brute_alt_power_sum(-1, 10)
