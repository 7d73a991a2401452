from fractions import Fraction

import pytest

from dpkam.core import (
    ScalingParams,
    TangentialSet,
    is_in_wave_packet_class,
    kr_weight,
    lam,
    linear_frequencies,
)


def test_lambda_values():
    assert lam(1) == Fraction(5, 2)
    assert lam(2) == Fraction(16, 5)
    assert lam(-1) == -Fraction(5, 2)


def test_lambda_rejects_zero():
    with pytest.raises(ValueError):
        lam(0)


def test_lambda_identities():
    for j in range(1, 60):
        assert lam(j) + lam(-j) == 0
        assert lam(j) - j == Fraction(3 * j, 1 + j * j)
        assert abs(lam(j)) <= 4 * abs(j)


def test_kr_weight_values():
    assert kr_weight(2, 2) == 25
    assert kr_weight(3, 1) == 4
    assert kr_weight(2, -5) == kr_weight(2, 5)
    with pytest.raises(ValueError):
        kr_weight(1, 2)


def test_kr_weight_lambda_odd():
    for r in (2, 3, 5):
        for j in (1, 2, 7, 11):
            assert kr_weight(r, j) * lam(j) == -(kr_weight(r, -j) * lam(-j))


def test_linear_frequencies():
    S = TangentialSet.make([6, 7])
    assert linear_frequencies(S) == (Fraction(240, 37), Fraction(371, 50))
    # strictly increasing with the sites
    S2 = TangentialSet.make([3, 11, 20])
    freqs = linear_frequencies(S2)
    assert list(freqs) == sorted(freqs)


def test_tangential_set_validation():
    with pytest.raises(ValueError):
        TangentialSet.make([1])
    with pytest.raises(ValueError):
        TangentialSet.make([4, 4])
    with pytest.raises(ValueError):
        TangentialSet.make([0, 3])
    S = TangentialSet.make([9, 4])
    assert S.splus == (4, 9)
    assert S.jbar1 == 9
    assert S.in_s(-4) and S.in_sc(5) and not S.in_sc(0)


def test_wave_packet_class():
    S = TangentialSet.make([6, 7])
    assert is_in_wave_packet_class(S, Fraction(1, 5))
    assert not is_in_wave_packet_class(S, Fraction(1, 10))  # min site too small
    with pytest.raises(ValueError):
        is_in_wave_packet_class(S, Fraction(2))


def test_wave_packet_ell4_condition():
    # the |l| = 4 sums for {6,7} are 300 l1 + 259 l2 over 1850, never zero
    S = TangentialSet.make([6, 7])
    for l1 in range(-4, 5):
        l2s = [v for v in (-(4 - abs(l1)), 4 - abs(l1)) if abs(l1) + abs(v) == 4]
        for l2 in l2s:
            assert 300 * l1 + 259 * l2 != 0


def test_scaling_params():
    p = ScalingParams(epsilon=0.1, a=0.1, nu=2)
    assert p.b == pytest.approx(1.05)
    assert p.gamma == pytest.approx(0.1**2.1)
    assert p.tau == 10
    with pytest.raises(ValueError):
        ScalingParams(epsilon=1.5, a=0.1, nu=2)
    with pytest.raises(ValueError):
        ScalingParams(epsilon=0.1, a=-1.0, nu=2)

