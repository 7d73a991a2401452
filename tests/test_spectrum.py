import random
from fractions import Fraction

import pytest

from typing import Sequence

from dpkam.core import ScalingParams, TangentialSet, lam
from dpkam.polyham import HomPoly
from dpkam.spectrum import (
    DivisorScan,
    EigenModel,
    SmallDivisor,
    SpectrumError,
    beta1_symbol,
    c_of_xi,
    c_via_f2,
    dx,
    ell_j,
    ell_j_form,
    f2_symbol,
    identification_check,
    min_divisor_scan,
    momentum_ells,
    omega_bar_dot,
    psi2_symbol,
    spatial_average_xi_form,
    vbar_symbol,
)
from dpkam.twist import w_vec
from dpkam.wbnf import run_wbnf
from reference import adjoint_action_h2, divisor_closed_form_ell1, divisor_closed_form_ell2

S67 = TangentialSet.make([6, 7])
SC = ScalingParams(epsilon=1e-3, a=0.1, nu=2)  # of the models; only m and d0_j read it


def transport_divisor(indices: Sequence[int]) -> Fraction:
    """sum_i 3 j_i/(1+j_i^2) = sum_i (lambda(j_i) - j_i)."""
    return sum((lam(j) - j for j in indices), Fraction(0))


def solve_transport(f: HomPoly, S: TangentialSet) -> tuple[HomPoly, HomPoly]:
    """Solve omega_bar . d_phi beta - beta_x = f termwise.

    Non-resonant tuples get beta = f / (i * divisor); resonant tuples
    (vanishing transport divisor) are returned separately -- for p = 2 they
    are the spatial average, for p = 4 they feed the eps^4 frequency
    correction d(omega)."""
    if f.degree > 5:
        raise SpectrumError("transport equations are solved for p <= 5")
    resonant = f.map_filter(lambda m: transport_divisor(m) == 0)

    def inverse(m) -> Fraction:  # 1/(i d) = -i/d
        d = transport_divisor(m)
        return Fraction(-1) / d if d else 0

    return f.multiplier(inverse, times_i=True), resonant


def beta1_solves_transport(S: TangentialSet) -> bool:
    """Coefficientwise check that beta_1 solves
    omega_bar . d_phi beta - beta_x - vbar = 0."""
    b = beta1_symbol(S)
    return (adjoint_action_h2(b) - dx(b) - vbar_symbol(S)).is_zero()


def test_c_of_xi():
    assert c_of_xi(S67, [1, 1]) == 58
    assert c_of_xi(S67, [0, 0]) == 0
    x1, x2 = [Fraction(1, 3), Fraction(2)], [Fraction(5, 7), Fraction(-1)]
    assert c_of_xi(S67, [a + b for a, b in zip(x1, x2)]) == c_of_xi(
        S67, x1
    ) + c_of_xi(S67, x2)


def test_ell_j_value_and_forms():
    coeffs = ell_j_form(S67, 10)
    assert coeffs[0] == Fraction(2, 3) * Fraction(515706, 15721)
    assert coeffs[1] == Fraction(2, 3) * Fraction(762550, 18204)
    assert float(ell_j(S67, [1, 1], 10)) == pytest.approx(49.7952, abs=1e-3)
    # the two printed forms are compared internally for every evaluation
    for j in range(8, 61):
        if S67.in_sc(j):
            ell_j_form(S67, j)
    assert ell_j(S67, [1, 1], -10) == ell_j(S67, [1, 1], 10)  # even in j
    with pytest.raises(SpectrumError):
        ell_j(S67, [1, 1], 7)


def test_kappa_properties():
    xi = (Fraction(13, 10), Fraction(17, 10))
    model = EigenModel(S67, xi, SC)
    for j in (8, 15, 100):
        assert model.kappa(-j, model.ell(-j)) == -model.kappa(j, model.ell(j))
    # single-fraction form agreement is asserted inside kappa; also check
    # the twist module's coefficient vector directly
    k10 = model.kappa(10, model.ell(10))
    assert k10 == sum(w * x for w, x in zip(w_vec(S67, 10), xi))


def test_kappa_asymptote():
    xi = (Fraction(1), Fraction(1))
    c = c_of_xi(S67, xi)
    model = EigenModel(S67, xi, SC)
    val = 1000 * model.kappa(1000, model.ell(1000))
    assert abs(float(val + 3 * c)) / float(3 * c) < 1e-2
    # the limit is approached monotonically for large |j|
    gaps = [abs(j * model.kappa(j, model.ell(j)) + 3 * c) for j in range(100, 1001, 100)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_divisor_closed_forms():
    # |l| = 1: lambda(j-j') - lambda(j) + lambda(j') factored form
    for j, jp in ((10, 9), (15, 21), (-8, -14)):
        assert divisor_closed_form_ell1(j, jp) == lam(j - jp) - lam(j) + lam(jp)
    assert float(divisor_closed_form_ell1(10, 9)) == pytest.approx(1.53224, abs=1e-5)
    # |l| = 2 factored form
    for j1, j2, j in ((6, 7, 9), (6, -7, 11), (-6, -6, 25)):
        assert divisor_closed_form_ell2(j1, j2, j) == lam(j1) + lam(j2) + lam(
            j
        ) - lam(j1 + j2 + j)


def test_min_divisor_scan_small():
    scan = min_divisor_scan(S67, ell_bound=2, j_bound=100)
    assert scan.min_abs > 0
    assert scan.checked > 0
    w = scan.witness
    assert w.delta != 0


def _fraction_divisor_scan(S, ell_bound, j_bound):
    """Oracle: the scan with one Fraction delta per candidate, in the order
    and with the strict < of `min_divisor_scan`."""
    best = witness = None
    checked = 0
    for ell, shift in momentum_ells(S, ell_bound):
        base = omega_bar_dot(S, ell)
        for j in range(-j_bound, j_bound + 1):
            jp = j + shift
            if not (S.in_sc(j) and S.in_sc(jp)):
                continue
            delta = base + lam(j) - lam(jp)
            checked += 1
            if delta != 0 and (best is None or abs(delta) < best):
                best = abs(delta)
                witness = SmallDivisor(tuple(ell), j, jp, delta)
    return DivisorScan(min_abs=best, witness=witness, checked=checked)


@pytest.mark.parametrize("splus", [(6, 7), (6, 7, 8), (3, 5), (20, 21, 22)])
@pytest.mark.parametrize("ell_bound", [2, 3])
@pytest.mark.parametrize("j_bound", [50, 300])
def test_min_divisor_scan_matches_fraction_oracle(splus, ell_bound, j_bound):
    S = TangentialSet.make(splus)
    assert min_divisor_scan(S, ell_bound, j_bound) == _fraction_divisor_scan(S, ell_bound, j_bound)


def test_min_divisor_scan_at_bench_size():
    scan = min_divisor_scan(S67, ell_bound=2, j_bound=2000)
    assert scan.min_abs == Fraction(13077, 493025)
    assert (scan.witness.ell, scan.witness.j, scan.witness.jp) == ((-1, 1), -9, -8)
    assert scan.witness.delta == -scan.min_abs
    assert scan.checked == 47912


def test_transport_divisor_and_solve():
    assert transport_divisor((6, 7)) == Fraction(1677, 1850)
    assert transport_divisor((6, -6)) == 0
    f = vbar_symbol(S67) * vbar_symbol(S67)
    beta, resonant = solve_transport(f, S67)
    # resonant part = the paired tuples (spatial average)
    assert all(k[0] == -k[1] for k in resonant.terms)
    # substituting back solves the equation on the non-resonant part
    residual = adjoint_action_h2(beta) - dx(beta)
    for k, v in residual.terms.items():
        assert f.terms.get(k) == v or transport_divisor(k) == 0


def test_beta1_transport():
    assert beta1_solves_transport(S67)
    b = beta1_symbol(S67)
    assert b.imaginary and b.terms[(6,)] == Fraction(-37, 18)


def test_psi2_zero_average():
    wb = run_wbnf(S67, 1)
    p2 = psi2_symbol(S67, wb.generators[3])
    assert all(sum(k) != 0 for k in p2.terms)
    # off-average part of d_xx(beta1^2) also drops
    b1 = beta1_symbol(S67)
    d2 = dx(dx(b1 * b1))
    assert all(sum(k) != 0 or v == 0 for k, v in d2.terms.items())


def test_c_via_f2_matches():
    wb = run_wbnf(S67, 1)
    F3 = wb.generators[3]
    assert c_via_f2(S67, [1, 1], F3) == 58
    rng = random.Random(42)
    for _ in range(10):
        xi = [Fraction(rng.randint(1, 40), rng.randint(1, 20)) for _ in range(2)]
        assert c_via_f2(S67, xi, F3) == c_of_xi(S67, xi)


def test_identification_sweep():
    for j in (8, 9, 10, 17, 25, 30):
        lhs, rhs, ok = identification_check(S67, j)
        assert ok, (j, lhs, rhs)


def test_eigen_model():
    model = EigenModel(S67, (Fraction(13, 10), Fraction(17, 10)), SC)
    assert model.m == pytest.approx(1.0 + 1e-6 * float(model.c))
    rows = [model.row(j) for j in (8, 9, 10)]
    d = rows[-1][-1]  # d0_j of j = 10
    assert d == pytest.approx(
        model.m * float(lam(10)) + 1e-6 * float(model.kappa(10, model.ell(10)))
    )
    assert ",".join(model.COLUMNS) == "j,lambda,ell_j,kappa_j,j_kappa_j,d0_j"
    assert [len(r) for r in rows] == [len(model.COLUMNS)] * 3
    assert [r[0] for r in rows] == [8, 9, 10]


def test_the_average_of_an_imaginary_symbol_raises():
    b1 = beta1_symbol(S67)
    # beta_1 is imaginary, so its square is real: 2 |beta_1(s)|^2 = 2 (1+s^2)^2 / (9 s^2)
    assert spatial_average_xi_form(b1 * b1) == {6: Fraction(1369, 162), 7: Fraction(5000, 441)}
    with pytest.raises(SpectrumError):
        spatial_average_xi_form(HomPoly(2, {(-6, 6): 1}, imaginary=True))


def test_f2_has_only_quadratic_tuples():
    wb = run_wbnf(S67, 1)
    f2 = f2_symbol(S67, wb.generators[3])
    assert f2.degree == 2
    assert all(len(k) == 2 for k in f2.terms)
