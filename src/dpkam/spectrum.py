"""Reduction constants and the reduced eigenvalue model.

Carries the order-by-order conjugation data of the linearized problem:
the transport generators and their small divisors, the constant c(xi), the
diagonal corrections l_j and kappa_j, the first-order eigenvalue model
d_j = m lambda(j) + eps^2 kappa_j, and the normal form identification
cross-check that ties the linear normal form back to the cubic Hamiltonian.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    ScalingParams,
    TangentialSet,
    ell_vectors_up_to,
    lam,
)
from .polyham import (
    HomPoly,
    i_power,
    poisson_bracket,
    project_trivial,
    project_z_degree,
    solve_homological,
)
from .twist import b_jk, v_vec, w_vec
from .wbnf import dp_h3, twist_cross_sum


class SpectrumError(RuntimeError):
    pass


def _xi_fractions(S: TangentialSet, xi: Sequence) -> list[Fraction]:
    vals = [Fraction(x) if not isinstance(x, Fraction) else x for x in xi]
    if len(vals) != S.nu:
        raise ValueError(f"xi must have length nu = {S.nu}")
    return vals


# -- the constant c and the diagonal corrections --------------------------------------


def c_of_xi(S: TangentialSet, xi: Sequence) -> Fraction:
    """c(xi) = v . xi with v = `v_vec(S)`, v_k = (2/3)(1+jbar_k^2)."""
    vals = _xi_fractions(S, xi)
    return sum((c * x for c, x in zip(v_vec(S), vals)), Fraction(0))


def ell_j_form(S: TangentialSet, j: int) -> list[Fraction]:
    """Coefficients of xi (over S+) of l_j: the closed form `b_jk(s, |j|)`,
    checked exactly against the lambda-form `twist_cross_sum(j, s)`."""
    if not S.in_sc(j):
        raise SpectrumError(f"l_j is defined on normal sites; {j} is tangential")
    coeffs = []
    for s in S.splus:
        closed = b_jk(s, abs(j))
        if twist_cross_sum(j, s) != closed:
            raise SpectrumError(
                f"the two closed forms of l_j disagree at (s={s}, j={j})"
            )
        coeffs.append(closed)
    return coeffs


def ell_j(S: TangentialSet, xi: Sequence, j: int) -> Fraction:
    vals = _xi_fractions(S, xi)
    return sum((c * x for c, x in zip(ell_j_form(S, j), vals)), Fraction(0))


@dataclass
class EigenModel:
    """First-order reduced eigenvalues d_j = m lambda(j) + eps^2 kappa_j.

    m is modelled as 1 + eps^2 c only; the eps^4 correction d(omega) of the
    full reduction is not asserted (its closed-form coefficients are not
    specified), and the KAM residuals r_j^infty are not modelled: `measure`
    adds their bound eps^(4-3a)/<j> to its thresholds.
    """

    S: TangentialSet
    xi: tuple
    scaling: ScalingParams

    COLUMNS = ("j", "lambda", "ell_j", "kappa_j", "j_kappa_j", "d0_j")

    def __post_init__(self):
        self.xi = tuple(_xi_fractions(self.S, self.xi))
        self.c = c_of_xi(self.S, self.xi)

    @property
    def m(self) -> float:
        return 1.0 + self.scaling.epsilon**2 * float(self.c)

    def ell(self, j: int) -> Fraction:
        return ell_j(self.S, self.xi, j)

    def kappa(self, j: int, lj: Fraction) -> Fraction:
        """kappa_j = lambda(j) (l_j - c) from lj = `ell(j)`, checked against
        the single-fraction form w_j . xi."""
        value = lam(j) * (lj - self.c)
        combined = sum((wc * x for wc, x in zip(w_vec(self.S, j), self.xi)), Fraction(0))
        if value != combined:
            raise SpectrumError(f"kappa_j forms disagree at j={j}")
        return value

    def row(self, j: int) -> tuple:
        """The `COLUMNS` of mode j, with l_j and kappa_j computed once."""
        lj = self.ell(j)
        kj = self.kappa(j, lj)
        d0 = self.m * float(lam(j)) + self.scaling.epsilon**2 * float(kj)
        return (j, float(lam(j)), float(lj), float(kj), float(j * kj), d0)


# -- small divisors ---------------------------------------------------------------------


@dataclass(frozen=True)
class SmallDivisor:
    ell: tuple[int, ...]
    j: int
    jp: int
    delta: Fraction


def omega_bar_dot(S: TangentialSet, ell: Sequence[int]) -> Fraction:
    return sum((lam(s) * e for s, e in zip(S.splus, ell)), Fraction(0))


def momentum_ells(S: TangentialSet, ell_bound: int):
    """All nonzero ell with |ell|_1 <= ell_bound, with their site-sums."""
    return [
        (ell, sum(s * e for s, e in zip(S.splus, ell)))
        for ell in ell_vectors_up_to(S.nu, ell_bound)
    ]


@dataclass
class DivisorScan:
    min_abs: Fraction
    witness: SmallDivisor
    checked: int


DIVISOR_ELL_BOUND = 2  # default |ell|_1 of `min_divisor_scan`
DIVISOR_J_BOUND = 2000  # default |j| of `min_divisor_scan`


def min_divisor_scan(
    S: TangentialSet, ell_bound: int = DIVISOR_ELL_BOUND, j_bound: int = DIVISOR_J_BOUND
) -> DivisorScan:
    """Minimum |delta| over momentum-compatible triples with nonzero divisor:
    normal j with |j| <= j_bound, j' = j + ell . sbar normal, ell in
    `momentum_ells` order, then j ascending; the first minimum is the witness.

    With lambda(j) = j + 3j/(1+j^2) and j - j' = -ell . sbar = -shift,

        delta = c - 3 shift (1 - j j') / D,   D = (1+j^2)(1+j'^2),

    where c = omega_bar . ell - ell . sbar = P/Q is taken once per ell.  So
    delta = num/(Q D) with the integer num = P D - 3 Q shift (1 - j j'), and
    candidates are compared by integer cross-multiplication; a Fraction is
    built only for a new minimum.
    """
    best_num, best_den = None, 1  # |delta| of the witness, as |num| / (Q D)
    witness = None
    checked = 0
    for ell, shift in momentum_ells(S, ell_bound):
        c = omega_bar_dot(S, ell) - shift
        P, Q = c.numerator, c.denominator
        for j in range(-j_bound, j_bound + 1):
            if not S.in_sc(j):
                continue
            jp = j + shift
            if not S.in_sc(jp):
                continue
            checked += 1
            D = (1 + j * j) * (1 + jp * jp)
            num = P * D - 3 * Q * shift * (1 - j * jp)
            if num == 0:
                continue
            if best_num is None or abs(num) * best_den < best_num * Q * D:
                best_num, best_den = abs(num), Q * D
                witness = SmallDivisor(tuple(ell), j, jp, Fraction(num, Q * D))
    if best_num is None:
        raise SpectrumError("no nonzero divisors in the scanned range")
    return DivisorScan(min_abs=abs(witness.delta), witness=witness, checked=checked)


# -- homogeneous symbols of the wave-packet function -----------------------------------
#
# A p-homogeneous function of the unperturbed wave packet is a degree-p
# HomPoly over the sites S: the monomial (s_1 <= ... <= s_p) stands for
# sqrt(xi_{|s_1|} ... xi_{|s_p|}) e^{i (sum s_i) x} e^{i (sum l(s_i)) phi}, so
# omega_bar . d_phi multiplies by i sum lambda(s_i) (l is additive), as ad_{H2}
# does, and d_x multiplies by i sum s_i.


def dx(K: HomPoly) -> HomPoly:
    return K.multiplier(sum, times_i=True)


def spatial_average_xi_form(K: HomPoly) -> dict[int, Fraction]:
    """Zero spatial mode of a real quadratic symbol as a linear form in the
    squared amplitudes: the monomial (-s, s) carries xi_s."""
    if K.degree != 2:
        raise SpectrumError(f"the average of a degree-{K.degree} symbol is not xi-linear")
    form = {b: v for (a, b), v in K.terms.items() if a + b == 0}
    if form and K.imaginary:
        raise SpectrumError(f"the average is imaginary at the sites {sorted(form)}")
    return form


def vbar_symbol(S: TangentialSet) -> HomPoly:
    return HomPoly(1, {(s,): Fraction(1) for s in S.sites})


def beta1_symbol(S: TangentialSet) -> HomPoly:
    """beta_1 = (1/3)(Lambda d_x)^{-1} vbar: coefficient -(1+s^2)/(3s) i."""
    return HomPoly(
        1, {(s,): Fraction(-(1 + s * s), 3 * s) for s in S.sites}, imaginary=True
    )


def psi2_symbol(S: TangentialSet, F3: HomPoly) -> HomPoly:
    """Quadratic Birkhoff-map term Psi_2(vbar) = -X_{F^(3,<=1)}(vbar).

    (X_F)_j = i lambda(j) dF/du_{-j}; evaluating at u = vbar keeps the
    monomials whose two remaining slots are tangential."""
    sign, imaginary = i_power(F3.imaginary + 1)  # the phase of i lambda(j) F3
    out = HomPoly.zero(2, imaginary=imaginary)
    sset = set(S.sites)
    for mono, c in F3.terms.items():
        for slot in set(mono):
            rest = list(mono)
            rest.remove(slot)
            if any(r not in sset for r in rest):
                continue
            j = -slot
            mult = mono.count(slot)
            out.accumulate(tuple(sorted(rest)), -sign * lam(j) * c * mult)
    return out


def f2_symbol(S: TangentialSet, F3: HomPoly) -> HomPoly:
    """f_2(vbar) = -Psi_2(vbar) + (1/4) d_xx(beta_1^2) - (1/2) beta_1 vbar_x
    + (1/2) vbar (beta_1)_x."""
    vbar = vbar_symbol(S)
    b1 = beta1_symbol(S)
    out = psi2_symbol(S, F3).scale(-1)
    out = out + dx(dx(b1 * b1)).scale(Fraction(1, 4))
    out = out + (b1 * dx(vbar)).scale(Fraction(-1, 2))
    out = out + (vbar * dx(b1)).scale(Fraction(1, 2))
    return out


def c_via_f2(S: TangentialSet, xi: Sequence, F3: HomPoly) -> Fraction:
    """Average of f_2(vbar) with xi weights; must equal c_of_xi exactly."""
    vals = _xi_fractions(S, xi)
    form = spatial_average_xi_form(f2_symbol(S, F3))
    total = Fraction(0)
    for site, coeff in form.items():
        total += coeff * vals[S.splus.index(site)]
    expected = c_of_xi(S, xi)
    if total != expected:
        raise SpectrumError(
            f"f_2 average {total} does not match c(xi) = {expected}"
        )
    return total


# -- normal form identification ---------------------------------------------------------


def identification_check(
    S: TangentialSet, j: int
) -> tuple[dict[int, Fraction], dict[int, Fraction], bool]:
    """Coefficient of the trivial monomial |u_j|^2 (as a linear form in xi over
    S+) in Pi_triv Pi^{dz=2} (1/2){F3_full, H3}, against the lambda-form
    `twist_cross_sum(j, s)` of l_j.

    The target display writes the resonant piece as (1/2) sum over *signed*
    normal sites of l_j |u_j|^2; on the canonical sorted monomial
    u_j u_{-j} u_s u_{-s} the two signs merge and the coefficient is the full
    l_j coefficient (l is even in j).

    The bracket is computed over the exact mini-universe
    {±s, ±j, ±(s+j), ±(s-j)}; contributions to the target monomials close
    over that set by momentum conservation."""
    if not S.in_sc(j):
        raise SpectrumError(f"{j} must be a normal site")
    lhs: dict[int, Fraction] = {}
    rhs: dict[int, Fraction] = {}
    for s in S.splus:
        uni = set()
        for v in (s, j, s + j, s - j):
            if v != 0:
                uni.update((v, -v))
        h3 = dp_h3(frozenset(uni))
        f3 = solve_homological(h3)  # full ad-inverse; no order-3 resonances
        bracket = poisson_bracket(f3, h3).scale(Fraction(1, 2))
        bracket = project_trivial(project_z_degree(bracket, S, lambda d: d == 2))
        target = tuple(sorted((-j, -s, s, j)))
        c = bracket.terms.get(target, Fraction(0))
        if c and bracket.imaginary:
            raise SpectrumError(f"identification lhs has imaginary part at s={s}")
        lhs[s] = c
        rhs[s] = twist_cross_sum(j, s)
    return lhs, rhs, lhs == rhs
