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
    adjoint_action_h2,
    i_power,
    poisson_bracket,
    project_trivial,
    project_z_degree,
    solve_homological,
)
from .twist import b_jk, mat_vec, twist_matrix, v_vec, w_vec
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


def kappa_j(S: TangentialSet, xi: Sequence, j: int) -> Fraction:
    """kappa_j = lambda(j) (l_j - c), checked against the single-fraction form."""
    vals = _xi_fractions(S, xi)
    return _kappa(S, vals, j, ell_j(S, vals, j), c_of_xi(S, vals))


def _kappa(
    S: TangentialSet, vals: Sequence[Fraction], j: int, lj: Fraction, c: Fraction
) -> Fraction:
    value = lam(j) * (lj - c)
    combined = sum((wc * x for wc, x in zip(w_vec(S, j), vals)), Fraction(0))
    if value != combined:
        raise SpectrumError(f"kappa_j forms disagree at j={j}")
    return value


RESIDUAL_CONSTANT = 1.0  # C of the bound |r_j^infty| <= C eps^(4-3a) / <j>


@dataclass
class EigenModel:
    """First-order reduced eigenvalues d_j = m lambda(j) + eps^2 kappa_j.

    m is modelled as 1 + eps^2 c only; the eps^4 correction d(omega) of the
    full reduction is not asserted (its closed-form coefficients are not
    specified), and the KAM residuals r_j^infty are carried as a bound, not
    values.
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

    def m_exact(self, eps: Fraction) -> Fraction:
        return 1 + Fraction(eps) ** 2 * self.c

    def ell(self, j: int) -> Fraction:
        return ell_j(self.S, self.xi, j)

    def kappa(self, j: int) -> Fraction:
        return _kappa(self.S, self.xi, j, self.ell(j), self.c)

    def d0(self, j: int) -> float:
        return self._d0(j, self.kappa(j))

    def _d0(self, j: int, kj: Fraction) -> float:
        return self.m * float(lam(j)) + self.scaling.epsilon**2 * float(kj)

    def residual_bound(self, j: int) -> float:
        """|r_j^infty| <= C eps^(4-3a) / <j> (bound only; the KAM iteration
        producing the residuals is out of scope)."""
        e, a = self.scaling.epsilon, self.scaling.a
        return RESIDUAL_CONSTANT * e ** (4.0 - 3.0 * a) / max(1, abs(j))

    def row(self, j: int) -> tuple:
        """The `COLUMNS` of mode j, with kappa_j computed once."""
        lj = self.ell(j)
        kj = _kappa(self.S, self.xi, j, lj, self.c)
        return (j, float(lam(j)), float(lj), float(kj), float(j * kj), self._d0(j, kj))


# -- small divisors ---------------------------------------------------------------------


@dataclass(frozen=True)
class SmallDivisor:
    ell: tuple[int, ...]
    j: int
    jp: int
    delta: Fraction
    delta_star: float | None
    momentum_ok: bool


def omega_bar_dot(S: TangentialSet, ell: Sequence[int]) -> Fraction:
    return sum((lam(s) * e for s, e in zip(S.splus, ell)), Fraction(0))


def small_divisor(
    S: TangentialSet,
    ell: Sequence[int],
    j: int,
    jp: int,
    xi: Sequence | None = None,
    eps: float | None = None,
) -> SmallDivisor:
    """delta = omega_bar . ell + lambda(j) - lambda(j'); delta* adds the
    eps^2 (A xi . ell + lambda(j') l_{j'} - lambda(j) l_j) correction."""
    ell = tuple(int(e) for e in ell)
    delta = omega_bar_dot(S, ell) + lam(j) - lam(jp)
    momentum_ok = sum(s * e for s, e in zip(S.splus, ell)) + j - jp == 0
    delta_star = None
    if xi is not None and eps is not None:
        td = twist_matrix(S)
        axi = mat_vec(td.A, _xi_fractions(S, xi))
        corr = sum((a * e for a, e in zip(axi, ell)), Fraction(0))
        corr += lam(jp) * ell_j(S, xi, jp) - lam(j) * ell_j(S, xi, j)
        delta_star = float(delta) + float(eps) ** 2 * float(corr)
    return SmallDivisor(ell, j, jp, delta, delta_star, momentum_ok)


def divisor_closed_form_ell1(j: int, jp: int) -> Fraction:
    """lambda(j-j') - lambda(j) + lambda(j') =
    3 j j' (j-j') (3 + j j' + (j-j')^2) / ((1+j^2)(1+j'^2)(1+(j-j')^2))."""
    m = j - jp
    if m == 0:
        raise ValueError("needs j != j'")
    num = 3 * j * jp * m * (3 + j * jp + m * m)
    den = (1 + j * j) * (1 + jp * jp) * (1 + m * m)
    return Fraction(num, den)


def divisor_closed_form_ell2(j1: int, j2: int, j: int) -> Fraction:
    """lambda(j1)+lambda(j2)+lambda(j)-lambda(j1+j2+j) in the factored form
    3 (j1+j2)(j1+j)(j2+j) P(j1,j2,j) with
    P = (3 + x^2+y^2+z^2 + xy+xz+yz + xyz(x+y+z)) / prod(1 + .^2)."""
    x, y, z = j1, j2, j
    num = (
        3 + x * x + y * y + z * z + x * y + x * z + y * z + x * y * z * (x + y + z)
    )
    den = (1 + x * x) * (1 + y * y) * (1 + z * z) * (1 + (x + y + z) ** 2)
    return 3 * Fraction((x + y) * (x + z) * (y + z)) * Fraction(num, den)


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
                witness = SmallDivisor(tuple(ell), j, jp, Fraction(num, Q * D), None, True)
    if best_num is None:
        raise SpectrumError("no nonzero divisors in the scanned range")
    return DivisorScan(min_abs=abs(witness.delta), witness=witness, checked=checked)


# -- homogeneous symbols of the wave-packet function -----------------------------------
#
# A p-homogeneous function of the unperturbed wave packet is a degree-p
# HomPoly over the sites S: the monomial (s_1 <= ... <= s_p) stands for
# sqrt(xi_{|s_1|} ... xi_{|s_p|}) e^{i (sum s_i) x} e^{i (sum l(s_i)) phi}, so
# omega_bar . d_phi is `adjoint_action_h2` (l is additive) and d_x multiplies
# by i sum s_i.


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
    return solve_homological(f, transport_divisor), resonant


def beta1_solves_transport(S: TangentialSet) -> bool:
    """Coefficientwise check that beta_1 solves
    omega_bar . d_phi beta - beta_x - vbar = 0."""
    b = beta1_symbol(S)
    return (adjoint_action_h2(b) - dx(b) - vbar_symbol(S)).is_zero()


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
