"""Paper formulas and oracles that several test files read: closed forms
and independent routes to values of the package, which no verb computes."""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

import numpy as np

from dpkam.core import TangentialSet, as_rational, packet_sum, signed_ell_vectors
from dpkam.measure import FrequencyBox, MelnikovConfig, g0_0_slabs, g0_1_slabs, g1_scan_pairs
from dpkam.polyham import (
    HomPoly,
    is_trivial_monomial,
    monomial_lambda_sum,
    monomial_momentum,
    ordering_count,
)
from dpkam.torus import DROP_TOL, GridState, TorusProblem, ell_dot, nonlinear_density, sp
from dpkam.twist import Matrix, mat_det
from dpkam.wbnf import ResonanceTuple


def is_in_wave_packet_class(S: TangentialSet, r: Fraction) -> bool:
    """Exact wave-packet test: large clustered sites plus the |l|=4 condition."""
    r = as_rational(r)
    if not (0 < r < 1):
        raise ValueError("wave-packet parameter must lie in (0, 1)")
    if Fraction(min(S.splus)) * r <= 1:
        return False
    for s in S.splus:
        if abs(Fraction(s, S.jbar1) - 1) > r:
            return False
    return all(packet_sum(S, ell) != 0 for ell in signed_ell_vectors(S.nu, 4))


def ell_vectors_by_norm(nu: int, n: int) -> list[tuple[int, ...]]:
    """`core.ell_vectors_up_to` as it was first written: the cube of each
    norm 1..n filtered to that norm, one norm after the other."""
    return [ell for norm in range(1, n + 1) for ell in signed_ell_vectors(nu, norm)]


def normalized_det(x: Fraction, p: Sequence[Fraction]) -> Fraction:
    """det K where A = (2/9) diag(lambda(j)(1+j^2)) K under jbar1 = 1/x,
    jbar_i = p_i/x.  Entries are continued rationally to x = 0:

        K_ii = 1 + x^2/p_i^2,
        K_ik = 3 (x^2+p_k^2)(2x^2+p_k^2+p_i^2)
               / ((3x^2+p_k^2+p_i^2+p_k p_i)(3x^2+p_k^2+p_i^2-p_k p_i)).
    """
    x = Fraction(x)
    ps = [Fraction(q) for q in p]
    if x < 0:
        raise ValueError("x must be >= 0")
    if any(not (0 < q <= 1) for q in ps):
        raise ValueError("p entries must lie in (0, 1]")
    if x > 0 and any(q / x <= 0 for q in ps):
        raise ValueError("mapped sites must stay positive")
    nu = len(ps)
    K: Matrix = [[Fraction(0)] * nu for _ in range(nu)]
    for i in range(nu):
        K[i][i] = 1 + x * x / (ps[i] * ps[i])
        for k in range(nu):
            if k == i:
                continue
            pi, pk = ps[i], ps[k]
            num = 3 * (x * x + pk * pk) * (2 * x * x + pk * pk + pi * pi)
            den = (3 * x * x + pk * pk + pi * pi + pk * pi) * (
                3 * x * x + pk * pk + pi * pi - pk * pi
            )
            K[i][k] = num / den
    return mat_det(K)


def normalized_det_limit_form(x: Fraction, nu: int) -> Fraction:
    """Closed form of det K at p = 1:
    ((1+x^2)/(1+3x^2))^nu (3x^2-1)^(nu-1) (3x^2+2nu-1)."""
    x = Fraction(x)
    return (
        ((1 + x * x) / (1 + 3 * x * x)) ** nu
        * (3 * x * x - 1) ** (nu - 1)
        * (3 * x * x + 2 * nu - 1)
    )


def adjoint_action_h2(K: HomPoly) -> HomPoly:
    """ad_{H2}[K]: multiply each monomial coefficient by i * sum lambda(j_i)."""
    return K.multiplier(monomial_lambda_sum, times_i=True)


def is_real_hamiltonian(K: HomPoly) -> bool:
    """Reality: the coefficient of -M is the conjugate of that of M, so
    coeff(-M) = (-1)^p coeff(M) for the phase i^p."""
    sign = -1 if K.imaginary else 1
    for m, c in K.terms.items():
        neg = tuple(sorted(-j for j in m))
        if K.terms.get(neg, 0) != sign * c:
            return False
    return True


def preserves_momentum(K: HomPoly) -> bool:
    return all(monomial_momentum(m) == 0 for m in K.terms)


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


def in_g0(xi: Sequence[float], S: TangentialSet, cfg: MelnikovConfig) -> tuple[bool, bool]:
    """(zeroth Melnikov flag, five-wave flag) for the frequency in Omega_eps
    of the amplitude xi.

    Both flags test the slabs of `g0_0_slabs` (0 < |l| <= cfg.ell_max,
    truncation recorded by the caller via `g0_truncation_note`) and of
    `g0_1_slabs` (the pruning-justified finite case list, with M = A^T so
    that the frequency term is omega.l) at xi."""
    eps = cfg.scaling.epsilon
    x = np.asarray(xi, dtype=float)
    box = FrequencyBox.make(S, eps)
    g0 = g0_0_slabs(box, cfg.ell_max, cfg.scaling.tau, cfg.gamma)
    g1 = g0_1_slabs(box, g1_scan_pairs(S)[0], box.A.T, cfg.c_g1 * cfg.gamma)
    return tuple(not bool(np.any(np.abs(s.c0 + s.g @ x) < s.t)) for s in (g0, g1))


def weight_sum(mono: Sequence[int], r: int) -> int:
    """sum_i (1+j_i^2)^2 j_i^(2(r-2)) lambda(j_i), the K_r obstruction.

    (1+j^2)^2 cancels the denominator of lambda(j) = j(4+j^2)/(1+j^2), so each
    term is the integer (1+j^2)(4+j^2) j^(2r-3).
    """
    if r < 2:
        raise ValueError("conserved-hierarchy weights start at r = 2")
    if 0 in mono:
        raise ValueError("mode index 0 is excluded (zero-average phase space)")
    e = 2 * r - 3
    return sum((1 + j * j) * (4 + j * j) * j**e for j in mono)


def _lambda_numerators(values) -> dict[int, int]:
    """j -> D j/(1+j^2), with D = lcm(1+j^2) over `values`."""
    D = math.lcm(*(1 + j * j for j in values))
    return {j: j * (D // (1 + j * j)) for j in values}


def is_h2_resonant(mono: Sequence[int]) -> bool:
    """Zero momentum and zero lambda-sum, in integers."""
    if monomial_momentum(mono) != 0:
        return False
    num = _lambda_numerators(set(mono))
    return sum(num[j] for j in mono) == 0


def m_resonant_up_to(mono: Sequence[int], m_cap: int) -> int:
    """Largest M <= m_cap with all hierarchy conditions r = 2..M+1; 0 if none."""
    if not is_h2_resonant(mono):
        return 0
    best = 0
    for r in range(2, m_cap + 2):
        if weight_sum(mono, r) != 0:
            break
        if r >= 4:  # conditions r = 2..M+1 complete for M = r-1 >= 3
            best = r - 1
    return best


def set_join_resonances(order: int, bound: int, m_cap: int = 8) -> list[ResonanceTuple]:
    """The H2 resonances of `order` indices in [-B, B] \\ {0} by a plain
    meet-in-the-middle join: every pairing of halves with opposite keys is
    sorted into a set, and each tuple is tested and classified on its own."""
    values = [j for j in range(-bound, bound + 1) if j != 0]
    num = _lambda_numerators(values)
    halves = {}
    for size in {order // 2, order - order // 2}:
        halves[size] = defaultdict(list)
        for combo in itertools.combinations_with_replacement(values, size):
            halves[size][(sum(combo), sum(num[j] for j in combo))].append(combo)
    found = set()
    for (p, s), combos in halves[order // 2].items():
        for c1 in combos:
            for c2 in halves[order - order // 2].get((-p, -s), ()):
                found.add(tuple(sorted(c1 + c2)))
    return [
        ResonanceTuple(
            indices=mono,
            m_resonant_up_to=m_resonant_up_to(mono, m_cap),
            trivial=is_trivial_monomial(mono),
            permutations=ordering_count(mono),
        )
        for mono in sorted(found)
        if is_h2_resonant(mono)
    ]


def jacobian_by_index_pairs(prob: TorusProblem, gs: GridState):
    """`torus.jacobian` assembled from n^2 explicit index pairs: the row and
    column of every pair, their family pair and the angle difference
    l_r - l_c, read from the whole symbol spectrum (m^nu per symbol)."""
    at, lat, nu = prob.at, prob.lattice, prob.S.nu
    eps, b = prob.eps, prob.b

    d2P = nonlinear_density(gs.V, 2, prob.f_spec, prob.include_cubic)
    dV = np.concatenate([-2.0 * eps * gs.rho * gs.sin, 2.0 * eps * gs.rho * gs.sig * gs.cos])
    syms = gs.rows[:, None] * np.concatenate([(1.0 + d2P) * dV, eps**b * d2P[None]])
    i = np.arange(nu)
    syms[i, i] += at.sites(prob.lam_sites / eps) * gs.sin / gs.rho * gs.G
    syms[i, nu + i] -= gs.sig * gs.rows[i] * gs.G
    syms[nu + i, i] -= 2.0 * eps ** (1.0 - 2.0 * b) * gs.rho * gs.cos * gs.G
    syms[nu + i, nu + i] += gs.sig * gs.rows[nu + i] * gs.G

    n, nf = len(lat.fam), 2 * nu + 1
    rows, cols = (a.ravel() for a in np.indices((n, n)))
    val = prob.row_coef[rows] * at.to_coeffs(
        syms.reshape(-1, *at.shape), lat.fam[rows] * nf + lat.fam[cols], lat.ell[rows] - lat.ell[cols]
    )
    keep = np.abs(val) > DROP_TOL

    th0, y0 = lat.origin[:nu], lat.origin[nu:]
    rows = np.concatenate([rows[keep], np.arange(n), y0, n + i])
    cols = np.concatenate([cols[keep], np.arange(n), n + i, th0])
    diag = 1j * (ell_dot(lat.ell, prob.omega) - prob.lam_lat)
    vals = np.concatenate([val[keep], diag, np.ones(2 * nu)])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n + nu, n + nu))
