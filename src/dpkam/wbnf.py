"""Resonance enumeration/classification and the weak Birkhoff normal form driver.

The DP Hamiltonian is normalized degree by degree on the part of z-degree
<= 1 only ("weak" normal form).  All computations run over a finite index
universe; momentum conservation guarantees the tracked parts are exact (see
`universe_bound`).
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .core import BudgetExceeded, DEFAULT_BUDGET, TangentialSet, lam
from .polyham import (
    HomPoly,
    Monomial,
    flow_conjugate,
    is_trivial_monomial,
    monomial_momentum,
    ordering_count,
    project_kernel,
    project_z_degree,
    solve_homological,
    z_degree,
)

DEGREE_CAP = 8  # six normal form steps, as in the construction
Z_TARGET = 1  # the z-degree the normal form keeps, beyond the degree headroom


class WbnfError(RuntimeError):
    pass


# -- DP Hamiltonian pieces over a finite universe -----------------------------------


def index_universe(max_abs: int) -> frozenset[int]:
    return frozenset(j for j in range(-max_abs, max_abs + 1) if j != 0)


def universe_bound(S: TangentialSet, max_degree: int) -> int:
    """Any monomial of degree n with momentum zero and at most one index
    outside S has all indices bounded by (n-1)*max(S+)."""
    return (max_degree - 1) * S.jbar1


def dp_h2(universe: frozenset[int]) -> HomPoly:
    """H2 = sum_{j>=1} |u_j|^2 restricted to the universe."""
    H = HomPoly.zero(2, momentum=True)
    for j in sorted(u for u in universe if u > 0):
        if -j in universe:
            H.accumulate((-j, j), Fraction(1))
    return H


def dp_h3(universe: frozenset[int]) -> HomPoly:
    """Cubic part -(1/6) integral of u^3: all momentum-zero triples in the
    universe, ordered-tuple coefficient -1/6."""
    H = HomPoly.zero(3, momentum=True)
    sixth = Fraction(-1, 6)
    uni = sorted(universe)
    uniset = set(uni)
    for i, a in enumerate(uni):
        for b in uni[i:]:
            c = -a - b
            if c == 0 or c < b or c not in uniset:
                continue
            H.add_ordered((a, b, c), sixth)
    return H


# -- resonance machinery -------------------------------------------------------------


@dataclass(frozen=True)
class ResonanceTuple:
    indices: Monomial
    m_resonant_up_to: int
    trivial: bool
    permutations: int

    @property
    def order(self) -> int:
        return len(self.indices)


def weight_sum(mono: Monomial, r: int) -> int:
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
    """j -> D j/(1+j^2), with D = lcm(1+j^2) over `values`.

    lambda(j) = j + 3j/(1+j^2), so a multiset of these j with zero momentum
    has zero lambda-sum exactly when its sum of numerators is zero.
    """
    D = math.lcm(*(1 + j * j for j in values))
    return {j: j * (D // (1 + j * j)) for j in values}


def _is_h2_resonant(mono: Monomial) -> bool:
    """Zero momentum and zero lambda-sum, in integers."""
    if monomial_momentum(mono) != 0:
        return False
    num = _lambda_numerators(set(mono))
    return sum(num[j] for j in mono) == 0


def m_resonant_up_to(mono: Monomial, m_cap: int) -> int:
    """Largest M <= m_cap with all hierarchy conditions r = 2..M+1; 0 if none."""
    if not _is_h2_resonant(mono):
        return 0
    best = 0
    for r in range(2, m_cap + 2):
        if weight_sum(mono, r) != 0:
            break
        if r >= 4:  # conditions r = 2..M+1 complete for M = r-1 >= 3
            best = r - 1
    return best


def _halves(values: list[int], size: int, num: dict[int, int]):
    """Sorted multisets of given size keyed by (momentum, sum of num[j])."""
    out = defaultdict(list)
    for combo in itertools.combinations_with_replacement(values, size):
        out[(sum(combo), sum(map(num.__getitem__, combo)))].append(combo)
    return out


def enumerate_h2_resonances(
    order: int,
    bound: int,
    budget: int = DEFAULT_BUDGET,
    m_cap: int = 8,
) -> list[ResonanceTuple]:
    """All multisets {j_1..j_n} in [-B, B] \\ {0} with zero momentum and zero
    lambda-sum, found by a meet-in-the-middle join on exact partial sums.

    Since sum(j_i) = 0 forces sum(lambda(j_i)) = sum 3 j_i/(1+j_i^2), the join
    key is the momentum and the integer D sum j_i/(1+j_i^2) over the one
    denominator D = lcm(1+j^2), |j| <= B.
    """
    if order < 3:
        raise ValueError("resonance order starts at 3")
    if order > DEGREE_CAP:
        raise ValueError(f"resonance order capped at {DEGREE_CAP}")
    if bound < 1:
        raise ValueError("index bound must be >= 1")
    values = [j for j in range(-bound, bound + 1) if j != 0]
    n1 = order // 2
    n2 = order - n1
    est = math.comb(len(values) + n1 - 1, n1) + math.comb(len(values) + n2 - 1, n2)
    if est > budget:
        raise BudgetExceeded(
            f"half-enumeration of ~{est} multisets exceeds the budget {budget}"
        )
    num = _lambda_numerators(values)
    left = _halves(values, n1, num)
    right = left if n1 == n2 else _halves(values, n2, num)

    found: set[Monomial] = set()
    for (p, s), combos in left.items():
        partners = right.get((-p, -s))
        if not partners:
            continue
        for c1 in combos:
            for c2 in partners:
                found.add(tuple(sorted(c1 + c2)))
                if len(found) > budget:
                    raise BudgetExceeded("resonance candidate set exceeds the budget")

    out = []
    for mono in sorted(found):
        out.append(
            ResonanceTuple(
                indices=mono,
                m_resonant_up_to=m_resonant_up_to(mono, m_cap),
                trivial=is_trivial_monomial(mono),
                permutations=ordering_count(mono),
            )
        )
    return out


# -- the weak normal form driver -----------------------------------------------------


@dataclass
class WbnfResult:
    S: TangentialSet
    max_order: int
    universe_max: int
    generators: dict[int, HomPoly] = field(default_factory=dict)  # degree -> F
    z_pieces: dict[int, HomPoly] = field(default_factory=dict)  # degree -> Z^(n,0)
    z1_pieces: dict[int, HomPoly] = field(default_factory=dict)  # degree -> Z^(n,1)
    pieces: dict[int, HomPoly] = field(default_factory=dict)  # transformed H


def _total_size(pieces: dict[int, HomPoly]) -> int:
    return sum(len(p) for p in pieces.values())


def wbnf_step(
    pieces: dict[int, HomPoly],
    S: TangentialSet,
    N: int,
    max_degree: int,
    universe: frozenset[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[HomPoly, dict[int, HomPoly], HomPoly, HomPoly]:
    """One normalization step at degree N+3.

    Returns (generator, transformed pieces, Z^(N+3,0), Z^(N+3,1)); the
    z-degree-1 kernel piece must vanish for admissible tangential sets and a
    surviving monomial raises WbnfError.  The pieces must lie in `universe`
    with z-degree at most Z_TARGET + (max_degree - degree), as `run_wbnf`
    builds them and as each step returns them.
    """
    deg = N + 3
    if deg not in pieces or pieces[deg].is_zero():
        return HomPoly.zero(deg, momentum=True), pieces, HomPoly.zero(deg, True), HomPoly.zero(deg, True)

    low = project_z_degree(pieces[deg], S, lambda d: d <= 1)
    kernel = project_kernel(low)
    z0 = project_z_degree(kernel, S, lambda d: d == 0)
    z1 = project_z_degree(kernel, S, lambda d: d == 1)
    if not z1.is_zero():
        witness = next(iter(z1.terms))
        raise WbnfError(
            f"z-degree-1 kernel monomial survived at degree {deg}: {witness} "
            f"(contradicts resonance triviality for S+ = {S.splus})"
        )
    F = solve_homological(low)
    bound = universe_bound(S, deg)
    if F.max_abs_index() > bound:
        raise WbnfError(f"generator support exceeds ({deg}-1)*jbar1 = {bound}")

    def z_keep(degree: int) -> int:
        return Z_TARGET + (max_degree - degree)

    new_pieces = flow_conjugate(
        pieces.values(),
        F,
        max_degree,
        max_z_keep=z_keep,
        universe=universe,
        S=S,
    )
    if _total_size(new_pieces) > budget:
        raise BudgetExceeded(
            f"transformed Hamiltonian holds {_total_size(new_pieces)} monomials"
        )
    # the normalized degree must now be kernel-only on z-degree <= 1
    left = project_z_degree(new_pieces[deg], S, lambda d: d <= 1)
    residual = left - kernel
    if not residual.is_zero():
        raise WbnfError(f"homological equation failed to cancel degree {deg}")
    return F, new_pieces, z0, z1


def run_wbnf(
    S: TangentialSet,
    max_order: int,
    budget: int = DEFAULT_BUDGET,
    universe_max: int | None = None,
) -> WbnfResult:
    """Normalize the DP Hamiltonian through degree max_order + 2.

    Asserts that odd-degree kernels vanish and that every surviving
    normal-form piece is supported on trivial (action) monomials.
    """
    if not 1 <= max_order <= DEGREE_CAP - 2:
        raise ValueError(f"max_order must lie in 1..{DEGREE_CAP - 2}")
    cap = max_order + 2
    if universe_max is None:
        universe_max = universe_bound(S, cap)
    uni = index_universe(universe_max)

    def z_keep(degree: int) -> int:
        return Z_TARGET + (cap - degree)

    pieces: dict[int, HomPoly] = {2: dp_h2(uni)}
    if cap >= 3:
        h3 = dp_h3(uni)
        pieces[3] = h3.map_filter(lambda m: z_degree(m, S) <= z_keep(3))

    res = WbnfResult(S=S, max_order=max_order, universe_max=universe_max)
    for N in range(max_order):
        F, pieces, z0, z1 = wbnf_step(
            pieces, S, N, cap, universe=uni, budget=budget
        )
        deg = N + 3
        res.generators[deg] = F
        res.z_pieces[deg] = z0
        res.z1_pieces[deg] = z1
        if deg % 2 == 1 and not z0.is_zero():
            raise WbnfError(f"odd-degree kernel piece at degree {deg} is nonzero")
        for mono in z0.terms:
            if not is_trivial_monomial(mono):
                raise WbnfError(
                    f"non-trivial normal form monomial {mono} at degree {deg}"
                )
    res.pieces = pieces
    return res


# -- degree-4 closed form ------------------------------------------------------------


def twist_cross_sum(j1: int, j2: int) -> Fraction:
    """Per-ordered-pair cross sum of the degree-4 normal form:
    lambda(j1+j2)/(lambda(j1)+lambda(j2)-lambda(j1+j2))
    + lambda(j1-j2)/(lambda(j1)-lambda(j2)-lambda(j1-j2))."""
    if j1 == j2:
        raise ValueError("cross sum needs j1 != j2")
    d_plus = lam(j1) + lam(j2) - lam(j1 + j2)
    d_minus = lam(j1) - lam(j2) - lam(j1 - j2)
    if d_plus == 0 or d_minus == 0:
        raise WbnfError(f"vanishing denominator for the pair ({j1}, {j2})")
    return lam(j1 + j2) / d_plus + lam(j1 - j2) / d_minus


def h40_closed_form(S: TangentialSet) -> HomPoly:
    """Explicit degree-4, z-degree-0 normal form piece as monomial coefficients.

    coeff(u_j^2 u_{-j}^2)      = (1/4) lambda(2j) / (2 lambda(j) - lambda(2j))
    coeff(u_j u_{-j} u_k u_{-k}) = cross sum b_{jk}        (j < k in S+)

    Equivalently, as a function of the actions I_j = |u_j|^2 this is
    (1/4) sum c_j I_j^2 + sum_{j<k} b_jk I_j I_k, whose Hessian is the twist
    matrix.  (The construction's display of this piece carries the action
    convention; the monomial normalization here is the one consistent with
    the frequency-amplitude map.)
    """
    H = HomPoly.zero(4, momentum=True)
    for j in S.splus:
        d = 2 * lam(j) - lam(2 * j)
        if d == 0:
            raise WbnfError(f"vanishing self denominator at site {j}")
        H.accumulate(
            tuple(sorted((-j, -j, j, j))),
            lam(2 * j) / d / 4,
        )
    for j, k in itertools.combinations(S.splus, 2):
        H.accumulate(
            tuple(sorted((-k, -j, j, k))),
            twist_cross_sum(j, k),
        )
    return H
