import itertools
import random
import time
from fractions import Fraction

import pytest

from dpkam.core import DEFAULT_BUDGET, TangentialSet, kr_weight, lam
from dpkam.polyham import is_trivial_monomial
from reference import (
    is_h2_resonant,
    is_real_hamiltonian,
    m_resonant_up_to,
    preserves_momentum,
    set_join_resonances,
    weight_sum,
)
from dpkam.wbnf import (
    BudgetExceeded,
    WbnfError,
    dp_h3,
    enumerate_h2_resonances,
    h40_closed_form,
    index_universe,
    run_wbnf,
    twist_cross_sum,
    universe_bound,
    _h2_multisets,
    _hierarchy_depth,
)


def is_M_resonance(indices, M: int) -> bool:
    """Momentum, lambda-sum, and the hierarchy weights for r = 2..M+1, exactly."""
    if M < 3:
        raise ValueError("M-resonances are defined for M >= 3")
    mono = tuple(sorted(int(j) for j in indices))
    if any(j == 0 for j in mono):
        raise ValueError("indices must be nonzero")
    if not is_h2_resonant(mono):
        return False
    return all(weight_sum(mono, r) == 0 for r in range(2, M + 2))


def test_enumeration_order4_bound3():
    tuples = enumerate_h2_resonances(4, 3)
    idx = {t.indices for t in tuples}
    assert (-3, -1, 2, 2) in idx
    assert (-2, -2, 1, 3) in idx  # closed under negation
    # every pairing (i,-i,j,-j) with |i|,|j| <= 3 is present
    for i in range(1, 4):
        for j in range(i, 4):
            assert tuple(sorted((i, -i, j, -j))) in idx
    record = next(t for t in tuples if t.indices == (-3, -1, 2, 2))
    assert record.m_resonant_up_to == 0
    assert not record.trivial


def test_enumeration_order3_no_nontrivial():
    tuples = enumerate_h2_resonances(3, 50)
    assert all(t.trivial for t in tuples)
    assert not tuples  # order 3 forces an index 0, impossible


def test_enumeration_negation_closure():
    tuples = enumerate_h2_resonances(4, 5)
    idx = {t.indices for t in tuples}
    for t in idx:
        assert tuple(sorted(-j for j in t)) in idx


def test_enumeration_budget_and_caps():
    with pytest.raises(ValueError):
        enumerate_h2_resonances(9, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_h2_resonances(6, 40, budget=100)


@pytest.mark.parametrize("order, bound, m_cap", [
    (3, 50, 8), (4, 3, 8), (4, 30, 2), (4, 30, 3), (5, 24, 8),
    (6, 24, 8), (6, 24, 3), (7, 10, 8), (8, 6, 8), (6, 40, 8),
])
def test_enumeration_matches_the_set_join(order, bound, m_cap):
    assert enumerate_h2_resonances(order, bound, m_cap=m_cap) == set_join_resonances(
        order, bound, m_cap)


@pytest.mark.parametrize("order, bound", [(6, 24), (8, 6)])
def test_join_builds_each_multiset_once(order, bound):
    found = _h2_multisets(order, bound, DEFAULT_BUDGET)
    assert found and len(found) == len(set(found))
    assert len(found) == len(enumerate_h2_resonances(order, bound))


def test_trivial_tuples_read_m_cap_at_any_depth():
    t0 = time.monotonic()
    deep = enumerate_h2_resonances(6, 24, m_cap=10**6)
    assert time.monotonic() - t0 < 1
    assert any(t.trivial for t in deep)
    for t, t8 in zip(deep, enumerate_h2_resonances(6, 24, m_cap=8), strict=True):
        assert t.m_resonant_up_to == (10**6 if t.trivial else t8.m_resonant_up_to)
    # below M = 3 no tuple is an M-resonance, trivial or not
    assert {t.m_resonant_up_to for t in enumerate_h2_resonances(6, 24, m_cap=2)} == {0}


def test_hierarchy_depth_grows_its_tables_as_reached():
    # no H2 resonance in the scanned ranges meets r = 2 without being trivial,
    # so the tables past r = 2 are checked on tuples built for them
    weights = [{j: weight_sum((j,), 2) for j in range(-12, 13) if j != 0}]
    lone = (-11, -1, -1, 9, 10)  # non-trivial, meets r = 2 and fails r = 3
    assert weight_sum(lone, 2) == 0 != weight_sum(lone, 3)
    assert _hierarchy_depth(lone, 8, weights) == 0
    assert len(weights) == 2
    assert _hierarchy_depth((-3, -1, 2, 2), 8, weights) == 0 and len(weights) == 2
    assert _hierarchy_depth((-12, -3, 3, 12), 8, weights) == 8
    assert _hierarchy_depth((-12, -3, 3, 12), 2, weights) == 0
    assert len(weights) == 8
    for r, table in enumerate(weights, 2):
        assert all(w == weight_sum((j,), r) for j, w in table.items())


def test_is_m_resonance():
    assert weight_sum((-3, -1, 2, 2), 2) == -240
    assert not is_M_resonance((-3, -1, 2, 2), 3)
    assert is_M_resonance((1, -1, 5, -5), 8)
    assert is_M_resonance((2, -2, 2, -2, 7, -7), 8)
    with pytest.raises(ValueError):
        is_M_resonance((1, -1), 2)
    # monotone: an M-resonance is an M'-resonance for M' <= M
    assert m_resonant_up_to((1, -1, 4, -4), 8) == 8
    assert m_resonant_up_to((-3, -1, 2, 2), 8) == 0


def fraction_weight_sum(mono, r):
    return sum((kr_weight(r, j) * lam(j) for j in mono), Fraction(0))


def test_weight_sum_is_the_integer_closed_form():
    rng = random.Random(13)
    for _ in range(60):
        mono = tuple(sorted(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7, 11])
                            for _ in range(rng.randint(3, 8))))
        for r in range(2, 10):
            w = weight_sum(mono, r)
            assert type(w) is int
            assert w == fraction_weight_sum(mono, r)
    with pytest.raises(ValueError):
        weight_sum((-3, -1, 2, 2), 1)


def test_enumeration_matches_brute_force_scan():
    # every multiset in [-6, 6] \ {0}, decided with Fraction lambda-sums and
    # Fraction hierarchy weights
    values = [j for j in range(-6, 7) if j != 0]
    levels = set()
    for order in (3, 4, 5):
        expect = {}
        for mono in itertools.combinations_with_replacement(values, order):
            if sum(mono) != 0 or sum((lam(j) for j in mono), Fraction(0)) != 0:
                continue
            best = 0
            for r in range(2, 10):
                if fraction_weight_sum(mono, r) != 0:
                    break
                if r >= 4:
                    best = r - 1
            expect[mono] = best
        got = {t.indices: t.m_resonant_up_to for t in enumerate_h2_resonances(order, 6)}
        assert got == expect
        for mono in itertools.combinations_with_replacement(values, order):
            assert m_resonant_up_to(mono, 8) == expect.get(mono, 0)
        levels.update(expect.values())
    assert {0, 8} <= levels  # both non-hierarchy and fully resonant tuples occur


def test_wbnf_small_set():
    S = TangentialSet.make([6, 7])
    res = run_wbnf(S, 2)
    assert res.z_pieces[3].is_zero()
    assert res.z_pieces[4].terms == h40_closed_form(S).terms
    assert res.z1_pieces[4].is_zero()
    # H^(2) invariant through the steps
    uni = index_universe(res.universe_max)
    from dpkam.wbnf import dp_h2

    assert res.pieces[2].terms == dp_h2(uni).terms
    # generator support
    for deg, F in res.generators.items():
        assert F.max_abs_index() <= universe_bound(S, deg)
        for mono in F.terms:
            assert sum(1 for j in mono if S.in_sc(j)) <= 1


def test_wbnf_kernel_z0_trivial_support():
    S = TangentialSet.make([11, 12])
    res = run_wbnf(S, 2)
    for mono in res.z_pieces[4].terms:
        assert is_trivial_monomial(mono)


def test_h40_values():
    S = TangentialSet.make([1, 2])
    H = h40_closed_form(S)
    # the |u_j|^4 "function" coefficient of the construction's display is
    # (1/2) lam(2)/(2 lam(1) - lam(2)) = 8/9 at j = 1; the canonical monomial
    # u_1^2 u_{-1}^2 carries half of it
    assert Fraction(1, 2) * lam(2) / (2 * lam(1) - lam(2)) == Fraction(8, 9)
    assert H.terms[(-1, -1, 1, 1)] == Fraction(4, 9) and not H.imaginary
    # cross sum at (1,2): 13/6 - 25/18 = 7/9
    assert twist_cross_sum(1, 2) == Fraction(7, 9)
    assert H.terms[(-2, -1, 1, 2)] == Fraction(7, 9)


def test_h40_pipeline_match_multiple_sets():
    for sites in ([6, 7], [11, 12]):
        S = TangentialSet.make(sites)
        res = run_wbnf(S, 2)
        assert res.z_pieces[4].terms == h40_closed_form(S).terms


def test_resonant_set_coefficient_cancels():
    # {1, 2, 3} supports the in-S resonance 2 lam(2) = lam(1) + lam(3), yet
    # the DP coefficients conspire so that the non-trivial kernel monomial
    # carries coefficient zero: the normal form stays trivial-supported even
    # for a resonant tangential set (the integrability mechanism)
    S = TangentialSet.make([1, 2, 3])
    res = run_wbnf(S, 2)
    assert (-3, -1, 2, 2) not in res.z_pieces[4].terms
    assert all(is_trivial_monomial(m) for m in res.z_pieces[4].terms)


def test_wbnf_step_fails_loudly_on_surviving_kernel():
    # a synthetic (non-DP) Hamiltonian with a z-degree-1 kernel monomial at
    # degree 4 must be rejected by the step
    from dpkam.polyham import HomPoly
    from dpkam.wbnf import dp_h2, wbnf_step

    S = TangentialSet.make([1, 2])
    uni = index_universe(8)
    bad = HomPoly(4, {(-3, -1, 2, 2): Fraction(1)}, momentum=True)
    with pytest.raises(WbnfError):
        wbnf_step({2: dp_h2(uni), 4: bad}, S, 1, 4, universe=uni)


def test_m_resonance_monotone_in_m():
    # an M-resonance is an M'-resonance for every 3 <= M' <= M
    tuples = enumerate_h2_resonances(4, 6, m_cap=8)
    for t in tuples:
        for m in range(3, 9):
            expect = t.m_resonant_up_to >= m
            assert is_M_resonance(t.indices, m) == expect


def test_dp_h3_degree_and_reality():
    uni = index_universe(6)
    H3 = dp_h3(uni)
    assert preserves_momentum(H3)
    assert is_real_hamiltonian(H3)
    assert not H3.imaginary
    assert H3.terms[(-3, 1, 2)] == -1
    assert H3.terms[(-4, 2, 2)] == Fraction(-1, 2)
