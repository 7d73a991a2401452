import math
import random
from fractions import Fraction

import pytest

from dpkam import polyham
from dpkam.core import TangentialSet, lam
from dpkam.polyham import (
    HomPoly,
    Monomial,
    flow_conjugate,
    is_trivial_monomial,
    poisson_bracket,
    project_kernel,
    project_trivial,
    project_z_degree,
    serialize,
    solve_homological,
    z_degree,
)
from dpkam.wbnf import Z_TARGET, dp_h2, dp_h3, index_universe, run_wbnf
from reference import adjoint_action_h2, is_real_hamiltonian, preserves_momentum


def pairs(P: HomPoly) -> dict:
    """The coefficients of P with its phase, as (real, imaginary) pairs."""
    return {m: (0, c) if P.imaginary else (c, 0) for m, c in P.terms.items()}


def random_hompoly(rng, degree, bound=4, terms=4, momentum=False):
    """A real or (as often) an imaginary polynomial with random terms."""
    H = HomPoly.zero(degree, momentum, imaginary=rng.random() < 0.5)
    tries = 0
    while len(H) < terms and tries < 200:
        tries += 1
        idx = [rng.choice([j for j in range(-bound, bound + 1) if j != 0])
               for _ in range(degree - (1 if momentum else 0))]
        if momentum:
            last = -sum(idx)
            if last == 0 or abs(last) > bound:
                continue
            idx.append(last)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            H.accumulate(tuple(sorted(idx)), c)
    return H


def test_monomial_canonicalization():
    H = HomPoly(3, {(2, 1, -3): Fraction(1)})
    assert (-3, 1, 2) in H.terms
    with pytest.raises(ValueError):
        HomPoly(3, {(0, 1, -1): Fraction(1)})
    with pytest.raises(ValueError):
        HomPoly(3, {(1, 2, 3): Fraction(1)}, momentum=True)


def test_add_ordered_multiplicity():
    H = HomPoly.zero(3)
    H.add_ordered((1, 2, -3), Fraction(-1, 6))
    assert H.terms[(-3, 1, 2)] == -1  # six orderings
    H2 = HomPoly.zero(3)
    H2.add_ordered((2, 2, -4), Fraction(-1, 6))
    assert H2.terms[(-4, 2, 2)] == Fraction(-1, 2)  # three orderings


def test_adjoint_examples():
    K = HomPoly(2, {(-1, 1): Fraction(1)})
    assert adjoint_action_h2(K).is_zero()
    K2 = HomPoly(4, {(-3, -1, 2, 2): Fraction(1)})
    assert adjoint_action_h2(K2).is_zero()  # 2 lam(2) = lam(1) + lam(3)
    K3 = HomPoly(3, {(-3, 1, 2): Fraction(1)})
    out = adjoint_action_h2(K3)
    assert out.imaginary and out.terms[(-3, 1, 2)] == Fraction(9, 5)


def test_adjoint_equals_bracket_with_h2():
    uni = index_universe(8)
    H2 = dp_h2(uni)
    rng = random.Random(0)
    for _ in range(5):
        K = random_hompoly(rng, 3, bound=4)
        assert pairs(poisson_bracket(H2, K)) == pairs(adjoint_action_h2(K))


def test_bracket_antisymmetry_and_momentum():
    rng = random.Random(1)
    for _ in range(5):
        F = random_hompoly(rng, 3, momentum=True)
        G = random_hompoly(rng, 4, momentum=True)
        B1 = poisson_bracket(F, G)
        B2 = poisson_bracket(G, F)
        assert (B1 + B2).is_zero()
        assert preserves_momentum(B1)


def naive_bracket(F: HomPoly, G: HomPoly, mults: set | None = None) -> HomPoly:
    """{F, G} term by term as i * lam(k) * (mult_f mult_g) * c_f * c_g: the
    Fraction product times the phase i^(p_F + p_G + 1), read as a sign and a
    phase bit; records each (mult_f, mult_g) in `mults`."""
    n = F.imaginary + G.imaginary + 1
    sign = (-1) ** (n // 2)  # i^2 = -1
    out = HomPoly.zero(F.degree + G.degree - 2, F.momentum and G.momentum, n % 2 == 1)
    for mf, cf in F.terms.items():
        for k_neg in set(mf):
            k = -k_neg
            for mg, cg in G.terms.items():
                if k not in mg:
                    continue
                mult_f, mult_g = mf.count(k_neg), mg.count(k)
                if mults is not None:
                    mults.add((mult_f, mult_g))
                rest_f, rest_g = list(mf), list(mg)
                rest_f.remove(k_neg)
                rest_g.remove(k)
                coeff = sign * lam(k) * Fraction(mult_f * mult_g) * cf * cg
                out.accumulate(tuple(sorted(rest_f + rest_g)), coeff)
    return out


def test_bracket_matches_naive_oracle():
    rng = random.Random(12)
    mults: set = set()
    phases: set = set()
    for _ in range(40):
        F = random_hompoly(rng, rng.randint(3, 5), bound=3, terms=6, momentum=True)
        G = random_hompoly(rng, rng.randint(3, 5), bound=3, terms=6, momentum=True)
        phases.add((F.imaginary, G.imaginary))
        assert pairs(poisson_bracket(F, G)) == pairs(naive_bracket(F, G, mults))
    # every pair of phases, so every power of i in the bracket
    assert len(phases) == 4
    # repeated indices: multiplicities 2 and 3 on both sides of the bracket
    assert {m for m, _ in mults} >= {1, 2, 3} and {m for _, m in mults} >= {1, 2, 3}


def test_bracket_matches_naive_oracle_on_the_normal_form():
    S67 = TangentialSet.make([6, 7])
    res = run_wbnf(S67, 1)
    F3 = res.generators[3]
    H3 = dp_h3(index_universe(res.universe_max))
    B = poisson_bracket(F3, H3)
    assert not B.is_zero()
    assert F3.imaginary and not H3.imaginary and not B.imaginary
    assert all(type(c) is Fraction for P in (F3, H3, B) for c in P.terms.values())
    assert pairs(B) == pairs(naive_bracket(F3, H3))


def bracket_cases():
    """(F, G, S, window): the random pairs of the naive oracle test with
    S+ = {2, 3} (so +-1 are normal) and the window |j| <= 2, then {F3, H3} of
    the S67 normal form with the window |j| <= 10."""
    rng = random.Random(12)
    S23 = TangentialSet.make([2, 3])
    for _ in range(40):
        F = random_hompoly(rng, rng.randint(3, 5), bound=3, terms=6, momentum=True)
        G = random_hompoly(rng, rng.randint(3, 5), bound=3, terms=6, momentum=True)
        yield F, G, S23, index_universe(2)
    S67 = TangentialSet.make([6, 7])
    res = run_wbnf(S67, 1)
    yield res.generators[3], dp_h3(index_universe(res.universe_max)), S67, index_universe(10)


def in_window(window):
    return lambda m: window is None or all(j in window for j in m)


def test_pruned_bracket_equals_the_filtered_full_bracket():
    pruned = kept = 0
    for F, G, S, window in bracket_cases():
        full = poisson_bracket(F, G)
        for uni in (None, window):
            inside = in_window(uni)
            got = poisson_bracket(F, G, universe=uni)
            assert pairs(got) == pairs(full.map_filter(inside))
            for cap in range(4):
                keep = lambda m: z_degree(m, S) <= cap and inside(m)
                got = poisson_bracket(F, G, max_z=cap, S=S, universe=uni)
                assert pairs(got) == pairs(full.map_filter(keep))
                pruned += len(full) - len(got)
                kept += len(got)
    assert pruned > 0 and kept > 0  # the caps and windows cut, but not everything


def test_no_bracket_output_leaves_the_cap_or_the_window(monkeypatch):
    # every bracket of run_wbnf(S67, 4) is capped and windowed inside, which
    # is what lets flow_conjugate skip a prune of the bracket output
    outputs = []
    bracket = polyham.poisson_bracket

    def recording(F, G, **rule):
        out = bracket(F, G, **rule)
        outputs.append((out, rule))
        return out

    monkeypatch.setattr(polyham, "poisson_bracket", recording)
    S = TangentialSet.make([6, 7])
    run_wbnf(S, 4)
    assert len(outputs) == 14
    for out, rule in outputs:
        assert rule["S"] is S and rule["max_z"] == Z_TARGET + 6 - out.degree
        inside = in_window(rule["universe"])
        assert all(z_degree(m, S) <= rule["max_z"] and inside(m) for m in out.terms)
    assert sum(len(out) for out, _ in outputs) == 1428


def test_flow_conjugate_equals_bracket_then_prune_on_a_normal_form_step():
    # the degree-3 step of run_wbnf(S67, 4), against a Lie series that forms
    # every bracket term and prunes afterwards
    S = TangentialSet.make([6, 7])
    res = run_wbnf(S, 4)
    uni = index_universe(res.universe_max)

    def z_keep(degree):
        return Z_TARGET + (6 - degree)

    def prune(p):
        return p.map_filter(lambda m: in_window(uni)(m) and z_degree(m, S) <= z_keep(p.degree))

    pieces = [dp_h2(uni), prune(dp_h3(uni))]
    F = solve_homological(project_z_degree(pieces[1], S, lambda d: d <= 1))
    assert pairs(F) == pairs(res.generators[3])
    expected: dict[int, HomPoly] = {}
    for H in pieces:
        series, current, k = [prune(H)], H, 1
        while current.degree + 1 <= 6:
            current = prune(poisson_bracket(F, current))
            series.append(current.scale(Fraction(1, math.factorial(k))))
            k += 1
        for p in series:
            expected[p.degree] = expected.get(p.degree, HomPoly.zero(p.degree)) + p
    got = flow_conjugate(pieces, F, 6, max_z_keep=z_keep, universe=uni, S=S)
    assert {d: p.terms for d, p in got.items()} == {
        d: p.terms for d, p in expected.items() if not p.is_zero()
    }


def test_a_z_cap_needs_its_bound_and_the_tangential_set():
    S = TangentialSet.make([2, 3])
    uni = index_universe(6)

    def z_keep(degree):
        return Z_TARGET + (4 - degree)

    # the input pieces come within the cap, as run_wbnf builds them
    H2, H3 = dp_h2(uni), dp_h3(uni).map_filter(lambda m: z_degree(m, S) <= z_keep(3))
    F = solve_homological(project_z_degree(H3, S, lambda d: d <= 1))
    with pytest.raises(ValueError):
        flow_conjugate([H2, H3], F, 4, max_z_keep=z_keep, universe=uni)
    with pytest.raises(ValueError):
        flow_conjugate([H2, H3], F, 4, universe=uni, S=S)
    with pytest.raises(ValueError):
        poisson_bracket(F, H3, max_z=1)
    with pytest.raises(ValueError):
        poisson_bracket(F, H3, S=S)
    out = flow_conjugate([H2, H3], F, 4, max_z_keep=z_keep, universe=uni, S=S)
    assert all(z_degree(m, S) <= z_keep(p.degree) for p in out.values() for m in p.terms)
    assert any(z_degree(m, S) == z_keep(4) for m in out[4].terms)  # the cap is reached


def test_bracket_with_itself_vanishes():
    rng = random.Random(2)
    F = random_hompoly(rng, 3)
    assert poisson_bracket(F, F).is_zero()


def test_jacobi_identity():
    rng = random.Random(3)
    for _ in range(3):
        F = random_hompoly(rng, 3, bound=3, terms=3)
        G = random_hompoly(rng, 3, bound=3, terms=3)
        H = random_hompoly(rng, 4, bound=3, terms=3)
        total = poisson_bracket(F, poisson_bracket(G, H))
        total = total + poisson_bracket(G, poisson_bracket(H, F))
        total = total + poisson_bracket(H, poisson_bracket(F, G))
        assert total.is_zero()


def test_reality_preservation():
    rng = random.Random(4)

    def make_real(degree):
        # the conjugate of i^p c is (-1)^p i^p c
        H = random_hompoly(rng, degree, bound=3, terms=3)
        out = HomPoly.zero(degree, imaginary=H.imaginary)
        for m, c in H.terms.items():
            out.accumulate(m, c)
            out.accumulate(tuple(sorted(-j for j in m)), -c if H.imaginary else c)
        return out

    for _ in range(4):
        F, G = make_real(3), make_real(3)
        assert is_real_hamiltonian(F) and is_real_hamiltonian(G)
        assert is_real_hamiltonian(poisson_bracket(F, G))
    flipped = HomPoly(3, F.terms, imaginary=not F.imaginary)
    assert not is_real_hamiltonian(flipped)


def test_momentum_quadratic_commutes():
    # any momentum-flagged polynomial Poisson-commutes with the momentum
    # quadratic sum_j l(j)|u_j|^2, l(j) lam(j) = j
    uni = index_universe(10)
    K1 = HomPoly.zero(2, momentum=True)
    for j in sorted(u for u in uni if u > 0):
        K1.accumulate((-j, j), Fraction(1 + j * j, 4 + j * j))
    rng = random.Random(5)
    F = random_hompoly(rng, 4, bound=5, momentum=True)
    assert poisson_bracket(K1, F).is_zero()


def test_solve_homological_inverse_on_range():
    rng = random.Random(6)
    K = random_hompoly(rng, 3, bound=4)
    F = solve_homological(K)
    # K - project_kernel(K) is the projection on the range
    assert pairs(adjoint_action_h2(F)) == pairs(K - project_kernel(K))
    assert pairs(solve_homological(adjoint_action_h2(F))) == pairs(F - project_kernel(F))


def test_product_obeys_the_leibniz_rule():
    # the bracket and the adjoint action are derivations of the product
    rng = random.Random(11)
    F = random_hompoly(rng, 3, bound=3)
    G = random_hompoly(rng, 2, bound=3)
    H = random_hompoly(rng, 3, bound=3)
    assert (G * H).degree == 5 and pairs(G * H) == pairs(H * G)
    lhs = poisson_bracket(F, G * H)
    assert pairs(lhs) == pairs(poisson_bracket(F, G) * H + G * poisson_bracket(F, H))
    assert not lhs.is_zero()
    ad = adjoint_action_h2(G * H)
    assert pairs(ad) == pairs(adjoint_action_h2(G) * H + G * adjoint_action_h2(H))


def test_solve_homological_cubic_value():
    # cubic coefficient -1/6 at (6,7,-13): divisor lam(6)+lam(7)-lam(13)
    d = lam(6) + lam(7) + lam(-13)
    assert d == Fraction(10647, 15725)
    K = HomPoly(3, {(-13, 6, 7): Fraction(-1, 6)})
    F = solve_homological(K)
    # (-1/6) / (i d) = i / (6 d)
    assert F.imaginary and F.terms[(-13, 6, 7)] == 1 / (6 * d)


def test_projectors():
    S = TangentialSet.make([2, 3])
    triv = HomPoly(4, {(-2, -1, 1, 2): Fraction(5)})
    assert pairs(project_trivial(triv)) == pairs(triv)
    nontriv = HomPoly(4, {(-3, -1, 2, 2): Fraction(1)})
    assert project_trivial(nontriv).is_zero()
    rng = random.Random(7)
    K = random_hompoly(rng, 4, bound=4)
    assert project_kernel(K - project_kernel(K)).is_zero()
    zsplit = project_z_degree(K, S, lambda d: d >= 0)
    assert pairs(zsplit) == pairs(K)
    assert is_trivial_monomial((-4, -4, 4, 4))
    assert not is_trivial_monomial((-3, -1, 2, 2))
    assert z_degree((-3, -1, 2, 2), S) == 1


def test_flow_cancels_cubic_range_part():
    # conjugating H2 + H3 by the flow of the solved generator cancels the
    # z-degree <= 1 cubic part exactly (normalization self-consistency)
    S = TangentialSet.make([2, 3])
    uni = index_universe(6)
    H2, H3 = dp_h2(uni), dp_h3(uni)
    low = project_z_degree(H3, S, lambda d: d <= 1)
    F = solve_homological(low)
    out = flow_conjugate([H2, H3], F, 4, universe=uni)
    remaining = project_z_degree(out[3], S, lambda d: d <= 1)
    assert pairs(remaining) == pairs(project_kernel(low))
    assert pairs(out[2]) == pairs(H2)  # H2 untouched
    # F = 0 acts as the identity
    out0 = flow_conjugate([H3], HomPoly(3, {}), 5, universe=uni)
    assert pairs(out0[3]) == pairs(H3)


def test_flow_first_order_term():
    uni = index_universe(5)
    H2 = dp_h2(uni)
    rng = random.Random(8)
    F = random_hompoly(rng, 3, bound=4, momentum=True)
    out = flow_conjugate([H2], F, 3, universe=uni)
    assert pairs(out[3]) == pairs(poisson_bracket(F, H2))


def test_flow_degree4_matches_double_bracket_identity():
    # the degree-4 piece of conjugating H2 + H3 by the solved generator is
    # (1/2){F, {F, H2}} + {F, H3}, which collapses to
    # (1/2){F, H3_low} + {F, H3_high} once the homological equation holds
    S = TangentialSet.make([2, 3])
    uni = index_universe(9)
    H2, H3 = dp_h2(uni), dp_h3(uni)
    low = project_z_degree(H3, S, lambda d: d <= 1)
    high = H3 - low
    F = solve_homological(low)
    out = flow_conjugate([H2, H3], F, 4, universe=uni)
    direct = poisson_bracket(F, poisson_bracket(F, H2)).scale(Fraction(1, 2))
    direct = direct + poisson_bracket(F, H3)
    keep = lambda m: all(j in uni for j in m)
    assert pairs(out[4]) == pairs(direct.map_filter(keep))
    collapsed = poisson_bracket(F, low).scale(Fraction(1, 2)) + poisson_bracket(F, high)
    assert pairs(out[4]) == pairs(collapsed.map_filter(keep))


def deserialize(text: str, degree: int, momentum: bool = False) -> HomPoly:
    """Inverse of `serialize`; the phase is read off the lines, and a line or
    a polynomial mixing real and imaginary parts raises ValueError."""
    terms: dict[Monomial, Fraction] = {}
    phases = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        idx = tuple(int(p) for p in parts[:-2])
        re, im = (Fraction(int(n), int(d)) for n, d in (p.split("/") for p in parts[-2:]))
        if re and im:
            raise ValueError(f"monomial {idx} has both a real and an imaginary part")
        if re or im:
            phases.add(bool(im))
        terms[idx] = im or re
    if len(phases) > 1:
        raise ValueError("the polynomial mixes real and imaginary coefficients")
    return HomPoly(degree, terms, momentum, imaginary=True in phases)


def test_serialization_roundtrip():
    rng = random.Random(9)
    phases = set()
    for _ in range(6):
        K = random_hompoly(rng, 3, bound=4, momentum=True)
        phases.add(K.imaginary)
        text = serialize(K)
        K2 = deserialize(text, 3, momentum=True)
        assert pairs(K2) == pairs(K)
        assert serialize(K2) == text
    assert phases == {False, True}
    assert serialize(HomPoly(3, {(-3, 1, 2): Fraction(-1, 2)})) == "-3 1 2  -1/2  0/1\n"
    assert serialize(HomPoly(3, {(-3, 1, 2): 2}, imaginary=True)) == "-3 1 2  0/1  2/1\n"


def test_deserialize_rejects_a_mixed_line_or_polynomial():
    with pytest.raises(ValueError):
        deserialize("-3 1 2  1/2  1/3\n", 3)
    with pytest.raises(ValueError):
        deserialize("-3 1 2  1/2  0/1\n-4 2 2  0/1  1/3\n", 3)
    K = deserialize("-3 1 2  0/1  1/3\n-4 2 2  0/1  0/1\n", 3)
    assert K.imaginary and K.terms == {(-3, 1, 2): Fraction(1, 3)}


def test_adding_a_real_and_an_imaginary_polynomial_raises():
    re = HomPoly(3, {(-3, 1, 2): 1})
    im = HomPoly(3, {(-3, 1, 2): 1}, imaginary=True)
    with pytest.raises(ValueError):
        re + im
    with pytest.raises(ValueError):
        im - re
    # a zero side takes the phase of the other
    zero = HomPoly.zero(3)
    assert (zero + im).imaginary and (im + zero).imaginary
    assert (im - im).is_zero()
