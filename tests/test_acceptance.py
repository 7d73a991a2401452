"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8 and 10 assert what the method gives, not a stronger law:

- Criterion 8 (zeroth-Melnikov measure): the measure lemma is a one-sided
  bound |Omega_eps minus G0_0| <= C eps^(2(nu-1)) gamma (exponent 4.1 here),
  not a power law.  With tau = 2 nu + 6 = 10 the exact slab quadrature gives
  excluded fractions 4.79e-15, 4.74e-14, 2.03e-13, 1.21e-12, 3.88e-12 at
  eps = 0.04 ... 0.16, six to ten orders below what 1e5 samples resolve, and
  local measure slopes 10.47, 8.30, 9.16, 7.35 (overall fit 8.81).  The test checks
  the quadrature against the lemma's bound with the constant from the per-l
  slab estimate, and the Monte-Carlo fraction against the quadrature; the
  slopes are reported only.
- Criterion 10 (eigenvalue deviation order): shifting every angle by pi
  maps the packet at eps to the packet at -eps and leaves omega fixed, so
  the matched eigenvalues are even in eps and their deviation from the
  first-order model is c4 eps^4 (1 + O(eps^2)).  The halving ratios are
  11.2-16.3 (the low one is j = 8 on the 1/250 -> 1/500 step, where the
  eps^6 term is still large); the order extrapolated with the eps^2
  correction parity implies is 3.96-4.05 for all six j.  The test asserts
  order 4 in the stated window moved from 2^3 to 2^4.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpkam.core import (
    ScalingParams,
    TangentialSet,
    lam,
)
from dpkam.measure import (
    binomial_stderr,
    g0_lemma_constant,
    measure_sweep,
    sweep_configs,
)
from dpkam.spectrum import (
    EigenModel,
    c_of_xi,
    c_via_f2,
    ell_j_form,
    identification_check,
    momentum_ells,
    omega_bar_dot,
)
from dpkam.twist import (
    b_jk,
    twist_matrix,
)
from dpkam.torus import (
    NewtonSchedule,
    TorusProblem,
    TruncationGrid,
    action_angle_embed,
    evolve,
    linearized_normal_operator,
    newton_solve,
)
from dpkam.wbnf import (
    enumerate_h2_resonances,
    h40_closed_form,
    run_wbnf,
    twist_cross_sum,
)
from reference import (
    divisor_closed_form_ell1,
    divisor_closed_form_ell2,
    in_g0,
    is_in_wave_packet_class,
    normalized_det,
    normalized_det_limit_form,
    weight_sum,
)

S67 = TangentialSet.make([6, 7])
XI = (Fraction(13, 10), Fraction(17, 10))
ACCEPTANCE_SETS = ([6, 7], [11, 12], [20, 21, 22])


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def solve_at(eps_frac: Fraction):
    eps = float(eps_frac)
    sc = ScalingParams(epsilon=eps, a=0.1, nu=2)
    prob = TorusProblem(S=S67, grid=TruncationGrid(n_x=24, n_phi=12), xi=XI, scaling=sc)
    sol = newton_solve(prob, schedule=NewtonSchedule(max_iter=8))
    # every number a criterion reads comes from a converged solve
    assert sol.converged and sol.residuals[-1] < 1e-10, (
        f"Newton at eps = {eps_frac} did not converge: residuals {sol.residuals}"
    )
    return prob, sol


@pytest.fixture(scope="module")
def torus_1em3():
    return solve_at(Fraction(1, 1000))


def test_criterion_01_resonance_triviality():
    t0 = time.monotonic()
    offenders = []
    for order in (3, 4, 5, 6):
        for t in enumerate_h2_resonances(order, 40, m_cap=8):
            if not t.trivial and t.m_resonant_up_to >= 3:
                offenders.append(t.indices)
    elapsed = time.monotonic() - t0
    small = {t.indices: t for t in enumerate_h2_resonances(4, 3)}
    found = (-3, -1, 2, 2) in small
    r2 = weight_sum((-3, -1, 2, 2), 2)
    ok = not offenders and found and r2 == -240 and elapsed <= 300
    report(
        1,
        ok,
        f"{len(offenders)} nontrivial M-resonances (orders 3-6, B=40, M=8); "
        f"(-3,-1,2,2) found={found} with r=2 value {r2}; {elapsed:.1f}s",
    )
    assert not offenders
    assert found and r2 == -240
    assert elapsed <= 300


def test_criterion_02_weak_bnf_degree4():
    details = []
    ok = True
    for sites in ACCEPTANCE_SETS:
        S = TangentialSet.make(sites)
        res = run_wbnf(S, 3)
        closed = h40_closed_form(S)
        good = (
            res.z_pieces[3].is_zero()
            and res.z_pieces[5].is_zero()
            and res.z1_pieces[4].is_zero()
            and res.z_pieces[4].terms == closed.terms
        )
        ok = ok and good
        details.append(f"{sites}:{'ok' if good else 'MISMATCH'}")
    report(2, ok, "; ".join(details))
    assert ok


def test_criterion_03_twist_structure():
    # (a) cross-sum identity on all pairs of the acceptance sets
    pair_ok = True
    for sites in ACCEPTANCE_SETS:
        for i, j in enumerate(sites):
            for k in sites[i + 1:]:
                pair_ok = pair_ok and b_jk(j, k) == twist_cross_sum(j, k)
    assert b_jk(1, 2) == Fraction(13, 6) - Fraction(25, 18) == Fraction(7, 9)

    # (b) normalized determinant vs the closed form at p = 1, 20 rational x
    det_ok = True
    for n in range(20):
        x = Fraction(n, 41)
        for nu in (2, 3):
            det_ok = det_ok and normalized_det(x, [Fraction(1)] * nu) == \
                normalized_det_limit_form(x, nu)

    # (c) adjacent-site scan: |det A| / jbar1^(3 nu) bounded below
    ratios = []
    for m in range(20, 201):
        S = TangentialSet.make([m - 1, m])
        assert is_in_wave_packet_class(S, Fraction(1, 10))
        td = twist_matrix(S)
        ratios.append(abs(td.det_A) / Fraction(m) ** 6)
    for m in range(22, 201, 2):
        S = TangentialSet.make([m - 2, m - 1, m])
        assert is_in_wave_packet_class(S, Fraction(1, 10))
        td = twist_matrix(S)
        ratios.append(abs(td.det_A) / Fraction(m) ** 9)
    cstar = min(ratios)
    ok = pair_ok and det_ok and cstar > 0
    report(
        3,
        ok,
        f"cross sums exact={pair_ok}; normalized det exact={det_ok}; "
        f"measured c* = {float(cstar):.4f} > 0 over {len(ratios)} sets",
    )
    assert ok


def test_criterion_04_identification():
    bad = []
    for j in range(8, 31):
        if not S67.in_sc(j):
            continue
        lhs, rhs, ok = identification_check(S67, j)
        if not ok:
            bad.append((j, lhs, rhs))
    # the two printed forms of the diagonal correction agree for j <= 60
    # (ell_j_form raises on any mismatch)
    for j in range(8, 61):
        if S67.in_sc(j):
            ell_j_form(S67, j)
    report(4, not bad, f"exact identification for j in 8..30 minus S; "
                       f"{len(bad)} mismatches; both l_j forms agree to j=60")
    assert not bad


def test_criterion_05_reduction_constant():
    wb = run_wbnf(S67, 1)
    F3 = wb.generators[3]
    import random

    rng = random.Random(2024)
    ok = True
    for _ in range(10):
        xi = [Fraction(rng.randint(1, 50), rng.randint(1, 25)) for _ in range(2)]
        ok = ok and c_via_f2(S67, xi, F3) == c_of_xi(S67, xi)
    report(5, ok, "c from the transport average equals (2/3) sum (1+j^2) xi_j "
                  "for 10 random rational xi")
    assert ok


def test_criterion_06_eigenvalue_decay():
    xi = (Fraction(1), Fraction(1))
    c = c_of_xi(S67, xi)
    model = EigenModel(S67, xi, ScalingParams(epsilon=1e-3, a=0.1, nu=2))
    best = Fraction(0)
    best_j = None
    val_1000 = None
    for j in range(1, 10001):
        if not S67.in_sc(j):
            continue
        k = model.kappa(j, model.ell(j))  # odd in j, so positive j suffice
        v = abs(j * k)
        if v > best:
            best, best_j = v, j
        if j == 1000:
            val_1000 = j * k
    rel = abs(float(val_1000 + 3 * c)) / float(3 * c)
    ok = best_j is not None and best_j <= 50 and rel < 1e-2
    report(
        6,
        ok,
        f"sup |j kappa_j| = {float(best):.4f} attained at j = {best_j}; "
        f"j kappa_j at j=1000 within {rel:.2e} of -3c",
    )
    assert best_j <= 50
    assert rel < 1e-2


def _divisor_scan(j_bound: int):
    best = None
    for ell, shift in momentum_ells(S67, 2):
        base = omega_bar_dot(S67, ell)
        sites = []
        rem = list(ell)
        for s, e in zip(S67.splus, ell):
            sites.extend([s * (1 if e > 0 else -1)] * abs(e))
        for j in range(-j_bound, j_bound + 1):
            if not S67.in_sc(j):
                continue
            jp = j + shift
            if not S67.in_sc(jp):
                continue
            delta = base + lam(j) - lam(jp)
            if len(sites) == 1:
                closed = divisor_closed_form_ell1(jp, j)
            else:
                closed = divisor_closed_form_ell2(sites[0], sites[1], j)
            assert delta == closed, (ell, j, jp)
            if delta != 0:
                a = abs(delta)
                if best is None or a < best:
                    best = a
    return best


def test_criterion_07_small_divisors():
    t0 = time.monotonic()
    m1 = _divisor_scan(2000)
    m2 = _divisor_scan(4000)
    change = abs(float(m1) - float(m2))
    ok = m1 > 0 and change < 1e-12
    report(
        7,
        ok,
        f"closed forms exact on |l|<=2, |j|<=4000; min|delta| = {float(m1):.6f} "
        f"> 0; change under bound doubling {change:.1e} "
        f"({time.monotonic() - t0:.0f}s)",
    )
    assert m1 > 0
    assert change < 1e-12


def test_criterion_08_measure_scaling():
    """The measure lemma |Omega_eps minus G0_0| <= C eps^(2(nu-1)) gamma is a
    one-sided bound, so the test checks, at each stated eps:

    (a) the exact slab quadrature (`MeasureEstimate.quadrature`, as a
        measure) is at most the lemma's bound, with C from the per-l slab
        estimate of the lemma's proof (`g0_lemma_constant`, derived there),
        not fitted;
    (b) the Monte-Carlo fraction lies within 3 standard errors of the
        quadrature.  The standard error is the estimator's own formula
        (`binomial_stderr`) at the quadrature fraction, the value the
        estimator would report if it hit the quadrature: with the fractions
        ~1e-12 that is its 1/samples floor, so 4 or more exclusions out of
        1e5 fail.  (At the Monte-Carlo fraction itself the error grows with
        the count, and 9 spurious exclusions would still pass.)
    (c) the fitted Monte-Carlo slope and the quadrature's local and overall
        log-log slopes are reported, not asserted: the quadrature slopes
        are 10.47, 8.30, 9.16, 7.35 (overall 8.81), and with no exclusion
        among 1e5 samples the fitted slope is nan."""
    t0 = time.monotonic()
    eps_values = [0.04, 0.057, 0.08, 0.113, 0.16]
    sweep = measure_sweep(
        S67, sweep_configs(S67, 0.1, eps_values, ell_max=20), "G0_0", samples=100000,
        seed=20260810,
    )
    tau = ScalingParams(epsilon=eps_values[0], a=0.1, nu=2).tau
    lemma_c = g0_lemma_constant(S67, tau, ell_max=20)
    slabs, measures, bounds, tols = [], [], [], []
    for est in sweep.estimates:
        sc = ScalingParams(epsilon=est.eps, a=0.1, nu=2)
        slab = est.quadrature
        slabs.append(slab)
        measures.append(slab * est.volume)
        bounds.append(lemma_c * est.eps ** (2 * (S67.nu - 1)) * sc.gamma)
        tols.append(3.0 * binomial_stderr(slab, est.samples))
    elapsed = time.monotonic() - t0
    counts = [e.excluded for e in sweep.estimates]
    fractions = [e.fraction for e in sweep.estimates]
    log_eps, log_m = np.log(eps_values), np.log(measures)
    local = np.diff(log_m) / np.diff(log_eps)
    overall = float(np.polyfit(log_eps, log_m, 1)[0])
    under_bound = all(m <= b for m, b in zip(measures, bounds))
    mc_agrees = all(abs(f - q) <= t for f, q, t in zip(fractions, slabs, tols))
    ok = under_bound and mc_agrees and elapsed <= 600
    report(
        8,
        ok,
        f"slab fractions {['%.2e' % q for q in slabs]}; measures "
        f"{['%.2e' % m for m in measures]} <= lemma bound C eps^2 gamma "
        f"{['%.2e' % b for b in bounds]} (C = {lemma_c:.1f}): {under_bound}; "
        f"MC exclusions {counts} of 1e5 within 3 stderr of the slabs: "
        f"{mc_agrees}; reported only: slab slopes "
        f"{[round(float(v), 2) for v in local]}, overall {overall:.2f}, MC "
        f"fitted slope {sweep.slope} (lemma exponent {sweep.theory_slope}); "
        f"{elapsed:.0f}s",
    )
    assert elapsed <= 600
    assert under_bound, (
        f"slab quadrature measures {measures} exceed the lemma's bound "
        f"C eps^(2(nu-1)) gamma = {bounds} (C = {lemma_c})"
    )
    assert mc_agrees, (
        f"Monte-Carlo fractions {fractions} ({counts} of 1e5) differ from the "
        f"slab quadrature {slabs} by more than 3 standard errors {tols}"
    )


def test_criterion_09_torus_solve(torus_1em3):
    t0 = time.monotonic()
    prob, sol = torus_1em3
    elapsed = time.monotonic() - t0
    from dpkam.measure import MelnikovConfig

    cfg = MelnikovConfig(
        scaling=ScalingParams(epsilon=1e-3, a=0.1, nu=2), ell_max=12
    )
    f0, f1 = in_g0([1.3, 1.7], S67, cfg)
    zeta = float(np.abs(sol.emb.zeta).max())
    ok = (
        f0 and f1
        and sol.converged
        and sol.iterations <= 8
        and sol.residuals[-1] < 1e-10
        and zeta < 1e-9
    )
    report(
        9,
        ok,
        f"omega in G0 = {f0 and f1}; converged in {sol.iterations} iterations "
        f"to sup residual {sol.residuals[-1]:.2e}; |zeta| = {zeta:.2e}",
    )
    assert f0 and f1
    assert sol.converged and sol.iterations <= 8
    assert sol.residuals[-1] < 1e-10
    assert zeta < 1e-9


# The stated halving window [6, 10] around 2^3, moved to 2^4: ratios over
# one halving, and the same window as an exponent (log2 6 + 1, log2 10 + 1).
HALVING_WINDOW = (12.0, 20.0)
ORDER_WINDOW = (math.log2(6.0) + 1.0, math.log2(10.0) + 1.0)


def deviation_order(devs: dict[float, float]) -> tuple[float, float, float]:
    """Halving ratios r1, r2 of a deviation series at eps, eps/2, eps/4 and
    its order extrapolated with the eps^2 correction that parity implies.

    For dev = c eps^p (1 + k eps^2 + ...), log2 r = p + O(eps^2) and the
    O(eps^2) term shrinks fourfold per halving, so p = p2 + (p2 - p1)/3 with
    p_i = log2 r_i, up to O(eps^4)."""
    e0, e1, e2 = sorted(devs, reverse=True)
    r1, r2 = float(devs[e0] / devs[e1]), float(devs[e1] / devs[e2])
    p1, p2 = math.log2(r1), math.log2(r2)
    return r1, r2, p2 + (p2 - p1) / 3.0


def order_four(table: dict[int, tuple[float, float, float]]) -> bool:
    """True if every mode's last halving ratio and extrapolated order lie in
    the order-4 windows."""
    return all(
        HALVING_WINDOW[0] <= r2 <= HALVING_WINDOW[1]
        and ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1]
        for _, r2, p in table.values()
    )


def test_criterion_10_rejects_eps3_series():
    """The order-4 windows of criterion 10 reject a deviation series that
    scales as eps^3 and accept one that scales as eps^4, with eps^2
    corrections of up to 48% at eps = 1/250 (the measured j = 8 series has
    about -36%)."""
    eps = (1 / 250, 1 / 500, 1 / 1000)
    for k in (-3e4, 0.0, 3e4):
        for p, want in ((3, False), (4, True)):
            table = {0: deviation_order({e: e**p * (1 + k * e * e) for e in eps})}
            assert order_four(table) is want, (p, k, table)


def test_criterion_10_spectrum_order(torus_1em3):
    """Real parts of the spectrum vanish to 1e-10, and the deviation of the
    matched eigenvalues from the first-order model d_j is of order eps^4.

    Shifting every angle by pi maps the packet at eps to the packet at -eps
    and leaves omega = omega_bar + eps^2 A xi fixed, so the matched
    eigenvalues are even in eps: the deviation is c4 eps^4 (1 + O(eps^2)),
    not the O(eps^3) of the first stated window [6, 10].  Converged solves
    give halving ratios 11.2-16.3 (the low one is j = 8 on 1/250 -> 1/500,
    where the eps^6 term is still large) and extrapolated orders 3.96-4.05.
    The test asserts the 1/500 -> 1/1000 ratios in [12, 20] and the
    extrapolated orders in [3.58, 4.32]: the stated window moved from 2^3 to
    2^4.  It also checks that the same windows reject the measured series
    divided by eps, which scales as eps^3."""
    modes = (3, 4, 5, 8, 9, 10)
    devs: dict[int, dict[float, float]] = {j: {} for j in modes}
    remax = 0.0
    for eps_f in (Fraction(1, 250), Fraction(1, 500), Fraction(1, 1000)):
        prob, sol = torus_1em3 if eps_f == Fraction(1, 1000) else solve_at(eps_f)
        op = linearized_normal_operator(prob, sol.emb, ell_cut=6, phib_order=2)
        model = EigenModel(S67, XI, prob.scaling)
        remax = max(remax, float(np.abs(op.eigvals.real).max()))
        for j in modes:
            d0 = model.row(j)[-1]
            devs[j][float(eps_f)] = abs(op.matched[((0, 0), j)] + 1j * d0)
    table = {j: deviation_order(devs[j]) for j in modes}
    table3 = {
        j: deviation_order({e: d / e for e, d in devs[j].items()}) for j in modes
    }
    in_window = order_four(table)
    rejects_eps3 = not order_four(table3)
    ok = in_window and rejects_eps3 and remax < 1e-10
    report(
        10,
        ok,
        f"max |Re eig| = {remax:.2e} (< 1e-10: {remax < 1e-10}); halving "
        f"ratios and extrapolated order "
        f"{dict((j, (round(a, 1), round(b, 1), round(p, 2))) for j, (a, b, p) in table.items())} "
        f"vs windows {HALVING_WINDOW} and [{ORDER_WINDOW[0]:.2f}, "
        f"{ORDER_WINDOW[1]:.2f}]; series / eps rejected: {rejects_eps3}",
    )
    assert remax < 1e-10
    assert in_window, (
        "matched eigenvalue deviations are not of order eps^4: (ratio "
        "1/250->1/500, ratio 1/500->1/1000, extrapolated order) per j = "
        f"{table}, windows {HALVING_WINDOW} and {ORDER_WINDOW}"
    )
    assert rejects_eps3, f"the order-4 windows accept an eps^3 series: {table3}"


def test_criterion_11_conservation(torus_1em3):
    prob, sol = torus_1em3
    u0 = action_angle_embed(prob, sol.emb, (0.0, 0.0))
    res = evolve(u0, T=100.0, n_modes=64, rtol=1e-10)
    ok = res.h_drift < 1e-6 and res.k1_drift < 1e-6
    report(
        11,
        ok,
        f"relative drifts over T=100: H {res.h_drift:.2e}, K1 {res.k1_drift:.2e}",
    )
    assert res.h_drift < 1e-6
    assert res.k1_drift < 1e-6
