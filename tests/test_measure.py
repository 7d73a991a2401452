import functools
import itertools
import math
import re

import numpy as np
import pytest

from dpkam.core import ScalingParams, TangentialSet
from dpkam.core import lam, signed_ell_vectors
from dpkam.measure import (
    ROUNDING,
    FrequencyBox,
    MelnikovConfig,
    estimate_excluded_measure,
    first_melnikov_slabs,
    fit_loglog_slope,
    g0_0_slabs,
    g0_1_slabs,
    g1_scan_pairs,
    measure_sweep,
    pruning_slope_constant,
    scan_cases,
    second_melnikov_slabs,
    slab_meets_box,
    slab_volumes,
    sweep_configs,
    _melnikov_j_range,
)
from dpkam.spectrum import EigenModel, c_of_xi
from dpkam.twist import frequency_map
from fractions import Fraction
from reference import in_g0

S67 = TangentialSet.make([6, 7])


def _cfg(eps=0.16, a=0.1, ell_max=8):
    return MelnikovConfig(
        scaling=ScalingParams(epsilon=eps, a=a, nu=2), ell_max=ell_max
    )


def test_box_slab_volume_against_mc():
    rng = np.random.default_rng(0)
    for _ in range(10):
        nu = int(rng.integers(1, 4))
        g = rng.normal(size=nu) * rng.choice([0.2, 1.0, 4.0])
        c0 = rng.normal()
        half = abs(rng.normal()) * 0.4
        vol = slab_volumes(np.array([c0]), g[None, :], np.array([half]))[0]
        xi = 1.0 + rng.random((120000, nu))
        mc = float(np.mean(np.abs(c0 + xi @ g) < half))
        assert vol == pytest.approx(mc, abs=6e-3)


def _plus(x, m):
    return x**m if x > 0 else Fraction(0)


def _exact_volume(c0, g, t):
    """Volume of {xi in [1,2]^nu : |c0 + g.xi| < t} for the float slab taken
    as exact rationals, by inclusion-exclusion over the box corners."""
    c0, t, g = Fraction(c0), Fraction(t), [Fraction(x) for x in g]
    a = [abs(x) for x in g if x != 0]
    lo = c0 + sum(min(x, 2 * x) for x in g)
    total = Fraction(0)
    for corner in itertools.product((0, 1), repeat=len(a)):
        v = lo + sum(ai for ai, c in zip(a, corner) if c)
        total += (-1) ** sum(corner) * (_plus(t - v, len(a)) - _plus(-t - v, len(a)))
    return total / (math.factorial(len(a)) * math.prod(a))


def test_slab_volumes_against_exact_rationals():
    # thin slabs (t down to 1e-14) keep their relative digits, and a slab
    # wholly outside the box gives exactly 0.  The corner sum cancels terms
    # up to about (max|g| / min|g|)^(nu-1) times the volume, which reaches
    # 1e6 among these g, so the tolerance is 1e-9 relative.
    rng = np.random.default_rng(3)
    for nu in (1, 2, 3):
        n = 300
        g = rng.normal(size=(n, nu)) * rng.choice([0.0, 0.01, 1.0, 5.0], size=(n, nu))
        # half the slabs through a point of the box, half anywhere
        inside = -np.einsum("ij,ij->i", g, 1.0 + rng.random((n, nu)))
        c0 = np.where(rng.random(n) < 0.5, inside, rng.normal(size=n) * 3)
        t = rng.choice([0.0, 1e-14, 1e-6, 0.05, 0.7, 3.0], size=n)
        vols = slab_volumes(c0, g, t)
        exact = [float(_exact_volume(*case)) for case in zip(c0, g, t)]
        assert sum(e == 0 for e in exact) > 50
        assert sum(0 < e < 1e-10 for e in exact) > 10
        for vol, e in zip(vols, exact):
            if e == 0:
                assert vol == 0.0
            else:
                assert vol == pytest.approx(e, rel=1e-9, abs=0)


@pytest.mark.parametrize("eps,expect", [(0.04, 4.79e-15), (0.057, 4.74e-14), (0.08, 2.03e-13),
                                        (0.113, 1.21e-12), (0.16, 3.88e-12)])
def test_g0_0_quadrature_matches_exact_volume(eps, expect):
    # criterion 8's sweep: the union-bound quadrature of the estimate equals
    # the exact volume of the same float slabs, most of which miss the box
    cfg = MelnikovConfig(scaling=ScalingParams(epsilon=eps, a=0.1, nu=2), ell_max=20)
    slabs = g0_0_slabs(FrequencyBox.make(S67, eps), 20, cfg.scaling.tau, cfg.gamma)
    exact = float(sum(_exact_volume(*case) for case in zip(slabs.c0, slabs.g, slabs.t)))
    est = estimate_excluded_measure(S67, cfg, "G0_0", 1000, seed=1)
    assert est.quadrature == pytest.approx(exact, rel=1e-12, abs=0)
    assert exact == pytest.approx(expect, rel=5e-3)


def test_frequency_box_volume():
    box = FrequencyBox.make(S67, 0.1)
    assert box.volume == pytest.approx(
        abs(float(box.td.det_A)) * 0.1**4
    )
    xi = np.array([[1.0, 1.0]])
    w = box.omega_bar + box.eps**2 * xi @ box.A.T
    expect = [float(v) for v in frequency_map(S67, [1, 1], Fraction(1, 10))]
    assert w[0] == pytest.approx(expect)


def test_in_g0_runs_and_flags():
    cfg = _cfg(eps=0.05, ell_max=6)
    f0, f1 = in_g0([1.5, 1.5], S67, cfg)
    assert isinstance(f0, bool) and isinstance(f1, bool)
    assert f0  # generic frequencies pass the truncated diophantine scan


def test_in_g0_five_wave_divisor_is_omega_dot_ell():
    # at a point with xi_1 != xi_2 (A is not symmetric, so A l and A^T l
    # differ there) the five-wave flag flips exactly at the smallest
    # |omega.l + mu(j') - mu(j)|, mu(j) = lambda(j) (1 + eps^2 l_j(xi)),
    # computed in exact arithmetic from the frequency map
    from dpkam.core import lam
    from dpkam.spectrum import ell_j

    eps, xi = Fraction(1, 10), [Fraction(13, 10), Fraction(17, 10)]
    omega = frequency_map(S67, xi, eps)
    cfg = _cfg(eps=float(eps), ell_max=2)

    @functools.cache
    def mu(j):
        return lam(j) * (1 + eps**2 * ell_j(S67, xi, j))

    smallest = min(
        abs(sum(w * e for w, e in zip(omega, ell)) + mu(jp) - mu(j))
        for ell, j, jp in g1_scan_pairs(S67)[0]
    )
    x = [float(v) for v in xi]
    for factor, flag in ((1 - 1e-9, True), (1 + 1e-9, False)):
        cfg.c_g1 = float(smallest) / cfg.gamma * factor
        assert in_g0(x, S67, cfg)[1] is flag


def test_g0_0_excludes_near_resonant_frequencies():
    # a frequency sitting on omega . l = 0 for a small l is excluded
    cfg = _cfg(eps=0.1, ell_max=3)
    box = FrequencyBox.make(S67, 0.1)
    slabs = g0_0_slabs(box, 3, cfg.scaling.tau, cfg.gamma)
    for w, flag in (([7.0, 7.0], True), ([6.48, 7.42], False)):  # (7, 7) kills l = (1, -1)
        xi = np.linalg.solve(box.A, (np.array(w) - box.omega_bar) / 0.1**2)
        assert bool(np.any(np.abs(slabs.c0 + slabs.g @ xi) < slabs.t)) is flag


def test_g1_scan_pairs_momentum():
    pairs, min_ell = g1_scan_pairs(S67)
    assert min_ell > 0
    for ell, j, jp in pairs:
        assert 6 * ell[0] + 7 * ell[1] + jp - j == 0
        assert S67.in_sc(j) and S67.in_sc(jp)


def test_monotonicity_in_gamma():
    # same eps (same box, same samples); smaller gamma excludes less: here via
    # two melnikov configs differing only in a (gamma = eps^(2+a))
    S = S67
    eps = 0.3
    cfg_big = MelnikovConfig(scaling=ScalingParams(epsilon=eps, a=0.05, nu=2), ell_max=6)
    cfg_small = MelnikovConfig(scaling=ScalingParams(epsilon=eps, a=0.6, nu=2), ell_max=6)
    e_big = estimate_excluded_measure(S, cfg_big, "G0_1", 4000, seed=5)
    e_small = estimate_excluded_measure(S, cfg_small, "G0_1", 4000, seed=5)
    assert cfg_small.gamma < cfg_big.gamma
    assert e_small.excluded <= e_big.excluded


def test_estimate_deterministic_and_chunked():
    cfg = _cfg(ell_max=6)
    a = estimate_excluded_measure(S67, cfg, "G0_1", 20000, seed=11)
    b = estimate_excluded_measure(S67, cfg, "G0_1", 20000, seed=11)
    assert a.excluded == b.excluded
    c = estimate_excluded_measure(S67, cfg, "G0_1", 20000, seed=12)
    assert c.excluded != a.excluded or c.fraction == a.fraction
    with pytest.raises(ValueError):
        estimate_excluded_measure(S67, cfg, "G0_1", 10, seed=1)
    with pytest.raises(ValueError):
        estimate_excluded_measure(S67, cfg, "bogus", 2000, seed=1)


def test_stderr_scaling():
    cfg = _cfg(ell_max=6)
    small = estimate_excluded_measure(S67, cfg, "G0_1", 5000, seed=3)
    big = estimate_excluded_measure(S67, cfg, "G0_1", 20000, seed=3)
    # doubling (here quadrupling) samples halves the standard error
    assert big.stderr == pytest.approx(small.stderr / 2, rel=0.35)


def test_melnikov_families_run():
    cfg = _cfg(eps=0.2, ell_max=4)
    for family in ("first_melnikov", "second_melnikov"):
        est = estimate_excluded_measure(S67, cfg, family, 2000, seed=9)
        assert est.samples == 2000
        assert any("melnikov scan" in n for n in est.notes)


def _labelled_cases(cfg, eps):
    """Each family's slabs with the divisor each case stands for, as a
    function of exact xi: (family, Slabs, [divisor(xi, omega, m, d)])."""
    box = FrequencyBox.make(S67, eps)
    ells = [ell for n in range(1, cfg.ell_max + 1) for ell in signed_ell_vectors(2, n)]
    jmax = _melnikov_j_range(S67, cfg)
    js = [j for j in range(-jmax, jmax + 1) if S67.in_sc(j)]

    def wl(ell):
        return lambda xi, w, m, d: sum(a * e for a, e in zip(w, ell))

    out = [("G0_0", g0_0_slabs(box, cfg.ell_max, cfg.scaling.tau, cfg.gamma), [wl(e) for e in ells])]
    pairs = g1_scan_pairs(S67)[0]
    A = box.td.A
    for name, M in (("G0_1 A^T", lambda i, k: A[k][i]), ("G0_1 A", lambda i, k: A[i][k])):
        def five(ell, j, jp, M=M):
            # omega_bar.l + eps^2 xi.(M l) + d_j' - d_j; with M = A^T the
            # first two terms are omega.l
            return lambda xi, w, m, d: (
                sum(lam(s) * e for s, e in zip(S67.splus, ell)) + d(jp) - d(j) + Fraction(eps) ** 2
                * sum(x * M(i, k) * e for i, x in enumerate(xi) for k, e in enumerate(ell)))
        Mf = box.A.T if name == "G0_1 A^T" else box.A
        out.append((name, g0_1_slabs(box, pairs, Mf, cfg.gamma), [five(*p) for p in pairs]))
    first, second = [], []
    for ell in ells:
        first += [lambda xi, w, m, d, ell=ell, j=j: wl(ell)(xi, w, m, d) + m * j for j in js]
        first += [lambda xi, w, m, d, ell=ell, j=j: wl(ell)(xi, w, m, d) + d(j) for j in js]
        shift = 6 * ell[0] + 7 * ell[1]
        if shift:
            second += [lambda xi, w, m, d, ell=ell, j=j, k=j - shift: wl(ell)(xi, w, m, d) + d(j) - d(k)
                       for j in js if abs(j - shift) <= jmax and S67.in_sc(j - shift)]
    for name, builder, divisors in (("first_melnikov", first_melnikov_slabs, first),
                                    ("second_melnikov", second_melnikov_slabs, second)):
        blocks = list(builder(box, cfg, jmax))
        out.append((name, type(blocks[0])(*(np.concatenate(p) for p in zip(*blocks))), divisors))
    return out


def test_affine_decomposition_reconstruction():
    # every builder's c0 + g.xi is the divisor of its case, computed exactly
    # from the frequency map, c(xi) and kappa_j, within ROUNDING * scale
    eps, cfg = 0.1, _cfg(eps=0.1, ell_max=3)
    rng = np.random.default_rng(5)
    for _ in range(2):
        x = 1.0 + rng.random(2)
        xi = [Fraction(v) for v in x]
        w = frequency_map(S67, xi, Fraction(eps))
        m = 1 + Fraction(eps) ** 2 * c_of_xi(S67, xi)
        model = EigenModel(S67, xi, cfg.scaling)

        @functools.cache
        def d(j):
            return m * lam(j) + Fraction(eps) ** 2 * model.kappa(j, model.ell(j))

        for name, slabs, divisors in _labelled_cases(cfg, eps):
            assert len(divisors) == len(slabs.t), name
            for i in rng.choice(len(divisors), size=min(40, len(divisors)), replace=False):
                got = slabs.c0[i] + slabs.g[i] @ x
                exact = divisors[i](xi, w, m, d)
                assert abs(got - float(exact)) <= ROUNDING * slabs.scale[i], (name, i)


def test_classifier_soundness_spot_check():
    # a case the box test calls empty has no sampled xi inside its slab, in
    # every family; the forms themselves are checked against the exact
    # divisors above
    eps, cfg = 0.05, _cfg(eps=0.05, ell_max=8)
    xi = 1.0 + np.random.default_rng(8).random((200, 2))
    for name, slabs, _ in _labelled_cases(cfg, eps):
        empty = ~slab_meets_box(*slabs)
        assert empty.any(), name
        vals = slabs.c0[empty, None] + slabs.g[empty] @ xi.T
        assert not (np.abs(vals) < slabs.t[empty, None]).any(), name


@pytest.mark.parametrize("eps,ell_max", [(0.05, 8), (0.16, 8), (0.3, 4)])
def test_pruning_slope_empties_miss_the_box(eps, ell_max):
    # a case the pruning slope calls empty, |l| < C|j| for omega.l + m j and
    # |l| < C|lambda(j) - lambda(k)| for omega.l + d_j - d_k, fails the box test
    cfg = _cfg(eps=eps, ell_max=ell_max)
    box, ctil = FrequencyBox.make(S67, eps), pruning_slope_constant(S67)
    jmax = _melnikov_j_range(S67, cfg)
    js = np.array([j for j in range(-jmax, jmax + 1) if S67.in_sc(j)])
    ells = [ell for n in range(1, ell_max + 1) for ell in signed_ell_vectors(2, n)]
    empties = 0
    for ell, block in zip(ells, first_melnikov_slabs(box, cfg, jmax)):
        empty = sum(map(abs, ell)) < ctil * np.abs(js)
        assert not slab_meets_box(*block)[: len(js)][empty].any()
        empties += int(empty.sum())
    assert empties > 1000
    pair_empties = 0
    blocks = second_melnikov_slabs(box, cfg, jmax)
    for ell in ells:
        shift = 6 * ell[0] + 7 * ell[1]
        if not shift:
            continue
        block = next(blocks)
        ks = js - shift
        j = js[(np.abs(ks) <= jmax) & np.isin(ks, js)]
        gap = np.abs([float(lam(int(a)) - lam(int(a) - shift)) for a in j])
        empty = sum(map(abs, ell)) < ctil * gap
        assert not slab_meets_box(*block)[empty].any()
        pair_empties += int(empty.sum())
    # on the momentum-compatible pairs |lambda(j) - lambda(k)| is close to
    # |l.jbar| <= 7|l|, far below |l|/C, so the slope never empties a pair:
    # the box test alone prunes the second-Melnikov cases
    assert pair_empties == 0


@pytest.mark.parametrize("family", ["G0_1", "first_melnikov"])
def test_measure_sweep_pool_equals_serial_estimates(family):
    # the pooled sweep gives eps number i the estimate of seed + i, whatever
    # thread runs it
    cfgs = sweep_configs(S67, 0.1, [0.08, 0.15, 0.2], ell_max=4)
    sweep = measure_sweep(S67, cfgs, family, 3000, 77)
    serial = [estimate_excluded_measure(S67, cfg, family, 3000, 77 + i)
              for i, cfg in enumerate(cfgs)]

    def fields(estimates):
        return [(e.eps, e.excluded, e.fraction, e.quadrature, e.notes) for e in estimates]

    assert fields(sweep.estimates) == fields(serial)
    assert any(e.excluded for e in serial)


@pytest.mark.parametrize("sites", [(6, 7), (6, 7, 8), (3, 5)])
@pytest.mark.parametrize("ell_max", [3, 6])
def test_scan_cases_counts_the_built_cases(sites, ell_max):
    # exact for G0_0 and first_melnikov, from above for G0_1 and second_melnikov
    S = TangentialSet.make(sites)
    cfg = sweep_configs(S, 0.1, [0.08], ell_max=ell_max)[0]
    for family, exact in (("G0_0", True), ("first_melnikov", True), ("G0_1", False),
                          ("second_melnikov", False)):
        est = estimate_excluded_measure(S, cfg, family, 1000, 1)
        built = int(re.search(r"of (\d+) cases meet", est.notes[-1]).group(1))
        count = scan_cases(S, cfg, family)
        assert count == built if exact else built <= count <= 1.1 * built, family


def test_fit_loglog_slope():
    eps = [0.1, 0.2, 0.4]
    meas = [1e-3 * (e / 0.1) ** 4.1 for e in eps]
    errs = [m * 0.01 for m in meas]
    slope, se = fit_loglog_slope(eps, meas, errs)
    assert slope == pytest.approx(4.1, abs=1e-6)
    s2, e2 = fit_loglog_slope([0.1, 0.2], [0.0, 0.0], [1.0, 1.0])
    assert math.isnan(s2)


def test_g0_slab_diagnostic_magnitude():
    # the slab quadrature shows the zeroth-Melnikov exclusions at the
    # desk-scale parameters are far below Monte-Carlo resolution
    cfg = MelnikovConfig(scaling=ScalingParams(epsilon=0.08, a=0.1, nu=2), ell_max=20)
    frac = estimate_excluded_measure(S67, cfg, "G0_0", 1000, seed=1).quadrature
    assert 0 <= frac < 1e-8


def test_measure_sweep_shape():
    sweep = measure_sweep(S67, sweep_configs(S67, 0.1, [0.15, 0.2], ell_max=4), "G0_1", 2000, 21)
    assert len(sweep.estimates) == 2
    assert sweep.eps_values == [0.15, 0.2]
    assert sweep.theory_slope == pytest.approx(2 * (2 - 1) + 2 * 1.05)


# -- oracle: the unpruned per-sample loops ------------------------------------


def _unpruned_excluded(S, cfg, family, samples, seed):
    """Excluded count of `estimate_excluded_measure` by its earlier loops:
    every case of every family evaluated sample by sample, with the
    (samples x modes) matrix of d_j for the Melnikov families.  Only the exact
    l_j is looked up once per mode; the float arithmetic is unchanged."""
    from dpkam.core import ell_bracket, lam, signed_ell_vectors
    from dpkam.measure import _kappa_matrix, _melnikov_j_range, pruning_slope_constant
    from dpkam.spectrum import ell_j_form

    l_form = {}

    def ell_coeff_vector(j):
        if j not in l_form:
            l_form[j] = np.array([float(c) for c in ell_j_form(S, j)])
        return l_form[j]

    nu, eps = S.nu, cfg.scaling.epsilon
    box = FrequencyBox.make(S, eps)
    chunks, done, widx = [], 0, 0
    while done < samples:
        size = min(1 << 14, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, widx]))
        chunks.append(1.0 + rng.random((size, nu)))
        done += size
        widx += 1
    xi = np.concatenate(chunks, axis=0)
    w = box.omega_bar + box.eps**2 * xi @ box.A.T
    ells = [ell for n in range(1, cfg.ell_max + 1) for ell in signed_ell_vectors(nu, n)]
    excluded = np.zeros(samples, dtype=bool)
    e2 = eps**2
    if family == "G0_0":
        for ell in ells:
            thr = cfg.gamma * ell_bracket(ell) ** (-cfg.scaling.tau)
            excluded |= np.abs(w @ np.asarray(ell, dtype=float)) < thr
    elif family == "G0_1":
        pairs, _ = g1_scan_pairs(S)
        A = box.A
        for ell, j, jp in pairs:
            base = float(sum(lam(s) * e for s, e in zip(S.splus, ell)))
            base += float(lam(jp)) - float(lam(j))
            lj = ell_coeff_vector(j)
            ljp = ell_coeff_vector(jp)
            grad = (np.asarray(ell, float) @ A.T) + float(lam(jp)) * ljp - float(lam(j)) * lj
            vals = base + e2 * (xi @ grad)
            excluded |= np.abs(vals) <= cfg.c_g1 * cfg.gamma
    else:
        jmax = _melnikov_j_range(S, cfg)
        js = [j for j in range(-jmax, jmax + 1) if S.in_sc(j)]
        lam_v = np.array([float(lam(j)) for j in js])
        kap = _kappa_matrix(S, js)
        c_coeff = np.array([float(Fraction(2, 3) * (1 + s * s)) for s in S.splus])
        m = 1.0 + e2 * (xi @ c_coeff)
        d = m[:, None] * lam_v[None, :] + e2 * (xi @ kap.T)
        margin = eps ** (4.0 - 3.0 * cfg.scaling.a) / np.maximum(
            1, np.abs(np.asarray(js, float))
        )
        for ell in ells:
            wl = w @ np.asarray(ell, dtype=float)
            thr = 2.0 * cfg.gamma_0 * ell_bracket(ell) ** (-cfg.scaling.tau)
            if family == "first_melnikov":
                for idx, j in enumerate(js):
                    t = thr + margin[idx]
                    excluded |= np.abs(wl + m * j) < t
                    excluded |= np.abs(wl + d[:, idx]) < t
            else:
                thr2 = 2.0 * cfg.gamma_0_star * ell_bracket(ell) ** (-cfg.scaling.tau)
                shift = sum(s * e for s, e in zip(S.splus, ell))
                for idx, j in enumerate(js):
                    k = j - shift
                    if k == j or not S.in_sc(k) or abs(k) > jmax:
                        continue
                    kdx = js.index(k)
                    t = thr2 + margin[idx] + margin[kdx]
                    excluded |= np.abs(wl + d[:, idx] - d[:, kdx]) < t
    return int(np.count_nonzero(excluded))


@pytest.mark.parametrize("family", ["G0_0", "G0_1", "first_melnikov", "second_melnikov"])
@pytest.mark.parametrize("eps,ell_max,seed", [(0.04, 4, 1), (0.16, 6, 2), (0.3, 8, 3)])
def test_box_pruning_matches_unpruned_loops(family, eps, ell_max, seed):
    cfg = _cfg(eps=eps, ell_max=ell_max)
    est = estimate_excluded_measure(S67, cfg, family, 2000, seed)
    assert est.excluded == _unpruned_excluded(S67, cfg, family, 2000, seed)
    if family in ("G0_1", "first_melnikov"):
        assert est.excluded > 0  # the box lets real exclusions through
    met, total = map(int, re.fullmatch(r"(\d+) of (\d+) cases meet the parameter box",
                                       est.notes[-1]).groups())
    assert 0 <= met <= total
    if family == "G0_1":
        assert total == len(g1_scan_pairs(S67)[0])
    # the new note stays out of the patterns that read the scan sizes from the notes
    assert not re.search(r"over (\d+) momentum cases|\|j\| <= (\d+)", est.notes[-1])


def _meets(c0, g, t):
    c0 = np.asarray(c0, float)
    g = np.tile(np.asarray(g, float), (c0.size, 1))
    scale = np.abs(c0) + 2 * np.abs(g).sum(1)
    return slab_meets_box(c0, g, np.full(c0.shape, t), scale).tolist()


def test_slab_meets_box_edges():
    t, nudge = 0.1, 1e-9
    # band edge through the corner xi = (1, 1): the range starts (ends) at +t (-t)
    assert _meets([t - 0.75, t - 0.75 + nudge], [0.5, 0.25], t) == [True, False]
    assert _meets([0.75 - t, 0.75 - t - nudge], [-0.5, -0.25], t) == [True, False]
    # a zero component: the range is [c0 + 1, c0 + 2]
    assert _meets([-1.5, t - 1, t - 1 + nudge, -2 - t, -2 - t - nudge], [0.0, 1.0], t) == [
        True, True, False, True, False]
    # a negative component: the range is [c0, c0 + 3]
    assert _meets([0.05, 0.2, -3.05, -3.2], [2.0, -1.0], t) == [True, False, True, False]
    # t = 0: only a range that reaches 0 is kept
    assert _meets([-2.0, -1.9, -3.0, -4.0 - nudge], [1.0, 1.0], 0.0) == [True, False, True, False]


def test_slab_meets_box_keeps_every_case_a_sample_hits():
    rng = np.random.default_rng(2)
    for nu in (2, 3):
        n = 4000
        g = rng.normal(size=(n, nu)) * rng.choice([0.0, 0.1, 1.0, 10.0], size=(n, nu))
        c0 = rng.normal(size=n) * 3
        t = rng.choice([0.0, 0.01, 0.3], size=n)
        pts = 1.0 + np.vstack([rng.random((200, nu)),
                               np.array(np.meshgrid(*[[0.0, 1.0]] * nu)).reshape(nu, -1).T])
        vals = c0[:, None] + g @ pts.T
        hit = (np.abs(vals) < t[:, None]).any(axis=1)
        meets = slab_meets_box(c0, g, t, np.abs(c0) + 2 * np.abs(g).sum(1))
        assert not (hit & ~meets).any()
        assert meets.sum() < n  # and it does prune
