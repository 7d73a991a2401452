import functools
import math
import re

import numpy as np
import pytest

from dpkam.core import ScalingParams, TangentialSet
from dpkam.measure import (
    FrequencyBox,
    MelnikovConfig,
    ResonantSetDescriptor,
    affine_decomposition,
    classify_resonant_set,
    estimate_excluded_measure,
    fit_loglog_slope,
    g0_slab_measure,
    g1_scan_pairs,
    in_g0,
    measure_sweep,
    slab_meets_box,
    sweep_configs,
    _box_slab_volume,
)
from dpkam.spectrum import kappa_j, c_of_xi
from dpkam.twist import frequency_map
from fractions import Fraction

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
        vol = _box_slab_volume(g, c0, half)
        t = rng.random((120000, nu))
        mc = float(np.mean(np.abs(c0 + t @ g) < half))
        assert vol == pytest.approx(mc, abs=6e-3)


def test_frequency_box_volume():
    box = FrequencyBox.make(S67, 0.1)
    assert box.volume == pytest.approx(
        abs(float(box.td.det_A)) * 0.1**4
    )
    xi = np.array([[1.0, 1.0]])
    w = box.omega_of_xi(xi)
    expect = [float(v) for v in frequency_map(S67, [1, 1], Fraction(1, 10))]
    assert w[0] == pytest.approx(expect)


def test_in_g0_runs_and_flags():
    cfg = _cfg(eps=0.05, ell_max=6)
    omega = [float(v) for v in frequency_map(S67, [Fraction(3, 2), Fraction(3, 2)],
                                             Fraction(1, 20))]
    f0, f1 = in_g0(omega, S67, cfg, xi=[1.5, 1.5])
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
        for ell, j, jp in g1_scan_pairs(S67, cfg)[0]
    )
    w, x = [float(v) for v in omega], [float(v) for v in xi]
    for factor, flag in ((1 - 1e-9, True), (1 + 1e-9, False)):
        cfg.c_g1 = float(smallest) / cfg.gamma * factor
        assert in_g0(w, S67, cfg, xi=x)[1] is flag


def test_g0_0_excludes_near_resonant_frequencies():
    # a frequency sitting on omega . l = 0 for a small l is excluded
    from dpkam.measure import _excluded_g0_0
    from dpkam.core import signed_ell_vectors

    cfg = _cfg(eps=0.1, ell_max=3)
    ells = [e for n in (1, 2, 3) for e in signed_ell_vectors(2, n)]
    w = np.array([[7.0, 7.0], [6.48, 7.42]])  # first row kills l = (1,-1)
    out = _excluded_g0_0(w, S67, cfg, ells)
    assert bool(out[0]) is True
    assert bool(out[1]) is False


def test_g1_scan_pairs_momentum():
    pairs, min_ell = g1_scan_pairs(S67, _cfg())
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


def test_classify_resonant_set():
    cfg = _cfg()
    with pytest.raises(ValueError):
        ResonantSetDescriptor("R", (1, 0), 9, 9, 0.1, 10)
    # R with small |l| and large |lambda(j)-lambda(k)| gap: empty by the slope
    desc = ResonantSetDescriptor("R", (1, 0), 100, -100, 0.1, 10)
    assert classify_resonant_set(desc, S67, cfg).verdict == "empty_by_ell_bound"
    # small ell, both modes huge: absorbed into a Q set at the weaker gamma
    desc2 = ResonantSetDescriptor("R", (1, -1), 10**6, 10**6 - 1, 0.1, 10)
    out = classify_resonant_set(desc2, S67, cfg)
    assert out.verdict == "empty_by_inclusion"
    # a survivor
    desc3 = ResonantSetDescriptor("R", (8, -7), 9, 8, 0.1, 10)
    assert classify_resonant_set(desc3, S67, cfg).verdict == "candidate"
    # Q pruning
    descq = ResonantSetDescriptor("Q", (1, 0), 500, None, 0.1, 10)
    assert classify_resonant_set(descq, S67, cfg).verdict == "empty_by_ell_bound"


def test_affine_decomposition_reconstruction():
    # a_jk + b_ljk . omega equals omega.l + m(lambda_j - lambda_k)
    # + eps^2 (kappa_j - kappa_k) exactly in the d_j^(0) model
    from dpkam.core import lam

    sc = ScalingParams(epsilon=0.05, a=0.1, nu=2)
    ell = (2, -1)
    j, k = 9, 10
    dec = affine_decomposition(S67, sc, ell, j, k)
    rng = np.random.default_rng(4)
    for _ in range(5):
        xi = 1.0 + rng.random(2)
        omega = np.array(
            [float(v) for v in frequency_map(S67, list(xi), sc.epsilon)],
            dtype=float,
        )
        xi_fr = [Fraction(float(x)).limit_denominator(10**9) for x in xi]
        m = 1.0 + sc.epsilon**2 * float(c_of_xi(S67, xi_fr))
        phi = float(np.dot(omega, ell)) + m * float(lam(j) - lam(k)) + (
            sc.epsilon**2
            * float(kappa_j(S67, xi_fr, j) - kappa_j(S67, xi_fr, k))
        )
        recon = dec.a_jk + float(np.dot(dec.b_ljk, omega))
        assert recon == pytest.approx(phi, abs=1e-9)
    assert dec.q_bound > 0
    with pytest.raises(ValueError):
        affine_decomposition(S67, sc, ell, 9, 9)


def test_classifier_soundness_spot_check():
    # a descriptor classified empty must have no sampled omega violating the
    # corresponding inequality (with the d_j^(0) eigenvalue model)
    from dpkam.core import lam

    sc = ScalingParams(epsilon=0.05, a=0.1, nu=2)
    cfg = MelnikovConfig(scaling=sc, ell_max=8)
    rng = np.random.default_rng(8)
    descs = [
        ResonantSetDescriptor("R", (1, 0), 60, -40, sc.gamma ** 1.5, 10.0),
        ResonantSetDescriptor("R", (0, -1), 33, 12, sc.gamma ** 1.5, 10.0),
        ResonantSetDescriptor("Q", (1, -1), 90, None, sc.gamma, 10.0),
    ]
    for desc in descs:
        out = classify_resonant_set(desc, S67, cfg)
        if out.verdict == "candidate":
            continue
        thr = 2.0 * desc.eta * max(1, sum(abs(e) for e in desc.ell)) ** (-desc.sigma)
        for _ in range(200):
            xi = 1.0 + rng.random(2)
            xif = [Fraction(float(v)).limit_denominator(10**9) for v in xi]
            omega = np.array(
                [float(v) for v in frequency_map(S67, list(xif), sc.epsilon)]
            )
            m = 1.0 + sc.epsilon**2 * float(c_of_xi(S67, xif))
            wl = float(np.dot(omega, desc.ell))
            if desc.kind == "Q":
                val = wl + m * desc.j
            else:
                dj = m * float(lam(desc.j)) + sc.epsilon**2 * float(
                    kappa_j(S67, xif, desc.j)
                )
                dk = m * float(lam(desc.k)) + sc.epsilon**2 * float(
                    kappa_j(S67, xif, desc.k)
                )
                val = wl + dj - dk
            assert abs(val) > thr, (desc, out, val)


def test_measure_sweep_threads_deterministic():
    cfgs = sweep_configs(S67, 0.1, [0.15, 0.2], ell_max=4)
    s1 = measure_sweep(S67, cfgs, "G0_1", 3000, 77)
    s2 = measure_sweep(S67, cfgs, "G0_1", 3000, 77, threads=2)
    assert [e.excluded for e in s1.estimates] == [e.excluded for e in s2.estimates]


def test_fit_loglog_slope():
    eps = [0.1, 0.2, 0.4]
    meas = [1e-3 * (e / 0.1) ** 4.1 for e in eps]
    errs = [m * 0.01 for m in meas]
    slope, se = fit_loglog_slope(eps, meas, errs)
    assert slope == pytest.approx(4.1, abs=1e-6)
    s2, e2 = fit_loglog_slope([0.1, 0.2], [0.0, 0.0], [1.0, 1.0])
    assert math.isnan(s2)


def test_g0_slab_diagnostic_magnitude():
    # the exact slab quadrature shows the zeroth-Melnikov exclusions at the
    # desk-scale parameters are far below Monte-Carlo resolution
    cfg = MelnikovConfig(scaling=ScalingParams(epsilon=0.08, a=0.1, nu=2), ell_max=20)
    frac = g0_slab_measure(S67, cfg)
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
    w = box.omega_of_xi(xi)
    ells = [ell for n in range(1, cfg.ell_max + 1) for ell in signed_ell_vectors(nu, n)]
    excluded = np.zeros(samples, dtype=bool)
    e2 = eps**2
    if family == "G0_0":
        for ell in ells:
            thr = cfg.gamma * ell_bracket(ell) ** (-cfg.scaling.tau)
            excluded |= np.abs(w @ np.asarray(ell, dtype=float)) < thr
    elif family == "G0_1":
        pairs, _ = g1_scan_pairs(S, cfg)
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
            thr = 2.0 * cfg.gamma_n(0) * ell_bracket(ell) ** (-cfg.scaling.tau)
            if family == "first_melnikov":
                for idx, j in enumerate(js):
                    t = thr + margin[idx]
                    excluded |= np.abs(wl + m * j) < t
                    excluded |= np.abs(wl + d[:, idx]) < t
            else:
                thr2 = 2.0 * cfg.gamma_n_star(0) * ell_bracket(ell) ** (-cfg.scaling.tau)
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
        assert total == len(g1_scan_pairs(S67, cfg)[0])
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
