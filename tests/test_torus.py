import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from dpkam import torus
from dpkam.core import BudgetExceeded, ScalingParams, TangentialSet, lam
from dpkam.polyham import flow_conjugate, z_degree
from dpkam.spectrum import EigenModel
from dpkam.twist import frequency_map
from dpkam.torus import (
    DivergenceError,
    DPEvolver,
    FSpec,
    NewtonSchedule,
    TorusEmbedding,
    TorusError,
    TorusProblem,
    TruncationGrid,
    action_angle_embed,
    evolve,
    jacobian,
    linearized_normal_operator,
    load_embedding,
    min_linear_divisor,
    newton_solve,
    nonlinear_density,
    residual,
    save_embedding,
)
from dpkam.torus import _phi_funcs
from dpkam.wbnf import dp_h2, dp_h3, index_universe, run_wbnf

S67 = TangentialSet.make([6, 7])
# a three-site packet: S+ = {6, 7, 8} needs n_x > 2 jbar1 = 16
S678, XI3 = TangentialSet.make([6, 7, 8]), (1.3, 1.5, 1.7)


def small_problem(eps=1e-2, n_x=16, n_phi=2, xi=(1.3, 1.7), cubic=True, f_coeffs=None, S=S67):
    return TorusProblem(
        S=S, grid=TruncationGrid(n_x=n_x, n_phi=n_phi), xi=xi,
        scaling=ScalingParams(epsilon=eps, a=0.1, nu=S.nu), include_cubic=cubic,
        f_spec=FSpec(f_coeffs or {}),
    )


def test_truncation_grid_validation():
    for n_phi in (0, -1):
        with pytest.raises(ValueError, match="n_phi >= 1"):
            TruncationGrid(n_x=24, n_phi=n_phi)
    # n_x must hold the quadratic images |j| <= 2 jbar1 of the sites
    for S, n_x in ((S67, 14), (S678, 16)):
        with pytest.raises(ValueError, match=f"n_x > 2 jbar1 = {n_x}"):
            torus.momentum_lattice(S, TruncationGrid(n_x=n_x, n_phi=4))
        with pytest.raises(ValueError, match="jbar1"):
            small_problem(S=S, xi=(1.5,) * S.nu, n_x=n_x)
        torus.momentum_lattice(S, TruncationGrid(n_x=n_x + 1, n_phi=4))
    g = TruncationGrid(n_x=24, n_phi=12)
    assert g.m_phi >= 4 * 12 + 2
    # the cubic keeps the grid's angle padding; u^9 needs 9N + 1 points
    assert small_problem(n_x=24, n_phi=12).at.m == g.m_phi
    assert small_problem(n_x=24, n_phi=12, f_coeffs={9: 1.0}).at.m >= 9 * 12 + 1


def test_problem_frequency_is_the_frequency_map():
    # omega is derived from (S, xi, eps): exact xi as given, a float xi and
    # eps through their decimal strings
    for S, xi in ((S67, (Fraction(13, 10), Fraction(17, 10))), (S678, (1, Fraction(3, 2), 2))):
        for eps, eps_frac in ((1e-3, Fraction(1, 1000)), (1 / 150, Fraction(1, 150))):
            want = [float(w) for w in frequency_map(S, xi, eps_frac)]
            exact = small_problem(eps=eps, S=S, xi=xi, n_x=24)
            floats = small_problem(eps=eps, S=S, xi=tuple(float(v) for v in xi), n_x=24)
            assert exact.omega.tolist() == floats.omega.tolist() == want
            assert floats.xi == exact.xi == tuple(float(v) for v in xi)
    with pytest.raises(TypeError):
        TorusProblem(S=S67, grid=TruncationGrid(16, 2), xi=(1.3, 1.7),
                     scaling=ScalingParams(1e-3, 0.1, 2), omega=np.zeros(2))


@pytest.mark.parametrize("kwargs, iterations", [
    (dict(eps=1e-3, n_x=24, n_phi=12), 3),
    (dict(eps=2e-3, n_x=24, n_phi=12), 4),
    (dict(eps=4e-3, n_x=24, n_phi=12), 5),
    (dict(S=S678, xi=XI3, eps=1e-3, n_x=24, n_phi=4), 4),
], ids=["nu2 1/1000", "nu2 1/500", "nu2 1/250", "nu3 1/1000"])
def test_newton_builds_one_grid_state_per_residual(kwargs, iterations, monkeypatch):
    # the Jacobian reads the state of the residual that accepted its iterate,
    # so n full Newton steps build n + 1 states; the iteration counts are
    # pinned on problem.ini's grid and on the three-site packet
    calls = {"GridState": 0, "residual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(torus, name, counting(name, getattr(torus, name)))
    sol = newton_solve(small_problem(**kwargs))
    assert sol.converged and sol.iterations == iterations
    assert sol.residuals[-1] < 1e-13
    assert calls == {"GridState": iterations + 1, "residual": iterations + 1}


def test_linear_trivial_residual_zero():
    prob = small_problem(cubic=False)
    prob.omega = np.array([float(lam(6)), float(lam(7))])
    emb = TorusEmbedding.trivial(S67, prob.grid)
    res = residual(prob, emb)
    assert res.sup < 1e-12


def test_trivial_residual_order():
    # trivial-embedding residual components: the theta equation is exactly
    # eps^2 A xi (the truncated frequency map), the normal equation scales
    # like eps^(2-b)
    fzs, fths = [], []
    for eps in (1e-2, 1e-3):
        prob = small_problem(eps=eps)
        res = residual(prob, TorusEmbedding.trivial(S67, prob.grid))
        fths.append(_family_sup(prob, res.f, prob.lattice.fam < 2))  # Theta rows
        fzs.append(_family_sup(prob, res.f, prob.lattice.fam == 4))  # z rows
    b = 1.05
    assert math.log10(fzs[0] / fzs[1]) == pytest.approx(2 - b, abs=0.02)
    assert math.log10(fths[0] / fths[1]) == pytest.approx(2.0, abs=1e-6)
    from dpkam.twist import twist_matrix

    td = twist_matrix(S67)
    axi = [float(td.A[i][0]) * 1.3 + float(td.A[i][1]) * 1.7 for i in range(2)]
    assert fths[0] == pytest.approx(1e-4 * max(abs(a) for a in axi), rel=1e-9)


def _family_sup(prob, f, rows):
    """The angle-grid sup of the residual rows `rows` (a mask of the
    lattice entries), each family Theta_i, y_i, z_j on its own."""
    lat = prob.lattice
    grid = prob.at.to_grid(f[rows], lat.full_fam[rows], lat.ell[rows], lat.full_fam.max() + 1)
    return float(np.abs(grid).max())


def test_radicand_error_reported():
    prob = small_problem(eps=0.5)
    emb = TorusEmbedding.trivial(S67, prob.grid)
    emb.x[prob.lattice.origin[2]] = -100.0  # huge negative average of y_1
    with pytest.raises(TorusError, match="radicand"):
        residual(prob, emb)


def _lattice_draw(prob, rng, scale):
    """A real embedding with complex lattice coefficients of size `scale`."""
    emb = TorusEmbedding.trivial(prob.S, prob.grid)
    n = len(emb.x)
    emb.x[:] = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    emb.enforce_reality()
    return emb


def _rows(prob, emb):
    """The rows of the Newton system: the residual, then the phases Theta_i(0)."""
    return np.concatenate([residual(prob, emb).f, emb.x[prob.lattice.origin[: prob.S.nu]]])


def full_grid_residual(prob, emb):
    """The oracle: the functional on the full truncation, as the torus layer
    evaluated it before it moved to T^nu.  The lattice vector is scattered
    into the families Theta_i, y_i and z_k (j = js[k]) of (2N+1)^nu angle
    coefficients; u lives on an (m_x, m, ..., m) x-by-angle grid whose m_x
    x-points resolve the top power of P, and every family is transformed in
    x and in the angles.  Returns the residual of every family at every
    angle mode, flattened, the flat indices of the lattice rows in the
    order of emb.x, and the sup-norm: the max over the families of the
    angle-grid sup."""
    lat, N, nu, m = prob.lattice, prob.grid.n_phi, prob.S.nu, prob.at.m
    n, eps, b = 2 * N + 1, prob.eps, prob.b
    sites, js = np.array(prob.S.splus), np.array(prob.js)
    shape = (2 * nu + len(js),) + (n,) * nu
    flat = np.ravel_multi_index((lat.full_fam, *(lat.ell + N).T), shape)
    x = np.zeros(math.prod(shape), dtype=complex)
    x[flat] = emb.x
    x = x.reshape(shape)
    cube = (..., *np.ix_(*[np.arange(-N, N + 1) % m] * nu))  # |l|_inf <= N on the grid
    axes = tuple(range(-nu, 0))

    def to_grid(c):
        big = np.zeros(c.shape[:-nu] + (m,) * nu, dtype=complex)
        big[cube] = c
        return scipy.fft.ifftn(big, axes=axes) * m**nu

    def to_coeffs(g):
        return scipy.fft.fftn(g, axes=axes)[cube] / m**nu

    def per_site(v):
        return np.reshape(v, (-1,) + (1,) * nu)

    mx = scipy.fft.next_fast_len(max([3, *prob.f_spec.coeffs]) * prob.grid.n_x + 1)
    phi_1d = 2.0 * math.pi * np.arange(m) / m
    phi = np.array(np.meshgrid(*[phi_1d] * nu, indexing="ij"))
    X = to_grid(x)
    Theta, Y = X[:nu].real, X[nu : 2 * nu].real
    rho = np.sqrt(per_site(prob.xi) + per_site(eps ** (2 * b - 2) * prob.lam_sites) * Y)
    e = np.exp(1j * (phi + Theta))
    ux = np.zeros((mx,) + (m,) * nu, dtype=complex)
    ux[sites % mx] = eps * rho * e
    ux[-sites % mx] = eps * rho * np.conj(e)
    ux[js % mx] = eps**b * X[2 * nu :]
    u = (scipy.fft.ifft(ux, axis=0) * mx).real
    dP = nonlinear_density(u, 1, prob.f_spec, prob.include_cubic)
    gx = scipy.fft.fft(dP, axis=0) / mx + ux
    gm, gp = gx[-sites % mx], gx[sites % mx]
    dHy = (per_site(prob.lam_sites / (2.0 * eps)) * (gm * e + gp * np.conj(e)) / rho).real
    dHth = (eps ** (1.0 - 2.0 * b) * 1j * rho * (gm * e - gp * np.conj(e))).real
    zdot = per_site(1j * prob.lam_js * eps ** (-b)) * gx[js % mx]
    ells = np.meshgrid(*[np.arange(-N, N + 1)] * nu, indexing="ij")
    iwl = 1j * sum(w * ell for w, ell in zip(prob.omega, ells))
    f = iwl * x - to_coeffs(np.concatenate([dHy, -dHth, zdot]))
    f[(slice(None, nu),) + (N,) * nu] += prob.omega
    f[(slice(nu, 2 * nu),) + (N,) * nu] += emb.zeta
    return f.ravel(), flat, float(np.abs(to_grid(f)).max())


ULP = np.finfo(float).eps
# case: (problem, bound on the lattice rows' distance, bound on the off-lattice
# rows), relative to max(|f|, |omega|), the size of the terms a row sums.
# Measured: cubic+f, f only and the 1/1000 solution at most 5.9e-16 and
# 1.3e-16, rounding (bounds 100 ulp).  cubic 1.3e-14 and 1.0e-13: its angle
# grid (m = 35) aliases the Fourier tails of e^{i Theta} and
# sqrt(xi + ... y), which hold the modes +-(7, -6) here; on a grid of
# m = 45 both fall to rounding, 2.8e-16 and 3.3e-17 (bounds 1e-13 and
# 1e-12).  The f cases pad the grid for u^9 (m = 75).  At nu = 3 the same
# holds: nu3 cubic+f (m = 20) and the nu3 solution at most 7.7e-16 and
# 1.0e-16; nu3 cubic 3.6e-12 and 2.6e-12 on m = 18, whose Theta and y hold
# +-(1, -2, 1), +-(2, -4, 2), +-(4, 0, -3) and +-(3, 2, -4), and at most
# 4.5e-16 on m = 24, 30 and 36 (bounds 1e-11).
ORACLE_CASES = {
    # as in the finite-difference test: a noisy lattice embedding at eps = 1e-2
    "cubic": (dict(n_phi=8), 1e-13, 1e-12),
    "cubic+f": (dict(n_phi=8, f_coeffs={9: 1e10}), 100 * ULP, 100 * ULP),
    "f only": (dict(n_phi=8, cubic=False, f_coeffs={9: 1e10}), 100 * ULP, 100 * ULP),
    "nu3 cubic": (dict(S=S678, xi=XI3, n_x=24, n_phi=4), 1e-11, 1e-11),
    "nu3 cubic+f": (dict(S=S678, xi=XI3, n_x=24, n_phi=2, f_coeffs={9: 1e10}), 100 * ULP,
                    100 * ULP),
    # converged tori: problem.ini's grid, and nu = 3 on 388 unknowns
    "solved 1/1000": (dict(eps=1e-3, n_x=24, n_phi=12, solved=True), 100 * ULP, 100 * ULP),
    "nu3 solved 1/1000": (dict(S=S678, xi=XI3, eps=1e-3, n_x=24, n_phi=4, solved=True),
                          100 * ULP, 100 * ULP),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_residual_matches_the_full_grid_oracle(case):
    # the T^nu residual is the full-grid functional on the lattice rows, and
    # the full-grid functional keeps a lattice embedding's residual on the
    # lattice
    kwargs, on_bound, off_bound = ORACLE_CASES[case]
    kwargs = dict(kwargs)
    solved = kwargs.pop("solved", False)
    prob = small_problem(**kwargs)
    if solved:
        emb = newton_solve(prob).emb
    else:
        rng = np.random.default_rng(3)
        emb = _lattice_draw(prob, rng, 1e-3)
        emb.zeta += 1e-4 * rng.normal(size=prob.S.nu)
    full, flat, full_sup = full_grid_residual(prob, emb)
    res = residual(prob, emb)
    scale = max(np.abs(full).max(), np.abs(prob.omega).max())
    assert np.abs(full[flat] - res.f).max() < on_bound * scale
    assert np.abs(np.delete(full, flat)).max() < off_bound * scale
    # the sup-norm keeps its meaning, each family with z_j per momentum
    # class on its own (measured 3.9e-15 for cubic, at most 3.9e-16 else;
    # the sup of the merged z function is 4.1-7.4 times larger here)
    assert abs(res.sup - full_sup) < on_bound * scale


FD_CASES = {
    # at eps = 1e-2 the f'' term of c_9 = 1e10 is comparable to the cubic
    # one; n_phi = 8 puts the angle modes +-(7, -6) of Theta and y on the
    # lattice, so tangential blocks couple distinct shifts
    "cubic": dict(n_phi=8),
    "cubic+f": dict(n_phi=8, f_coeffs={9: 1e10}),
    "f only": dict(n_phi=8, cubic=False, f_coeffs={9: 1e10}),
    # nu = 3 (measured 1.0e-9 and 4.4e-10): the tangential blocks hold
    # l = +-(1, -2, 1) at n_phi = 2, and +-(2, -4, 2), +-(4, 0, -3) and
    # +-(3, 2, -4) besides at n_phi = 4
    "nu3 n_phi2": dict(S=S678, xi=XI3, n_x=24, n_phi=2),
    "nu3 n_phi4": dict(S=S678, xi=XI3, n_x=24, n_phi=4),
}


@pytest.mark.parametrize("case", list(FD_CASES))
def test_jacobian_matches_finite_differences(case):
    rng = np.random.default_rng(3)
    prob = small_problem(**FD_CASES[case])
    nu = prob.S.nu
    emb = _lattice_draw(prob, rng, 1e-3)
    emb.zeta += 1e-4 * rng.normal(size=nu)
    J = jacobian(prob, residual(prob, emb).state)
    assert J.shape == (len(emb.x) + nu,) * 2

    h = 1e-6
    for _ in range(3):
        d = _lattice_draw(prob, rng, 1.0)
        d.zeta = rng.normal(size=nu)
        vec = np.concatenate([d.x, d.zeta])
        ep, em = emb.copy(), emb.copy()
        ep.x += h * d.x
        em.x -= h * d.x
        ep.zeta = ep.zeta + h * d.zeta
        em.zeta = em.zeta - h * d.zeta
        fd = (_rows(prob, ep) - _rows(prob, em)) / (2 * h)
        an = J @ vec
        scale = max(np.abs(fd).max(), 1e-30)
        assert np.abs(fd - an).max() / scale < 1e-8


def test_newton_schedule_values():
    for bad in (dict(max_iter=0), dict(tol=0.0), dict(tol=-1.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            NewtonSchedule(**bad)


def test_newton_solve_small():
    # nu = 2, and nu = 3 on 388 lattice unknowns (4 iterations measured)
    for kwargs in (dict(n_x=16, n_phi=6), dict(S=S678, xi=XI3, n_x=24, n_phi=4)):
        prob = small_problem(eps=1e-3, **kwargs)
        sol = newton_solve(prob)
        assert sol.converged
        assert sol.residuals[-1] < 1e-10
        assert np.abs(sol.emb.zeta).max() < 1e-9
        # phases pinned
        assert np.abs(sol.emb.x[prob.lattice.origin[: prob.S.nu]]).max() < 1e-12


def test_newton_solves_a_problem_with_f_on_the_lattice():
    # the angle grid pads for the top power of f, so no aliased image of
    # u^8 in P' lands on a lattice row
    prob = small_problem(eps=1e-3, n_x=16, n_phi=6, f_coeffs={9: 1e9})
    assert prob.at.m >= 9 * 6 + 1
    sol = newton_solve(prob)
    assert sol.converged and sol.residuals[-1] < 1e-10


def test_zero_nonlinearity_converges_in_one_step():
    prob = small_problem(eps=1e-3, n_x=16, n_phi=2, cubic=False)
    prob.omega = np.array([float(lam(6)), float(lam(7))])
    start = _lattice_draw(prob, np.random.default_rng(0), 1e-4)
    start.x[prob.lattice.fam < 2 * S67.nu] = 0  # z alone
    sol = newton_solve(prob, start=start, schedule=NewtonSchedule(tol=1e-12))
    assert sol.converged and sol.iterations <= 1


def test_dense_fallback_solves_each_system_once(monkeypatch):
    # with sparse LU failing, each Newton step solves its system once by
    # least squares, also when that step does not lower the residual
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    calls = {"lstsq": 0, "jacobian": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(torus.spla, "splu", singular)
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(torus, "jacobian", counting("jacobian", torus.jacobian))
    with pytest.raises(DivergenceError, match="linear divisor"):
        newton_solve(small_problem(f_coeffs={9: 0.5}))
    assert calls["lstsq"] == calls["jacobian"] > 0


def test_residual_phase_shift_invariance():
    # the residual sup-norm of a converged torus is unchanged when the torus
    # is shifted phi -> phi + const (the solution is a family)
    prob = small_problem(eps=1e-3, n_x=16, n_phi=6)
    sol = newton_solve(prob)
    emb = sol.emb
    shift = (0.37, -1.21)
    shifted = emb.copy()
    shifted.x *= np.exp(1j * prob.lattice.ell @ shift)
    # theta(phi) = phi + Theta(phi): the reparametrized torus carries the
    # shift as a constant angle offset
    shifted.x[prob.lattice.origin[:2]] += shift
    res = residual(prob, shifted)
    assert res.sup < 10 * max(sol.residuals[-1], 1e-13) + 1e-12


def test_action_angle_embed_norm():
    prob = small_problem(eps=1e-3)
    emb = TorusEmbedding.trivial(S67, prob.grid)
    u = action_angle_embed(prob, emb, (0.3, 0.4))
    # |u|^2 summed = eps^2 * 2 * sum(xi)
    total = sum(abs(v) ** 2 for v in u.values())
    assert total == pytest.approx(1e-6 * 2 * (1.3 + 1.7), rel=1e-12)


def test_linearized_operator_eps0_spectrum():
    for kwargs in (dict(n_x=16), dict(S=S678, xi=XI3, n_x=24)):
        prob = small_problem(eps=1e-3, n_phi=4, cubic=False, **kwargs)
        emb = TorusEmbedding.trivial(prob.S, prob.grid)
        # with the cubic off the operator is exactly omega.dphi - J
        op = linearized_normal_operator(prob, emb, ell_cut=2, phib_order=0)
        expected = set()
        for ell in itertools.product(range(-2, 3), repeat=prob.S.nu):
            wl = sum(w * l for w, l in zip(prob.omega, ell))
            expected.update(round(wl - float(lam(j)), 9) for j in prob.js)
        got = {round(v.imag, 9) for v in op.eigvals}
        assert got == expected
        assert np.abs(op.eigvals.real).max() < 1e-12


def test_linearized_operator_reality():
    # nu = 2 at ell_cut 3, and nu = 3 at ell_cut 2 (max |Re eig| measured
    # 7.1e-14 there)
    for kwargs, ell_cut in ((dict(n_x=16), 3), (dict(S=S678, xi=XI3, n_x=24), 2)):
        prob = small_problem(eps=2e-3, n_phi=4, **kwargs)
        sol = newton_solve(prob)
        op = linearized_normal_operator(prob, sol.emb, ell_cut=ell_cut, phib_order=2)
        ims = np.sort(op.eigvals.imag)
        assert np.abs(op.eigvals.real).max() < 1e-10
        # spectrum closed under conjugation: imaginary parts symmetric about 0
        assert np.abs(ims + ims[::-1]).max() < 1e-7


def test_correction_pieces_are_built_once_across_eps(monkeypatch):
    # the pieces depend on neither the embedding nor eps: three operators at
    # three eps run the normal form once
    calls = []
    run_wbnf = torus.run_wbnf

    def counting(*args, **kwargs):
        calls.append(args)
        return run_wbnf(*args, **kwargs)

    monkeypatch.setattr(torus, "run_wbnf", counting)
    torus._correction_pieces.cache_clear()
    for eps in (1e-3, 2e-3, 4e-3):
        prob = small_problem(eps=eps, n_x=16, n_phi=2)
        emb = TorusEmbedding.trivial(S67, prob.grid)
        linearized_normal_operator(prob, emb, ell_cut=1, phib_order=2)
    assert len(calls) == 1
    pieces = torus._correction_pieces(S67, 16)
    assert isinstance(pieces, tuple) and pieces and len(calls) == 1


def test_correction_pieces_filter_before_subtracting():
    # the dz = 2 filter commutes with the exact subtraction of H^(2) and H^(3)
    S, n_x = S67, 16
    uni = index_universe(n_x + 2 * S.jbar1 + 2)
    base = [dp_h2(uni), dp_h3(uni)]
    F3 = run_wbnf(S, 1, universe_max=2 * S.jbar1).generators[3]
    composed = flow_conjugate(base, F3, 4, max_z_keep=lambda deg: 6 - deg, universe=uni, S=S)
    want = []
    for deg, poly in sorted(composed.items()):
        corr = (poly - base[deg - 2] if deg in (2, 3) else poly).map_filter(
            lambda m: z_degree(m, S) == 2)
        if not corr.is_zero():
            want.append(corr)
    got = torus._correction_pieces(S, n_x)
    assert len(got) == len(want) == 1  # degree 4; the dz = 2 parts of degree 2 and 3 cancel
    for g, w in zip(got, want):
        assert (g.degree, g.momentum) == (w.degree, w.momentum)
        assert list(g.terms.items()) == list(w.terms.items())


def _every_class_operator(prob, emb, ell_cut, phib_order):
    """The operator as it was before the classes -p were mirrored from p,
    kept as the oracle: one eigensolve per momentum class, the match weight
    |V[dom, col]| / |V[:, col]| per column."""
    S, js, m = prob.S, np.array(prob.js), prob.at.m
    modes = torus.angle_modes(ell_cut, S.nu)
    ell, kb = np.repeat(modes, len(js), axis=0), np.tile(np.arange(len(js)), len(modes))
    momentum = js[kb] - torus.ell_dot(ell, S.splus)
    order = np.argsort(momentum, kind="stable")
    _, first = np.unique(momentum[order], return_index=True)
    vhat = prob.at.fft(torus.GridState(prob, emb).V)
    kpos = {j: k for k, j in enumerate(prob.js)}
    sqrt_xi = {s: math.sqrt(prob.xi[i]) for i, s in enumerate(S.splus)}
    sqrt_xi.update({-s: sqrt_xi[s] for s in S.splus})
    acc = {}
    for poly in torus._correction_pieces(S, prob.grid.n_x) if phib_order >= 2 else ():
        for mono, cval in poly.terms.items():
            zslots = [v for v in mono if S.in_sc(v)]
            vslots = [v for v in mono if S.in_s(v)]
            if len(zslots) != 2:
                continue
            coeff = complex(0.0, float(cval)) if poly.imaginary else complex(float(cval), 0.0)
            amp = coeff * prob.eps ** len(vslots) * math.prod(sqrt_xi[v] for v in vslots)
            dl = tuple(sum(S.angle_vector(v)[i] for v in vslots) for i in range(S.nu))
            a_z, b_z = zslots
            mult = 2 if a_z == b_z else 1
            for out_slot, other in ([(a_z, b_z)] if a_z == b_z else [(a_z, b_z), (b_z, a_z)]):
                if -out_slot in kpos and other in kpos:
                    cell = (kpos[-out_slot], kpos[other], dl)
                    acc[cell] = acc.get(cell, 0.0) + amp * mult
    wd = max((max(map(abs, cell[2])) for cell in acc), default=0)
    amps = np.zeros((len(js), len(js)) + (2 * wd + 1,) * S.nu, dtype=complex)
    for (k, k2, dl), amp in acc.items():
        amps[(k, k2, *np.add(dl, wd))] = amp
    eigvals, matched, quality = [], {}, {}
    for idxs in np.split(order, first[1:]):
        a, k = ell[idxs], kb[idxs]
        nb = len(idxs)
        ilj = (1j * prob.lam_js[k])[:, None]
        d = np.moveaxis(a[:, None] - a, -1, 0)
        M = np.zeros((nb, nb), dtype=complex)
        M[np.diag_indices(nb)] += 1j * torus.ell_dot(a, prob.omega) - ilj[:, 0]
        v = vhat[tuple(d % m)]
        M += np.where(np.abs(v) > 1e-15, ilj * v, 0)
        near = (np.abs(d) <= wd).all(axis=0)
        M -= np.where(near, ilj * amps[(k[:, None], k, *(np.clip(d, -wd, wd) + wd))], 0)
        local = list(zip(map(tuple, a.tolist()), js[k].tolist()))
        w, V = np.linalg.eig(M)
        eigvals.extend(w.tolist())
        dom = np.argmax(np.abs(V), axis=0)
        for col in range(nb):
            mode = local[dom[col]]
            weight = abs(V[dom[col], col]) / np.linalg.norm(V[:, col])
            prev = quality.get(mode)
            if prev is None or weight > prev:
                matched[mode] = w[col]
                quality[mode] = float(weight)
    return np.array(sorted(eigvals, key=lambda v: v.imag)), matched, quality


def _perturbed(emb, scale=1e-3, seed=4):
    """A real but not reversible embedding near `emb`."""
    rng = np.random.default_rng(seed)
    out = emb.copy()
    out.x += scale * (rng.normal(size=len(out.x)) + 1j * rng.normal(size=len(out.x)))
    out.enforce_reality()
    return out


OPERATOR_CASES = {
    # problem.ini's torus at 1/1000 with the bench's ell_cut
    "solved": (dict(eps=1e-3, n_x=24, n_phi=12), 6, False),
    "perturbed": (dict(eps=2e-3, n_x=16, n_phi=4), 3, True),
    "nu3": (dict(S=S678, xi=XI3, eps=2e-3, n_x=24, n_phi=4), 2, False),
}


@pytest.mark.parametrize("case", list(OPERATOR_CASES))
def test_mirrored_classes_match_the_every_class_oracle(case):
    kwargs, ell_cut, perturb = OPERATOR_CASES[case]
    prob = small_problem(**kwargs)
    emb = newton_solve(prob).emb
    if perturb:
        emb = _perturbed(emb)
    op = linearized_normal_operator(prob, emb, ell_cut=ell_cut, phib_order=2)
    eigvals, matched, quality = _every_class_operator(prob, emb, ell_cut, 2)
    key = lambda v: (round(v.imag, 9), round(v.real, 9))
    assert np.abs(np.array(sorted(op.eigvals, key=key)) - sorted(eigvals, key=key)).max() < 1e-11
    assert op.matched.keys() == matched.keys() == op.match_quality.keys() == quality.keys()
    assert max(abs(op.matched[mode] - val) for mode, val in matched.items()) < 1e-11
    assert max(abs(op.match_quality[mode] - q) for mode, q in quality.items()) < 1e-9
    # a mode and its mirror sit in the classes p and -p; class 0 is solved
    # as it is, so its pairs are conjugate only to rounding
    sbar = np.array(prob.S.splus)
    for (ell, j), val in op.matched.items():
        mirror = op.matched[(tuple(-x for x in ell), -j)]
        if j != int(np.dot(ell, sbar)):
            assert mirror == np.conj(val)
        else:
            assert abs(mirror - np.conj(val)) < 1e-11


def test_operator_solves_one_block_per_class_p_at_least_0(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counting(M):
        calls.append(M.shape)
        return eig(M)

    # problem.ini's grid at ell_cut 6: 7 436 modes in 205 classes -102 ... 102
    prob = small_problem(eps=1e-3, n_x=24, n_phi=12)
    monkeypatch.setattr(np.linalg, "eig", counting)
    op = linearized_normal_operator(prob, TorusEmbedding.trivial(S67, prob.grid), ell_cut=6,
                                    phib_order=0)
    assert len(calls) == 103
    assert len(op.eigvals) == 7436 == 2 * sum(n for n, _ in calls) - calls[0][0]


@pytest.mark.parametrize("kwargs", [
    dict(eps=1e-3, n_x=24, n_phi=12),
    dict(eps=4e-3, n_x=24, n_phi=12),
    dict(S=S678, xi=XI3, eps=1e-3, n_x=24, n_phi=4),
], ids=["nu2 1/1000", "nu2 1/250", "nu3 1/1000"])
def test_newton_iterates_stay_reversible(kwargs, monkeypatch):
    # the premise of REAL_BLOCK_TOL: every accepted Newton iterate is
    # reversible, Theta_hat imaginary and y_hat, z_hat real.  The part that
    # breaks it, relative to max |x|, measured at most 1.3e-13 at nu = 2 and
    # 4.0e-13 at nu = 3; the bound 1e-11 leaves a factor 25 for round-off
    prob = small_problem(**kwargs)
    states, accepted = {}, []
    residual_, jacobian_ = torus.residual, torus.jacobian

    def recording_residual(prob, emb):
        res = residual_(prob, emb)
        states[id(res.state)] = emb.copy()
        return res

    def recording_jacobian(prob, gs):
        accepted.append(states[id(gs)])  # Newton builds J at each accepted iterate
        return jacobian_(prob, gs)

    monkeypatch.setattr(torus, "residual", recording_residual)
    monkeypatch.setattr(torus, "jacobian", recording_jacobian)
    sol = newton_solve(prob)
    assert sol.converged and len(accepted) == sol.iterations
    for emb in [*accepted, sol.emb]:
        off = np.where(emb.lattice.fam < prob.S.nu, emb.x.real, emb.x.imag)
        assert np.abs(off).max() <= 1e-11 * np.abs(emb.x).max()


@pytest.mark.parametrize("case", list(OPERATOR_CASES))
def test_reversible_blocks_are_solved_in_real_arithmetic(case, monkeypatch):
    kwargs, ell_cut, perturb = OPERATOR_CASES[case]
    prob = small_problem(**kwargs)
    emb = newton_solve(prob).emb
    if perturb:
        emb = _perturbed(emb)
    solves = []
    eig = np.linalg.eig

    def recording(M):
        w, V = eig(M)
        solves.append((M.dtype, len(M), w))
        return w, V

    monkeypatch.setattr(np.linalg, "eig", recording)
    op = linearized_normal_operator(prob, emb, ell_cut=ell_cut, phib_order=2)
    if perturb:
        # real but not reversible: every block of more than one row keeps
        # its real part; the 1 x 1 blocks left are exactly i R
        assert all(dtype == np.complex128 for dtype, n, _ in solves if n > 1)
        assert op.dropped_real == 0.0
        return
    assert all(dtype == np.float64 for dtype, _, _ in solves)
    assert 0.0 < op.dropped_real <= torus.REAL_BLOCK_TOL
    # each class spectrum i R is exactly closed under lambda -> -conj(lambda)
    key = lambda v: (v.imag, v.real)
    for _, _, w in solves:
        assert sorted(1j * w, key=key) == sorted(-np.conj(1j * w), key=key)


def test_real_blocks_see_the_nu3_collision():
    # at 1/250 the nu = 3 spectrum leaves the axis (1.2e-3): R has a complex
    # pair there, and the real blocks read the complex oracle's max |Re eig|
    prob = small_problem(S=S678, xi=XI3, eps=4e-3, n_x=24, n_phi=4)
    emb = newton_solve(prob).emb
    op = linearized_normal_operator(prob, emb, ell_cut=2, phib_order=2)
    eigvals, _, _ = _every_class_operator(prob, emb, 2, 2)
    assert op.dropped_real > 0.0
    re_max = np.abs(op.eigvals.real).max()
    assert re_max > 1e-4
    assert abs(re_max - np.abs(eigvals.real).max()) < 1e-12


def test_nu3_operator_values():
    # matched eigenvalues of the nu = 3 torus at 2/1000, recorded before the
    # classes -p were mirrored; (1, -1, 0), (-1, 0, 1), (0, 1, -1) and
    # (2, 0, -1) move all three angles
    prob = small_problem(eps=2e-3, n_phi=4, S=S678, xi=XI3, n_x=24)
    op = linearized_normal_operator(prob, newton_solve(prob).emb, ell_cut=2, phib_order=2)
    pinned = {
        ((0, 0, 0), 1): -2.5000468199266916,
        ((0, 0, 0), 3): -3.9004327670179944,
        ((0, 0, 0), 10): -10.302317154943886,
        ((0, 0, 0), 11): -11.276451779517561,
        ((0, 0, 0), -5): 5.578272958452578,
        ((1, -1, 0), 9): -10.267778550278225,
        ((-1, 0, 1), -13): 15.120557860161309,
        ((0, 1, -1), 4): -5.6564354563759025,
        ((2, 0, -1), -2): 7.804772716269312,
    }
    for mode, im in pinned.items():
        assert abs(op.matched[mode] - 1j * im) < 1e-10


def test_min_linear_divisor_positive():
    prob = small_problem(eps=1e-3, n_x=16, n_phi=4)
    div = min_linear_divisor(prob)
    d, wit = div.trivial, div.witness
    assert d > 1e-4
    assert len(wit) == 2
    # the first minimum of the loop over l1, l2, j with the exact lambda,
    # over the lattice pairs j = l.sbar that the Newton system holds
    best, first = math.inf, ()
    for l1 in range(-4, 5):
        for l2 in range(-4, 5):
            wl = prob.omega[0] * l1 + prob.omega[1] * l2
            for j in prob.js:
                if 6 * l1 + 7 * l2 != j:
                    continue
                v = abs(wl - float(lam(j)))
                if v < best:
                    best, first = v, ((l1, l2), j)
    assert (d, wit) == (best, first)


def test_divergence_names_the_reduced_divisor(monkeypatch):
    # a cold solve at 1/150 on problem.ini's grid fails; the trivial divisor
    # 4.2e-4 at ((-1, 2), 8) crosses 0 near 1/152, the reduced one there does
    # not.  The solve raises in the first iteration whose steps all fail, the
    # third, as the next one would build the same Jacobian
    prob = small_problem(eps=1 / 150, n_x=24, n_phi=12)
    div = min_linear_divisor(prob)
    jacobians, jacobian_ = [], torus.jacobian

    def counting_jacobian(prob, gs):
        jacobians.append(gs)
        return jacobian_(prob, gs)

    monkeypatch.setattr(torus, "jacobian", counting_jacobian)
    with pytest.raises(DivergenceError) as err:
        newton_solve(prob)
    assert len(jacobians) == 3
    msg = str(err.value)
    assert msg.startswith("residual stalled")
    assert f"{div.trivial:.3e} at {div.witness}" in msg
    assert f"omega.l - d_j = {div.reduced_at_witness:.3e}" in msg
    assert f"|omega.l - d_j| = {div.reduced:.3e} at {div.reduced_witness}" in msg
    assert div.witness == ((-1, 2), 8) and div.trivial < 1e-3
    assert abs(div.reduced_at_witness) > 1e-2
    # the smallest reduced divisor over the lattice, by a loop over the z entries
    model = EigenModel(S67, tuple(Fraction(str(x)) for x in prob.xi), prob.scaling)
    best, first = math.inf, ()
    for ell in itertools.product(range(-12, 13), repeat=2):
        j = 6 * ell[0] + 7 * ell[1]
        if j in prob.js:
            v = abs(float(np.dot(prob.omega, ell)) - model.row(j)[-1])
            if v < best:
                best, first = v, (ell, j)
    assert (div.reduced, div.reduced_witness) == (pytest.approx(best, abs=1e-15), first)


def test_plane_wave_rotation():
    res = evolve({2: 0.3, -2: 0.3}, T=3.0, n_modes=8, cubic=False, dt=0.01)
    final = res.states[-1]
    assert abs(final[2] - 0.3 * np.exp(1j * float(lam(2)) * 3.0)) < 1e-12
    assert res.h_drift < 1e-12 and res.k1_drift < 1e-12


def test_evolve_conservation_small():
    rng = np.random.default_rng(1)
    u0 = {}
    for j in range(1, 6):
        c = 1e-2 * (rng.normal() + 1j * rng.normal())
        u0[j] = c
        u0[-j] = np.conj(c)
    res = evolve(u0, T=10.0, n_modes=32, rtol=1e-10)
    assert res.h_drift < 1e-8
    assert res.k1_drift < 1e-8


def test_evolve_blowup_guard():
    u0 = {1: 5.0, -1: 5.0}  # huge amplitude
    with pytest.raises(DivergenceError, match="blow-up detected"):
        evolve(u0, T=50.0, n_modes=32, blowup=10.0)


def test_evolve_rejects_asymmetric_data():
    for u0 in ({2: 0.3}, {2: 0.3, -2: 0.3j}, {0: 0.1j}):
        with pytest.raises(ValueError):
            evolve(u0, T=0.01, n_modes=8)
    # asymmetry at rounding level is accepted
    evolve({2: 0.3, -2: 0.3 + 1e-15}, T=0.01, n_modes=8)


def test_evolve_rejects_lost_modes_and_no_time():
    # a nonzero mode the evolver cannot hold is an error, not a silent drop
    u0 = {6: 0.01, -6: 0.01, 7: 0.02j, -7: -0.02j}
    with pytest.raises(ValueError, match=r"\|j\| = \[6, 7\] above n_modes = 4"):
        evolve(u0, T=1.0, n_modes=4)
    evolve({**u0, 90: 0.0, -90: 0.0}, T=0.01, n_modes=7)  # zero modes above n_modes are fine
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="T > 0"):
            evolve(u0, T=T, n_modes=8)


class ComplexEvolver:
    """The full-spectrum complex evolver that the half-spectrum one replaced,
    kept as the oracle: state u_j at j % mx for |j| <= n_modes."""

    def __init__(self, n_modes, f_spec, cubic):
        self.f_spec, self.cubic = f_spec, cubic
        self.mx = DPEvolver(n_modes, f_spec, cubic).mx
        k = np.fft.fftfreq(self.mx, d=1.0 / self.mx).astype(int)
        self.lam = k * (4.0 + k * k) / (1.0 + k * k)
        self.mask = np.abs(k) <= n_modes
        self.L = 1j * self.lam

    def nonlinear(self, uhat):
        if not self.cubic and not self.f_spec.coeffs:
            return np.zeros_like(uhat)
        u = scipy.fft.ifft(uhat) * self.mx
        w = np.zeros_like(u.real)
        if self.cubic:
            w = w - 0.5 * u.real**2
        for k, c in self.f_spec.coeffs.items():
            w = w + (k * c) * u.real ** (k - 1)
        what = scipy.fft.fft(w.astype(complex)) / self.mx
        return 1j * self.lam * what * self.mask

    def step_etdrk4(self, uhat, dt):
        z = dt * self.L
        E, E2, (Q, f1, f2, f3) = np.exp(z), np.exp(z / 2), _phi_funcs(z)
        Nu = self.nonlinear(uhat)
        a = E2 * uhat + dt * Q * Nu
        Na = self.nonlinear(a)
        bb = E2 * uhat + dt * Q * Na
        Nb = self.nonlinear(bb)
        c = E2 * a + dt * Q * (2 * Nb - Nu)
        Nc = self.nonlinear(c)
        out = E * uhat + dt * (f1 * Nu + 2 * f2 * (Na + Nb) + f3 * Nc)
        return out * self.mask


def _torus_initial_data():
    prob = small_problem(eps=1e-3, n_x=16, n_phi=2)
    return action_angle_embed(prob, newton_solve(prob).emb, (0.0, 0.0))


def _random_real_data(n=12, seed=3):
    rng = np.random.default_rng(seed)
    u0 = {0: 0.1 * rng.normal()}
    for j in range(1, n + 1):
        u0[j] = 0.1 * (rng.normal() + 1j * rng.normal()) / j
        u0[-j] = np.conj(u0[j])
    return u0


@pytest.mark.parametrize("cubic", [True, False], ids=["cubic", "no cubic"])
@pytest.mark.parametrize("data", ["torus", "random f9"])
def test_real_step_matches_complex_oracle(data, cubic):
    u0, f = (_torus_initial_data(), {}) if data == "torus" else (_random_real_data(), {9: 0.5})
    n_modes, dt = 64, 0.01
    ev, oracle = DPEvolver(n_modes, FSpec(f), cubic), ComplexEvolver(n_modes, FSpec(f), cubic)
    full = np.zeros(oracle.mx, dtype=complex)
    for j, c in u0.items():
        full[j % oracle.mx] = c
    half = full[: len(ev.k)].copy()
    want = oracle.step_etdrk4(full, dt)
    got = ev.step_etdrk4(half, dt, ev.coefs(dt))
    assert np.abs(got - want[: len(ev.k)]).max() <= 1e-14 * np.abs(want).max()
    # the step moved the state by far more than the tolerance
    assert np.abs(want - full).max() > 1e-6 * np.abs(want).max()


def test_evolver_steps_a_stack_of_states():
    ev = DPEvolver(32, FSpec({9: 0.5}))
    rows = []
    for seed in (1, 2):
        u = np.zeros(len(ev.k), dtype=complex)
        for j, c in _random_real_data(seed=seed).items():
            if j >= 0:
                u[j] = c
        rows.append(u)
    coefs = ev.coefs(0.05)
    stacked = ev.step_etdrk4(np.stack(rows), 0.05, coefs)
    for row, u in zip(stacked, rows):
        assert np.array_equal(row, ev.step_etdrk4(u, 0.05, coefs))


def test_adaptive_step_shares_one_nonlinear_evaluation(monkeypatch):
    calls = {"step_etdrk4": 0, "nonlinear": 0}
    for name in calls:
        def counting(self, *args, _orig=getattr(DPEvolver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(DPEvolver, name, counting)
    # T = dt and a tolerance every step meets: one accepted step, one stacked
    # step of dt and dt/2 on a shared N(u) (1 + 3) and the second half step (4)
    res = evolve({1: 0.1, -1: 0.1}, T=0.01, n_modes=8, dt=0.01, rtol=1.0)
    assert len(res.times) == 2
    assert calls == {"step_etdrk4": 2, "nonlinear": 8}


def _step_doubling_oracle(u0, T, n_modes, dt=None, rtol=1e-10, f_spec=None, cubic=True,
                          blowup=1e6, controller="order 4"):
    """The evolve loop that the stacked step replaced, kept as the oracle:
    one full and two half ETDRK4 steps of one state each, the full and the
    first half step sharing N(u), on the coefficients (E, E2, Q, f1, f2, f3).
    Its step control is evolve's ("order 4") or, with controller "x1.5", the
    one evolve had before: halve dt on a rejection, and grow it by 1.5 only
    when err < rtol/64.  Also returns the accepted step lengths."""
    ev = DPEvolver(n_modes, f_spec, cubic)
    cache = {}

    def step(uhat, dt, Nu=None):
        if dt not in cache:
            z = dt * ev.L
            cache[dt] = (np.exp(z), np.exp(z / 2), *_phi_funcs(z))
        E, E2, Q, f1, f2, f3 = cache[dt]
        if Nu is None:
            Nu = ev.nonlinear(uhat)
        a = E2 * uhat + dt * Q * Nu
        Na = ev.nonlinear(a)
        bb = E2 * uhat + dt * Q * Na
        Nb = ev.nonlinear(bb)
        c = E2 * a + dt * Q * (2 * Nb - Nu)
        Nc = ev.nonlinear(c)
        out = E * uhat + dt * (f1 * Nu + 2 * f2 * (Na + Nb) + f3 * Nc)
        return out * ev.mask

    uhat = np.zeros(len(ev.k), dtype=complex)
    for j, c in u0.items():
        if 0 <= j <= n_modes:
            uhat[j] = c
    if dt is None:
        dt = min(0.01, T / 100.0)
    t = 0.0
    times, hs, k1s = [0.0], [ev.energy(uhat)], [ev.momentum(uhat)]
    sups, states = [float(np.abs(ev.field(uhat)).max())], [uhat.copy()]
    report_every = max(T / torus.REPORT_POINTS, dt)
    next_report = report_every
    rejections = 0
    steps = []
    scale = max(sups[0], 1e-30)
    while t < T - 1e-14:
        h = dt = min(dt, T - t)
        Nu = ev.nonlinear(uhat)
        big = step(uhat, dt, Nu)
        half = step(step(uhat, dt / 2, Nu), dt / 2)
        err = float(np.abs(big - half).max()) / scale
        factor = min(2.0, max(0.5, 0.9 * (rtol / max(err, 1e-300)) ** 0.2))
        if err > rtol:
            rejections += 1
            assert rejections <= 12
            dt *= factor if controller == "order 4" else 0.5
            continue
        rejections = 0
        uhat = half
        if controller == "x1.5":
            if err < rtol / 64 and dt < T / 16:
                dt *= 1.5
        elif factor < 0.95:
            dt *= factor
        elif factor >= 1.2 and dt < T / 16:
            dt = min(dt * factor, T / 16)
        t += h
        steps.append(h)
        sup = float(np.abs(ev.field(uhat)).max())
        assert math.isfinite(sup) and sup <= blowup
        if t >= next_report - 1e-12 or t >= T - 1e-14:
            times.append(t)
            hs.append(ev.energy(uhat))
            k1s.append(ev.momentum(uhat))
            sups.append(sup)
            states.append(uhat.copy())
            next_report += report_every
    h_drift = max(abs(h - hs[0]) for h in hs) / max(abs(hs[0]), 1e-300)
    k1_drift = max(abs(k - k1s[0]) for k in k1s) / max(abs(k1s[0]), 1e-300)
    return times, hs, k1s, sups, states, h_drift, k1_drift, steps


EVOLVE_CASES = {
    "torus": lambda: dict(u0=_torus_initial_data(), T=1.0, n_modes=32),
    # dt 0.5 is rejected down to about 0.05, then shrinks and grows again,
    # with 7 rejections in all
    "rejections": lambda: dict(u0=_random_real_data(n=8, seed=5), T=2.0, n_modes=16, dt=0.5,
                               rtol=1e-6, f_spec=FSpec({9: 1.0})),
    "f9 no cubic": lambda: dict(u0=_random_real_data(n=8), T=0.5, n_modes=16,
                                f_spec=FSpec({9: 0.5}), cubic=False),
}


@pytest.mark.parametrize("case", list(EVOLVE_CASES))
def test_stacked_step_doubling_matches_the_oracle(case):
    kwargs = EVOLVE_CASES[case]()
    res = evolve(**kwargs)
    times, hs, k1s, sups, states, h_drift, k1_drift, steps = _step_doubling_oracle(**kwargs)
    for got, want in ((res.times, times), (res.h_values, hs), (res.k1_values, k1s),
                      (res.sup_values, sups), (res.states, states)):
        assert np.array_equal(got, want)
    assert (res.h_drift, res.k1_drift) == (h_drift, k1_drift)
    assert (res.accepted, res.dt_min, res.dt_max) == (len(steps), min(steps), max(steps))
    if case == "rejections":
        assert res.rejected == 7 and res.dt_min < res.dt_max


@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
@pytest.mark.parametrize("case", ["torus", "rejections", "f9 no cubic"])
def test_order4_control_agrees_with_the_x15_control(case, rtol):
    # each accepted step of either control keeps its error estimate below
    # rtol times the initial sup norm, so the two runs end within the sum of
    # those bounds over the steps of both
    kwargs = dict(EVOLVE_CASES[case](), rtol=rtol)
    res = evolve(**kwargs)
    times, _, _, sups, states, h_drift, k1_drift, steps = _step_doubling_oracle(
        **kwargs, controller="x1.5")
    assert res.times[-1] == pytest.approx(kwargs["T"]) == times[-1]
    n = res.accepted + len(steps)
    assert np.abs(res.states[-1] - states[-1]).max() <= n * rtol * sups[0]
    assert abs(res.h_drift - h_drift) <= n * rtol and abs(res.k1_drift - k1_drift) <= n * rtol
    # the order-4 control takes fewer steps than the x1.5 one on each case
    assert res.accepted < len(steps)


def test_evolve_step_accounting():
    u0 = {j: 0.5 * c for j, c in _random_real_data(n=8, seed=5).items()}
    res = evolve(u0, T=2.0, n_modes=16, dt=0.5, rtol=1e-8, f_spec=FSpec({9: 1.0}), cubic=False)
    # dt 0.5 is halved three times and rejected once more at 1/16, grows once
    # to 0.0595, is rejected there, shrinks as the data steepen and ends on
    # the remainder 0.01006
    assert (res.accepted, res.rejected) == (45, 5)
    assert (res.dt_min, res.dt_max) == pytest.approx((0.010062535374596, 0.059511837355164),
                                                     rel=1e-9)
    # ETDRK4 is exact on a linear flow: dt doubles from 0.01 up to the cap T/16
    linear = evolve({2: 0.3, -2: 0.3}, T=3.0, n_modes=8, cubic=False, dt=0.01)
    assert (linear.accepted, linear.rejected, linear.dt_max) == (20, 0, 3.0 / 16)


def test_evolve_budget_counts_attempted_steps():
    # the run of test_evolve_step_accounting attempts 45 + 5 = 50 steps
    u0 = {j: 0.5 * c for j, c in _random_real_data(n=8, seed=5).items()}
    kwargs = dict(T=2.0, n_modes=16, dt=0.5, rtol=1e-8, f_spec=FSpec({9: 1.0}), cubic=False)
    assert evolve(u0, budget=50, **kwargs).accepted == 45
    with pytest.raises(BudgetExceeded, match=r"44 accepted and 5 rejected steps reach the "
                                             r"budget 49 at t = 1\.98\d* of T = 2\.0"):
        evolve(u0, budget=49, **kwargs)


def test_dt_grows_back_after_a_forced_rejection(monkeypatch):
    # spoil the full step of the tenth attempt: its error estimate is huge, so
    # dt is halved, and the next accepted step must take dt back up
    tried = []
    orig = DPEvolver.step_etdrk4

    def spoiling(self, uhat, dt, coefs, Nu=None):
        out = orig(self, uhat, dt, coefs, Nu)
        if np.ndim(dt) == 2:  # the stacked full and first half step
            tried.append(float(dt[0, 0]))
            if len(tried) == 10:
                out = out.copy()
                out[0] += 1.0
        return out

    monkeypatch.setattr(DPEvolver, "step_etdrk4", spoiling)
    res = evolve(_torus_initial_data(), T=1.0, n_modes=32)
    assert res.rejected == 1
    assert tried[10] == tried[9] / 2
    assert tried[11] >= 0.99 * tried[9]


def test_evolve_computes_coefficients_once_per_step_length(monkeypatch):
    # one _phi_funcs call, on the rows of dt and dt/2, each time dt moves:
    # from the solved torus the run takes three step lengths (0.01, the grown
    # step and the remainder), so a change to the keep band or the step
    # factor shows
    calls = []

    def counting(z):
        calls.append(z)
        return _phi_funcs(z)

    monkeypatch.setattr(torus, "_phi_funcs", counting)
    res = evolve(_torus_initial_data(), T=1.0, n_modes=32)
    assert (res.accepted, res.rejected, len(calls)) == (76, 0, 3)
    assert all(z.shape == (2, len(DPEvolver(32).k)) for z in calls)


def test_evolver_grid_dealiases_the_top_power():
    # P'(u) = 9 u^8 holds modes up to 8 n_modes: on the cubic's 3 n_modes + 1
    # points its aliases land on kept modes and K1 drifts by about 1e-2
    assert DPEvolver(16, FSpec({9: 1.0})).mx >= 9 * 16 + 1
    assert DPEvolver(64).mx == DPEvolver(64, cubic=False).mx == 196
    res = evolve(_random_real_data(n=8), T=0.5, n_modes=16, f_spec=FSpec({9: 1.0}))
    assert res.k1_drift < 1e-6


def test_fspec_validation_and_gradient():
    with pytest.raises(ValueError):
        FSpec({3: 1.0})
    f = FSpec({9: 2.0})
    u = np.linspace(-0.5, 0.5, 7)
    assert nonlinear_density(u, 1, f, cubic=False) == pytest.approx(18.0 * u**8)
    assert nonlinear_density(u, 0, f, cubic=False) == pytest.approx(2.0 * u**9)
    assert not FSpec().coeffs


def test_nonlinear_density_with_the_cubic_term():
    f = FSpec({9: 2.0})
    u = np.linspace(-0.5, 0.5, 7)
    assert nonlinear_density(u, 0, f) == pytest.approx(-u**3 / 6 + 2.0 * u**9)
    assert nonlinear_density(u, 1, f) == pytest.approx(-0.5 * u**2 + 18.0 * u**8)
    assert nonlinear_density(u, 2, f) == pytest.approx(-u + 144.0 * u**7)


def test_checkpoint_roundtrip(tmp_path):
    prob = small_problem(eps=1e-3, n_x=16, n_phi=2)
    sol = newton_solve(prob)
    path = tmp_path / "torus.json"
    digest = save_embedding(sol.emb, str(path))
    assert len(digest) == 64
    emb2 = load_embedding(str(path))
    assert np.array_equal(emb2.x, sol.emb.x) and np.array_equal(emb2.zeta, sol.emb.zeta)
    # tamper detection
    text = path.read_text().replace('"n_x": 16', '"n_x": 17')
    path.write_text(text)
    with pytest.raises(TorusError):
        load_embedding(str(path))


def test_load_embedding_rejects_arrays_that_do_not_fit_the_grid(tmp_path):
    path = tmp_path / "torus.json"
    save_embedding(TorusEmbedding.trivial(S67, TruncationGrid(n_x=16, n_phi=2)), str(path))
    payload = json.loads(path.read_text())["data"]
    payload["n_phi"] = 3
    body = json.dumps(payload, sort_keys=True)
    path.write_text(json.dumps({"sha256": hashlib.sha256(body.encode()).hexdigest(),
                                "data": payload}))
    with pytest.raises(TorusError, match="n_phi 3 need"):
        load_embedding(str(path))


def test_energy_momentum_definitions():
    ev = DPEvolver(16)
    uhat = np.zeros(ev.mx // 2 + 1, dtype=complex)  # u_3 = u_-3 = 0.2
    uhat[3] = 0.2
    # H = (1/2) sum |u_j|^2 for pure quadratic data (cubic term is O(u^3))
    h = ev.energy(uhat)
    assert h == pytest.approx(0.5 * 2 * 0.04, abs=1e-4)
    k1 = ev.momentum(uhat)
    assert k1 == pytest.approx(0.5 * 2 * 0.04 * (1 + 9) / (4 + 9), rel=1e-12)


def test_operators_take_one_fft2_over_a_stack(monkeypatch):
    shapes = []
    fft = torus.AngleTransform.fft

    def counting(self, grid):
        shapes.append(np.shape(grid))
        return fft(self, grid)

    prob = small_problem(eps=2e-3, n_x=16, n_phi=4)
    emb = newton_solve(prob).emb
    state = residual(prob, emb).state
    monkeypatch.setattr(torus.AngleTransform, "fft", counting)
    m = prob.at.m
    jacobian(prob, state)
    assert shapes == [(25, m, m)]  # one symbol per (row family, column family)
    shapes.clear()
    linearized_normal_operator(prob, emb, ell_cut=2, phib_order=0)
    assert shapes == [(m, m)]  # the field V


def test_fast_len_is_scipys_next_fast_len():
    assert [torus.fast_len(n) for n in range(1, 4097)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 4097)]
    with pytest.raises(ValueError, match="positive transform length"):
        torus.fast_len(0)


@pytest.mark.parametrize("shape", [(25, 50, 50), (3, 12, 12, 12)], ids=["nu=2", "nu=3"])
def test_angle_transform_matches_scipy_fftn(shape):
    # scipy.fft is the reference for the numpy transforms
    nu = len(shape) - 1
    at, axes = torus.AngleTransform(shape[-1], nu), tuple(range(-nu, 0))
    rng = np.random.default_rng(7)
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = scipy.fft.fftn(grid, axes=axes) / at.m**nu
    assert np.abs(at.fft(grid) - want).max() <= 1e-15 * np.abs(want).max()
    # to_grid of every coefficient of the grid is the unscaled inverse
    ell = np.tile(np.indices(at.shape).reshape(nu, -1).T, (shape[0], 1))
    fields = np.repeat(np.arange(shape[0]), at.m**nu)
    got = at.to_grid(grid[(fields, *ell.T)], fields, ell, shape[0])
    want = scipy.fft.ifftn(grid, axes=axes) * at.m**nu
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_float_layer_loads_scipy_sparse_only_to_solve():
    # the linearized operator and the evolver run on numpy alone; the first
    # Newton Jacobian loads scipy.sparse for its LU
    src = os.path.dirname(os.path.dirname(os.path.abspath(torus.__file__)))
    code = """
import sys
from dpkam import torus
from dpkam.core import ScalingParams, TangentialSet
S = TangentialSet.make([6, 7])
prob = torus.TorusProblem(S=S, grid=torus.TruncationGrid(n_x=16, n_phi=2), xi=(1.3, 1.7),
                          scaling=ScalingParams(epsilon=1e-3, a=0.1, nu=2))
emb = torus.TorusEmbedding.trivial(S, prob.grid)
torus.linearized_normal_operator(prob, emb, ell_cut=1, phib_order=0)
torus.evolve(torus.action_angle_embed(prob, emb, (0.0, 0.0)), T=0.1, n_modes=16)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(torus.newton_solve(prob).converged, "scipy.sparse.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_jacobian_is_the_lattice_system():
    # problem.ini's grid holds 30 000 coefficients; 170 are on the lattice
    prob = small_problem(eps=1e-3, n_x=24, n_phi=12)
    assert (2 * prob.grid.n_phi + 1) ** 2 * (4 + len(prob.js)) == 30_000
    emb = newton_solve(prob).emb
    assert jacobian(prob, residual(prob, emb).state).shape == (170 + 2, 170 + 2)
