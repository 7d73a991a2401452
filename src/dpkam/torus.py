"""Galerkin truncation of the rescaled Hamiltonian system, the invariant-torus
functional, a Newton solver with the geometric projection schedule, the
linearized normal-direction operator, and a pseudo-spectral time integrator:
ETDRK4 on the real half spectrum (rfft), with step doubling whose full step
and first half step share N(u).  One function, `nonlinear_density`, evaluates
the nonlinear density P(u) = -u^3/6 + f(u) and its derivatives for the
residual, the Jacobian and the integrator.

Coordinates: (theta, y, z) with u = A_eps(theta, y, z),
    u_s = eps sqrt(xi_s + eps^(2b-2)|lambda(s)| y_s) e^{i theta_s},  s in S,
    u_j = eps^b z_j,                                                j in S^c,
and H_eps = eps^(-2b) [H^(2)(u) + H^(3)(u) + f-part].  The invariant-torus
functional is
    F(i, zeta) = omega . d_phi i - X_{H_eps}(i) + (0, zeta, 0).

Angle truncation is the square |l|_inf <= N_phi; spatial truncation keeps
normal modes |j| <= N_x.  All nonlinear terms are evaluated pseudo-spectrally
with 3x padding (exact dealiasing for the cubic nonlinearity), in x with
enough points for the top power of f as well (TorusProblem.m_x).  Newton
moves the coefficients on the momentum lattice alone (TorusProblem.lattice).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ScalingParams, TangentialSet, lam
from .polyham import HomPoly, z_degree
from .wbnf import dp_h2, dp_h3, index_universe, run_wbnf
from .polyham import flow_conjugate


class TorusError(RuntimeError):
    pass


class DivergenceError(TorusError):
    pass


# -- truncation bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class TruncationGrid:
    """Fourier truncation: angle modes |l|_inf <= n_phi, normal modes
    |j| <= n_x, with padded pseudo-spectral grids (>= 3/2 dealiasing for the
    cubic nonlinearity)."""

    n_x: int
    n_phi: int
    jbar1: int

    def __post_init__(self):
        if self.n_x <= 2 * self.jbar1:
            raise ValueError("need n_x > 2*jbar1 so quadratic images of S fit")

    @property
    def m_phi(self) -> int:
        # 4N+2 makes every coupling |l_r - l_c| <= 2N a unique circular shift,
        # so the assembled Jacobian is the exact derivative of the grid
        # functional (3N+1 would already dealias the cubic terms).
        return scipy.fft.next_fast_len(4 * self.n_phi + 2)

    @property
    def m_x(self) -> int:
        return scipy.fft.next_fast_len(3 * max(self.n_x, 2 * self.jbar1) + 1)

    @property
    def n_ell(self) -> int:
        return 2 * self.n_phi + 1


def _ell_values(n_phi: int) -> np.ndarray:
    return np.arange(-n_phi, n_phi + 1)


class AngleTransform:
    """Maps between coefficient arrays indexed [..., l1+N, l2+N] and values on
    the padded angle grid (nu = 2 throughout the torus module).  Leading axes
    are a stack of fields, transformed in one call."""

    def __init__(self, n_phi: int, m_phi: int):
        self.n_phi = n_phi
        self.m = m_phi
        self.ells = _ell_values(n_phi)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        m = self.m
        big = np.zeros(coeffs.shape[:-2] + (m, m), dtype=complex)
        idx = self.ells % m
        big[..., idx[:, None], idx] = coeffs
        return scipy.fft.ifft2(big) * m * m

    def to_coeffs(self, grid: np.ndarray) -> np.ndarray:
        m = self.m
        idx = self.ells % m
        return scipy.fft.fft2(grid)[..., idx[:, None], idx] / (m * m)


# -- the embedding -------------------------------------------------------------------


@dataclass
class TorusEmbedding:
    """Truncated Fourier data of (Theta, y, z) and the counterterm zeta.

    x: complex (2 nu + n_j, 2N+1, 2N+1), the families Theta_1..Theta_nu,
    y_1..y_nu, z_1..z_nj (z_k at the normal mode js[k]) in the order of the
    Jacobian's unknowns, with the reality symmetry x_f(-l) = conj(x_f'(l)),
    where f' = f on Theta and y and j -> -j on z; zeta: (nu,) real.
    theta, y and z are views of x."""

    S: TangentialSet
    grid: TruncationGrid
    x: np.ndarray
    zeta: np.ndarray

    @classmethod
    def trivial(cls, S: TangentialSet, grid: TruncationGrid) -> "TorusEmbedding":
        n, nj = grid.n_ell, len(normal_modes(S, grid.n_x))
        return cls(S, grid, np.zeros((2 * S.nu + nj, n, n), dtype=complex), np.zeros(S.nu))

    def copy(self) -> "TorusEmbedding":
        return TorusEmbedding(self.S, self.grid, self.x.copy(), self.zeta.copy())

    @property
    def theta(self) -> np.ndarray:
        return self.x[: self.S.nu]

    @property
    def y(self) -> np.ndarray:
        return self.x[self.S.nu : 2 * self.S.nu]

    @property
    def z(self) -> np.ndarray:
        return self.x[2 * self.S.nu :]

    def enforce_reality(self) -> None:
        nt = 2 * self.S.nu
        perm = np.concatenate([np.arange(nt), nt + _neg_perm(normal_modes(self.S, self.grid.n_x))])
        self.x += np.conj(self.x[perm, ::-1, ::-1])
        self.x *= 0.5

    def project(self, cutoff: int) -> None:
        """Apply the schedule projector Pi_n: keep the angle modes
        |l|_inf <= cutoff of every family.  The projector acts on the angles
        only; the x-modes of z keep the Galerkin truncation |j| <= n_x, so
        the quadratic images |j| <= 2 jbar1 of the packet survive every step."""
        ells = np.abs(_ell_values(self.grid.n_phi))
        self.x *= (ells[:, None] <= cutoff) & (ells <= cutoff)


def normal_modes(S: TangentialSet, n_x: int) -> list[int]:
    return [j for j in range(-n_x, n_x + 1) if S.in_sc(j)]


def _neg_perm(js: list[int]) -> np.ndarray:
    pos = {j: i for i, j in enumerate(js)}
    return np.array([pos[-j] for j in js])


# -- problem data ---------------------------------------------------------------------


@dataclass
class FSpec:
    """Polynomial Hamiltonian density f(u) = sum c_k u^k with valuation >= 9."""

    coeffs: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for k in self.coeffs:
            if k < 9:
                raise ValueError("the density must vanish to order >= 9")


def nonlinear_density(
    u: np.ndarray, n: int, f_spec: FSpec, cubic: bool = True
) -> tuple[float, np.ndarray]:
    """The n-th derivative (n = 0, 1, 2) of the nonlinear density
    P(u) = -u^3/6 [cubic] + sum_k c_k u^k at the grid values u, split as
    P^(n)(u) = lin u + rest(u).  P vanishes to order 3, so lin is nonzero
    only for n = 2 with the cubic term; a caller applies lin to the Fourier
    modes of u, where it is exact, and transforms rest."""
    terms = list(f_spec.coeffs.items()) + ([(3, -1.0 / 6.0)] if cubic else [])
    lin, rest = 0.0, np.zeros_like(u)
    for k, c in terms:
        a = math.perm(k, n) * c
        if k - n == 1:
            lin += a
        else:
            rest = rest + a * u ** (k - n)
    return lin, rest


@dataclass
class TorusProblem:
    S: TangentialSet
    grid: TruncationGrid
    xi: tuple[float, ...]
    scaling: ScalingParams
    omega: np.ndarray
    f_spec: FSpec = field(default_factory=FSpec)
    include_cubic: bool = True

    def __post_init__(self):
        if self.S.nu != 2:
            raise TorusError("the torus solver is implemented for nu = 2")
        self.omega = np.asarray(self.omega, dtype=float)
        self.xi = tuple(float(v) for v in self.xi)
        self.js = normal_modes(self.S, self.grid.n_x)
        self.at = AngleTransform(self.grid.n_phi, self.grid.m_phi)
        self.lam_js = np.array([float(lam(j)) for j in self.js])
        self.lam_sites = np.array([float(lam(s)) for s in self.S.splus])
        # x-points that resolve P'(u) and P''(u) at the modes the residual and
        # the Jacobian read: the grid's padding serves the cubic term, a term
        # u^k of f needs k n_x + 1.  An aliased product would move
        # coefficients off the momentum lattice.
        top = max(self.f_spec.coeffs, default=0)
        self.m_x = max(self.grid.m_x, scipy.fft.next_fast_len(top * self.grid.n_x + 1))
        # The momentum lattice, as flat indices into TorusEmbedding.x.ravel():
        # the coefficients (family, l) with l.sbar equal to the family's
        # x-mode, 0 for Theta and y and j_k for z_k.  DP commutes with
        # x-translation, so the functional maps an embedding supported there
        # to a residual supported there, and Newton moves these alone.
        ells = _ell_values(self.grid.n_phi)
        momentum = self.S.splus[0] * ells[:, None] + self.S.splus[1] * ells
        modes = np.concatenate([np.zeros(2 * self.S.nu, dtype=int), self.js])
        self.lattice = np.flatnonzero(momentum == modes[:, None, None])

    @property
    def eps(self) -> float:
        return self.scaling.epsilon

    @property
    def b(self) -> float:
        return self.scaling.b


# -- pointwise state on the angle grid -------------------------------------------------


class GridState:
    """Everything the residual and the Jacobian need, evaluated on the padded
    angle grid: angles, radii, and the x-Fourier modes of u and of grad H,
    stacked as ux[mode % m_x] and gx[mode % m_x]."""

    def __init__(self, prob: TorusProblem, emb: TorusEmbedding):
        at, m, mx = prob.at, prob.at.m, prob.m_x
        eps, b = prob.eps, prob.b
        sites = np.array(prob.S.splus)

        phi_1d = 2.0 * math.pi * np.arange(m) / m
        phi = np.array(np.meshgrid(phi_1d, phi_1d, indexing="ij"))
        nu = prob.S.nu
        X = at.to_grid(emb.x)
        Theta, Y = X[:nu], X[nu : 2 * nu]
        if np.abs(X[: 2 * nu].imag).max() > 1e-8:
            raise TorusError("embedding violates reality beyond tolerance")

        scale = (eps ** (2 * b - 2) * prob.lam_sites)[:, None, None]
        rad = np.array(prob.xi)[:, None, None] + scale * Y.real
        low = rad.min(axis=(1, 2)) <= 0
        if low.any():
            i = int(np.argmax(low))
            bad = np.unravel_index(int(np.argmin(rad[i])), rad[i].shape)
            raise TorusError(f"radicand for site {sites[i]} nonpositive at grid point {bad}")
        self.rho = np.sqrt(rad)
        self.sig = scale / (2.0 * rad)
        self.e = np.exp(1j * (phi + Theta.real))

        self.mx = mx
        self.ux = np.zeros((mx, m, m), dtype=complex)
        self.ux[sites % mx] = eps * self.rho * self.e
        self.ux[-sites % mx] = eps * self.rho * np.conj(self.e)
        self.ux[np.array(prob.js) % mx] = eps**b * X[2 * nu :]

        # grad H modes: g_j = u_j + (P'(u))_j, and P' has no linear part
        uphys = scipy.fft.ifft(self.ux, axis=0) * mx
        if np.abs(uphys.imag).max() > 1e-8 * max(1.0, np.abs(uphys.real).max()):
            raise TorusError("u field is not real; reality symmetry broken")
        self.uphys = uphys.real
        _, dP = nonlinear_density(self.uphys, 1, prob.f_spec, prob.include_cubic)
        self.gx = scipy.fft.fft(dP.astype(complex), axis=0) / mx + self.ux

        gm, gp = self.g(-sites), self.g(sites)
        self.hplus = gm * self.e + gp * np.conj(self.e)
        self.hminus = gm * self.e - gp * np.conj(self.e)

    def g(self, modes) -> np.ndarray:
        return self.gx[np.asarray(modes) % self.mx]


# -- residual --------------------------------------------------------------------------


@dataclass
class Residual:
    f: np.ndarray  # coefficients, the families of TorusEmbedding.x
    sup: float


def _iwl(prob: TorusProblem) -> np.ndarray:
    """i omega.l on the coefficient array [l1+N, l2+N]."""
    ells = _ell_values(prob.grid.n_phi)
    return 1j * (prob.omega[0] * ells[:, None] + prob.omega[1] * ells[None, :])


def residual(prob: TorusProblem, emb: TorusEmbedding) -> Residual:
    """The invariant-torus functional on the truncation."""
    at = prob.at
    gs = GridState(prob, emb)
    eps, b = prob.eps, prob.b
    nu, c = prob.S.nu, prob.grid.n_phi

    # f_theta = iwl Theta - dH/dy + omega,  f_y = iwl y + dH/dtheta + zeta,
    # f_z = iwl z - i lambda_j eps^-b g_j
    dHy = ((prob.lam_sites / (2.0 * eps))[:, None, None] * gs.hplus / gs.rho).real
    dHth = (eps ** (1.0 - 2.0 * b) * 1j * gs.rho * gs.hminus).real
    zdot = (1j * prob.lam_js * eps ** (-b))[:, None, None] * gs.g(prob.js)
    f = _iwl(prob) * emb.x - at.to_coeffs(np.concatenate([dHy, -dHth, zdot]))
    f[:nu, c, c] += prob.omega
    f[nu : 2 * nu, c, c] += emb.zeta
    return Residual(f=f, sup=float(np.abs(at.to_grid(f)).max()))


# -- Jacobian --------------------------------------------------------------------------


def _jacobian_symbols(prob: TorusProblem, gs: GridState, droptol: float):
    """The multiplication symbols of the Jacobian's blocks, stacked as
    (symbols, m, m), and per block its row family, column family, symbol and
    a coefficient that scales the symbol."""
    m, mx = prob.at.m, gs.mx
    nu, nj = prob.S.nu, len(prob.js)
    nt, nfam = 2 * nu, 2 * nu + nj  # tangential families, all families
    eps, b = prob.eps, prob.b
    sites, js = np.array(prob.S.splus), np.array(prob.js)

    # x-modes of the multiplier P''(u) acting inside delta-g
    lin, rest = nonlinear_density(gs.uphys, 2, prob.f_spec, prob.include_cubic)
    conv = lin * gs.ux + scipy.fft.fft(rest.astype(complex), axis=0) / mx

    # Theta_i and y_i move the x-modes +-s_i of u:
    # dU_{+-s} = +-i U_{+-s} dTheta,  dU_{+-s} = sigma U_{+-s} dy
    pm = np.stack([sites, -sites], axis=1)
    U = gs.ux[pm % mx]
    dU = np.stack([1j * np.array([1, -1])[:, None, None] * U, gs.sig[:, None] * U])

    def dg_tang(modes: np.ndarray) -> np.ndarray:
        """delta-g at the x-modes `modes` per unit change of Theta_i and y_i:
        dG_k = sum_{m = +-s} ([k = m] + conv(k - m)) dU_m, as (modes, 2 nu, m, m)."""
        diff = modes[:, None, None] - pm
        w = conv[diff % mx] + (diff == 0)[..., None, None]
        return (w[:, None] * dU).sum(axis=3).reshape(len(modes), nt, m, m)

    # Theta_i and y_i rows read delta-g at the modes -+s_i; z_k moves mode j_k by eps^b
    dgm = np.concatenate([dg_tang(-sites), eps**b * conv[(-sites[:, None] - js) % mx]], axis=1)
    dgp = np.concatenate([dg_tang(sites), eps**b * conv[(sites[:, None] - js) % mx]], axis=1)
    e, ec = gs.e[:, None], np.conj(gs.e)[:, None]
    pref_y = (prob.lam_sites / (2.0 * eps))[:, None, None] / gs.rho
    pref_th = eps ** (1.0 - 2.0 * b) * 1j * gs.rho
    mu_th = -pref_y[:, None] * (dgm * e + dgp * ec)  # f_theta_i = iwl Theta_i - dH/dy_i
    mu_y = pref_th[:, None] * (dgm * e - dgp * ec)  # f_y_i = iwl y_i + dH/dtheta_i
    # the explicit Theta_i in e^{i theta_i} and y_i in rho_i
    i = np.arange(nu)
    mu_th[i, i] -= pref_y * 1j * gs.hminus
    mu_th[i, nu + i] += pref_y * gs.hplus * gs.sig
    mu_y[i, i] += pref_th * 1j * gs.hplus
    mu_y[i, nu + i] += pref_th * gs.sig * gs.hminus
    # f_z_k = iwl z_k - i lambda_j eps^-b g_j
    mu_zt = (-1j * prob.lam_js * eps ** (-b))[:, None, None, None] * dg_tang(js)
    # z_k2 columns of z_k rows: -i lambda_j conv(j - j2), one symbol per
    # difference; a difference whose conv is <= droptol/10 everywhere is skipped
    dvals, dsym = np.unique((js[:, None] - js).ravel(), return_inverse=True)
    mu_zz = conv[dvals % mx]
    live = (np.abs(mu_zz).max(axis=(1, 2)) > droptol / 10)[dsym]

    n_own = nt * nfam + nj * nt
    r_t, c_t = np.divmod(np.arange(nt * nfam, dtype=np.int32), nfam)
    r_z, c_z = np.divmod(np.arange(nj * nt, dtype=np.int32), nt)
    k, k2 = np.divmod(np.arange(nj * nj, dtype=np.int32)[live], nj)
    syms = np.concatenate([a.reshape(-1, m, m) for a in (mu_th, mu_y, mu_zt, mu_zz)])
    return syms, (
        np.concatenate([r_t, nt + r_z, nt + k]),
        np.concatenate([c_t, c_z, nt + k2]),
        np.concatenate([np.arange(n_own), n_own + dsym[live]]),
        np.concatenate([np.ones(n_own), -1j * prob.lam_js[k]]),
    )


def jacobian(
    prob: TorusProblem, emb: TorusEmbedding, droptol: float = 1e-11
) -> sp.csc_matrix:
    """Analytic Jacobian of the residual on the momentum lattice (verified
    against finite differences in the test suite).

    Unknowns (complex): the lattice coefficients x.ravel()[prob.lattice] of
    TorusEmbedding.x, in that order, then zeta (nu).  Rows: the residual at
    the same coefficients, then the nu phase rows Theta_i(0) = 0 that fix
    the translation degeneracies.  The block between two families is
    omega.d_phi on the diagonal plus the multiplication operator of a symbol
    mu(phi), J[l_r, l_c] = mu_hat(l_r - l_c); all symbols go through one
    fft2, the entries are read for the lattice pairs alone, and those with
    |mu_hat| <= droptol are dropped."""
    m, N = prob.at.m, prob.grid.n_phi
    nu, L, lat = prob.S.nu, prob.grid.n_ell**2, prob.lattice
    syms, (brow, bcol, bsym, bcoef) = _jacobian_symbols(prob, GridState(prob, emb), droptol)
    sidx = np.arange(-2 * N, 2 * N + 1) % m
    hat = scipy.fft.fft2(syms, overwrite_x=True)[:, sidx[:, None], sidx].reshape(len(syms), -1)
    del syms

    # the block of each (row family, column family), -1 where there is none,
    # and the shift number (d1+2N)(4N+1) + d2+2N of each lattice pair
    fam, cell = np.divmod(lat, L)
    l1, l2 = np.divmod(cell, 2 * N + 1)
    block = np.full((2 * nu + len(prob.js),) * 2, -1)
    block[brow, bcol] = np.arange(len(brow))
    blk = block[fam[:, None], fam]
    rows, cols = np.nonzero(blk >= 0)
    blk = blk[rows, cols]
    shift = (l1[rows] - l1[cols] + 2 * N) * (4 * N + 1) + l2[rows] - l2[cols] + 2 * N
    val = bcoef[blk] * (hat[bsym[blk], shift] / (m * m))
    keep = np.abs(val) > droptol

    # the diagonal omega.d_phi (- i lambda_j), zeta_i in the l = 0 row of
    # y_i and the phase rows on Theta_i(0)
    n, c0 = len(lat), N * (2 * N + 2)
    i = np.arange(nu)
    lam_fam = np.concatenate([np.zeros(2 * nu), prob.lam_js])
    diag = _iwl(prob).ravel()[cell] - 1j * lam_fam[fam]
    y0, th0 = np.searchsorted(lat, (nu + i) * L + c0), np.searchsorted(lat, i * L + c0)
    rows = np.concatenate([rows[keep], np.arange(n), y0, n + i])
    cols = np.concatenate([cols[keep], np.arange(n), n + i, th0])
    vals = np.concatenate([val[keep], diag, np.ones(2 * nu)])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n + nu, n + nu))


def _flatten_residual(
    prob: TorusProblem, res: Residual, emb: TorusEmbedding
) -> np.ndarray:
    """The Jacobian's rows: the residual on the lattice, then the phase rows
    Theta_i(0)."""
    c = prob.grid.n_phi
    return np.concatenate([res.f.ravel()[prob.lattice], emb.theta[:, c, c]])


# -- Newton solver ----------------------------------------------------------------------

MAX_BACKTRACK = 8  # step halvings tried before a Newton step counts as failed
# Largest off-lattice coefficient a Newton start may carry; Newton sets the
# start's off-lattice part to zero.  Full-grid solves left at most 1.8e-15
# there, so a larger part is not rounding but a start off the lattice.
OFF_LATTICE_MAX = 1e-13


@dataclass
class NewtonSchedule:
    n0: float = 4.0
    chi: float = 1.5
    max_iter: int = 12
    tol: float = 1e-10

    def cutoff(self, n: int, full: int) -> int:
        """The angle cutoff N_n = floor(N_0^(chi^n)) of step n, capped at the
        angle truncation `full`."""
        return min(int(math.floor(self.n0 ** (self.chi**n))), full)


@dataclass
class NewtonResult:
    emb: TorusEmbedding
    residuals: list[float]
    converged: bool
    iterations: int


def min_linear_divisor(prob: TorusProblem) -> tuple[float, tuple]:
    """Smallest |omega . l - lambda(j)| over the truncation (diagnostic), with
    its first witness ((l1, l2), j) in the order l1, l2, j."""
    ells = _ell_values(prob.grid.n_phi)
    wl = prob.omega[0] * ells[:, None] + prob.omega[1] * ells[None, :]
    div = np.abs(wl[:, :, None] - prob.lam_js)
    a, a2, k = np.unravel_index(int(np.argmin(div)), div.shape)
    return float(div[a, a2, k]), ((int(ells[a]), int(ells[a2])), prob.js[k])


def _linear_steps(J: sp.csc_matrix, rhs: np.ndarray):
    """The Newton steps to try, in order: the sparse LU solve, then the
    minimum-norm least-squares solve.  An exactly singular block (e.g. the
    zero-nonlinearity problem, where constant action shifts do not move the
    frequency) can leave LU with no step or a finite but useless one."""
    try:
        delta = spla.splu(J).solve(rhs)
    except RuntimeError:
        delta = None
    if delta is not None and np.all(np.isfinite(delta)):
        yield delta
    yield np.linalg.lstsq(J.toarray(), rhs, rcond=None)[0]


def newton_solve(
    prob: TorusProblem,
    start: TorusEmbedding | None = None,
    schedule: NewtonSchedule | None = None,
) -> NewtonResult:
    """Damped Newton on (embedding, zeta) with the geometric projection
    schedule; the linearized system is solved by sparse LU on the momentum
    lattice (see `TorusProblem`), and the step moves the lattice coefficients
    alone.  A start whose off-lattice coefficients exceed OFF_LATTICE_MAX
    raises TorusError; a smaller off-lattice part is set to zero.

    Step n is projected to the angle modes |l|_inf <= N_n = N_0^(chi^n),
    capped at n_phi (see `TorusEmbedding.project`); the spatial truncation
    n_x is never cut.  A step with N_n < n_phi is projected and accepted
    without a decrease test; from the first step at N_n = n_phi on, a step
    is accepted only if it lowers the residual (with backtracking).

    The nu translation degeneracies of the torus family are fixed by the
    appended phase equations Theta_i(0) = 0; all residual equations
    (including the theta averages) stay in the system and in the reported
    sup-norm."""
    schedule = schedule or NewtonSchedule()
    emb = (start or TorusEmbedding.trivial(prob.S, prob.grid)).copy()
    off = emb.x.copy()
    off.reshape(-1)[prob.lattice] = 0
    size = float(np.abs(off).max())
    if size > OFF_LATTICE_MAX:
        raise TorusError(
            f"the start has off-lattice coefficients up to {size:.3e}, above "
            f"OFF_LATTICE_MAX = {OFF_LATTICE_MAX:.0e}; Newton moves the lattice alone"
        )
    emb.x -= off
    nu = prob.S.nu
    res = residual(prob, emb)
    history = [res.sup]
    grow = 0

    for it in range(schedule.max_iter):
        if res.sup < schedule.tol:
            return NewtonResult(emb, history, True, it)
        J = jacobian(prob, emb)
        rhs = -_flatten_residual(prob, res, emb)

        full_cut = prob.grid.n_phi
        cutoff = schedule.cutoff(it, full_cut)
        partial = cutoff < full_cut

        def try_delta(d: np.ndarray) -> bool:
            nonlocal emb, res
            step = 1.0
            for _ in range(MAX_BACKTRACK + 1):
                trial = emb.copy()
                trial.x.reshape(-1)[prob.lattice] += step * d[:-nu]
                trial.zeta += (step * d[-nu:]).real
                trial.enforce_reality()
                trial.project(cutoff)
                try:
                    trial_res = residual(prob, trial)
                except TorusError:
                    step *= 0.5
                    continue
                if partial or trial_res.sup < res.sup or trial_res.sup < schedule.tol:
                    emb, res = trial, trial_res
                    return True
                step *= 0.5
            return False

        improved = any(try_delta(d) for d in _linear_steps(J, rhs))
        if not improved:
            grow += 1
            if grow >= 3:
                div, wit = min_linear_divisor(prob)
                raise DivergenceError(
                    f"residual stalled/grew for 3 steps (last {res.sup:.3e}); nearest "
                    f"linear divisor |omega.l - lambda(j)| = {div:.3e} at {wit}"
                )
        elif not partial:
            grow = 0
        history.append(res.sup)

    return NewtonResult(emb, history, res.sup < schedule.tol, schedule.max_iter)


# -- embedding to PDE initial data -------------------------------------------------------


def action_angle_embed(
    prob: TorusProblem, emb: TorusEmbedding, phi: tuple[float, float]
) -> dict[int, complex]:
    """Fourier coefficients of u = A_eps(i(phi)) at a single angle phi."""
    eps, b, nu = prob.eps, prob.b, prob.S.nu
    ells = _ell_values(prob.grid.n_phi)
    vals = np.exp(1j * ells * phi[0]) @ emb.x @ np.exp(1j * ells * phi[1])

    out: dict[int, complex] = {}
    for i, s in enumerate(prob.S.splus):
        th = vals[i].real + phi[i]
        rad = prob.xi[i] + eps ** (2 * b - 2) * prob.lam_sites[i] * vals[nu + i].real
        if rad <= 0:
            raise TorusError(f"negative radicand at site {s}, phi={phi}")
        amp = eps * math.sqrt(rad)
        out[s] = amp * np.exp(1j * th)
        out[-s] = amp * np.exp(-1j * th)
    for j, val in zip(prob.js, vals[2 * nu :]):
        if val != 0:
            out[j] = out.get(j, 0) + eps**b * complex(val)
    return out


# -- linearized normal operator ----------------------------------------------------------


@dataclass
class LinearizedOperator:
    js: list[int]
    ell_cut: int
    blocks: list[dict]
    eigvals: np.ndarray
    matched: dict[tuple[tuple[int, int], int], complex]
    match_quality: dict[tuple[tuple[int, int], int], float]


def _correction_pieces(
    S: TangentialSet, n_x: int, phib_order: int
) -> list[HomPoly]:
    """dz <= 2 pieces through degree 4 of (H o Phi_B^(<= order)) - H^(2) - H^(3),
    over the exact windowed universe."""
    if phib_order < 2:
        return []
    u_max = n_x + 2 * S.jbar1 + 2
    uni = index_universe(u_max)
    wb = run_wbnf(S, 1, universe_max=2 * S.jbar1)
    F3 = wb.generators[3]
    pieces = [dp_h2(uni), dp_h3(uni)]

    def z_keep(degree: int) -> int:
        return 2 + (4 - degree)

    composed = flow_conjugate(
        pieces, F3, 4, inverse=True, max_z_keep=z_keep, universe=uni, S=S
    )
    out = []
    for deg, poly in sorted(composed.items()):
        base = pieces[0] if deg == 2 else (pieces[1] if deg == 3 else None)
        corr = poly - base if base is not None else poly
        corr = corr.map_filter(lambda m: z_degree(m, S) == 2)
        if not corr.is_zero():
            out.append(corr)
    return out


def linearized_normal_operator(
    prob: TorusProblem,
    emb: TorusEmbedding,
    ell_cut: int = 6,
    phib_order: int = 2,
) -> LinearizedOperator:
    """Assemble omega.d_phi - J(1 + a_0) (+ finite-rank corrections through the
    requested Birkhoff order) on the normal modes, block-diagonalized over the
    momentum classes j - l . jbar, and return the matched spectrum.

    a_0 is the multiplication part -Phi_B(T_delta) evaluated at the embedding
    (order 0/1 keeps -T_delta); the order-2 corrections (the Psi_2
    multiplication and the epsilon^2 finite-rank operators) enter through the
    exact dz = 2 pieces of the composed Hamiltonian, with the degree >= 5
    corrections left to the measured deviation.  Those corrections move the
    matched eigenvalues by O(eps^4): shifting every angle by pi maps the
    packet at eps to the packet at -eps and leaves omega fixed, so the
    matched eigenvalues are even in eps."""
    S = prob.S
    eps = prob.eps
    gs = GridState(prob, emb)
    m, mx = prob.at.m, gs.mx
    js = np.array(prob.js)

    # basis: (l, j) with |l|_inf <= ell_cut, j normal, |j| <= n_x, grouped
    # into the momentum classes j - l . jbar
    r = np.arange(-ell_cut, ell_cut + 1)
    l1, l2, kb = (a.ravel() for a in np.meshgrid(r, r, np.arange(len(js)), indexing="ij"))
    momentum = js[kb] - (l1 * S.splus[0] + l2 * S.splus[1])
    order = np.argsort(momentum, kind="stable")
    keys, first = np.unique(momentum[order], return_index=True)

    # angle spectra of the u-field x-modes (multiplication part); the
    # coupling stems from the cubic Hamiltonian, so it vanishes when the
    # cubic term is disabled and the operator is exactly omega.dphi - J
    uhat = scipy.fft.fft2(gs.ux) / (m * m) if prob.include_cubic else np.zeros_like(gs.ux)

    # symbolic correction pieces, evaluated at the unperturbed wave packet:
    # amps[k, k2, dl] is the coefficient of e^{i dl.phi} in d^2 Q/dz_{-j_k} dz_{j_k2}
    corr = (
        _correction_pieces(S, prob.grid.n_x, phib_order)
        if prob.include_cubic
        else []
    )
    kpos = {j: k for k, j in enumerate(prob.js)}
    sqrt_xi = {s: math.sqrt(prob.xi[i]) for i, s in enumerate(S.splus)}
    sqrt_xi.update({-s: sqrt_xi[s] for s in S.splus})
    acc: dict[tuple, complex] = {}
    for poly in corr:
        for mono, cval in poly.terms.items():
            zslots = [v for v in mono if S.in_sc(v)]
            vslots = [v for v in mono if S.in_s(v)]
            if len(zslots) != 2:
                continue
            amp = complex(cval) * eps ** (len(vslots)) * math.prod(
                sqrt_xi[v] for v in vslots
            )
            dl = tuple(sum(S.angle_vector(v)[i] for v in vslots) for i in range(2))
            a_z, b_z = zslots
            mult = 2 if a_z == b_z else 1
            # quadratic form amp * z_a z_b: d/dz_{-j} nonzero for j = -a, -b
            for out_slot, other in ([(a_z, b_z)] if a_z == b_z else [(a_z, b_z), (b_z, a_z)]):
                if -out_slot in kpos and other in kpos:
                    cell = (kpos[-out_slot], kpos[other], dl)
                    acc[cell] = acc.get(cell, 0.0) + amp * mult
    wd = max((max(map(abs, cell[2])) for cell in acc), default=0)
    amps = np.zeros((len(js), len(js), 2 * wd + 1, 2 * wd + 1), dtype=complex)
    for (k, k2, (d1, d2)), amp in acc.items():
        amps[k, k2, d1 + wd, d2 + wd] = amp

    eigvals = []
    matched: dict = {}
    quality: dict = {}
    blocks_out = []
    for key, idxs in zip(keys.tolist(), np.split(order, first[1:])):
        a1, a2, k = l1[idxs], l2[idxs], kb[idxs]
        nb = len(idxs)
        ilj = (1j * prob.lam_js[k])[:, None]
        d1, d2 = a1[:, None] - a1, a2[:, None] - a2
        M = np.zeros((nb, nb), dtype=complex)
        M[np.diag_indices(nb)] += 1j * (prob.omega[0] * a1 + prob.omega[1] * a2) - ilj[:, 0]
        # multiplication by the embedding field
        v = uhat[(js[k][:, None] - js[k]) % mx, d1 % m, d2 % m]
        M += np.where(np.abs(v) > 1e-15, ilj * v, 0)
        # symbolic eps^2 corrections: L = omega.d_phi - A with
        # A-entry i lambda(j) d^2 Q/dz_{-j} dz_{j2}
        near = (np.abs(d1) <= wd) & (np.abs(d2) <= wd)
        amp = amps[k[:, None], k, np.clip(d1, -wd, wd) + wd, np.clip(d2, -wd, wd) + wd]
        M -= np.where(near, ilj * amp, 0)
        local = list(zip(zip(a1.tolist(), a2.tolist()), js[k].tolist()))
        w, V = np.linalg.eig(M)
        eigvals.extend(w.tolist())
        dom = np.argmax(np.abs(V), axis=0)
        for col in range(nb):
            mode = local[dom[col]]
            weight = abs(V[dom[col], col]) / np.linalg.norm(V[:, col])
            prev = quality.get((mode[0], mode[1]))
            if prev is None or weight > prev:
                matched[(mode[0], mode[1])] = w[col]
                quality[(mode[0], mode[1])] = float(weight)
        blocks_out.append({"key": key, "size": nb})

    return LinearizedOperator(
        js=prob.js,
        ell_cut=ell_cut,
        blocks=blocks_out,
        eigvals=np.array(sorted(eigvals, key=lambda v: v.imag)),
        matched=matched,
        match_quality=quality,
    )


# -- time evolution -----------------------------------------------------------------------


@dataclass
class EvolveResult:
    times: np.ndarray
    h_values: np.ndarray
    k1_values: np.ndarray
    sup_values: np.ndarray
    h_drift: float
    k1_drift: float
    states: list[np.ndarray]


def _phi_funcs(z: np.ndarray):
    """ETDRK4 coefficient functions, evaluated by Taylor series near the
    removable singularity at 0 and by the closed forms away from it (the
    contour trick leaves a dt-independent bias that shows up as secular
    energy drift over long integrations)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) <= 1.0
    zs = np.where(small, z, 0.0)
    Q = np.zeros_like(z)
    f1 = np.zeros_like(z)
    f2 = np.zeros_like(z)
    f3 = np.zeros_like(z)
    term = np.ones_like(z)
    for m in range(30):
        fact = math.factorial(m + 3)
        Q += term / (2.0 ** (m + 1) * math.factorial(m + 1))
        f1 += term * (m + 1) ** 2 / fact
        f2 += term * (m + 1) / fact
        f3 += term * (1 - m) / fact
        term = term * zs
    zb = np.where(small, 1.0, z)
    ez = np.exp(zb)
    Qb = (np.exp(zb / 2) - 1) / zb
    f1b = (-4 - zb + ez * (4 - 3 * zb + zb**2)) / zb**3
    f2b = (2 + zb + ez * (-2 + zb)) / zb**3
    f3b = (-4 - 3 * zb - zb**2 + ez * (4 - zb)) / zb**3
    return (
        np.where(small, Q, Qb),
        np.where(small, f1, f1b),
        np.where(small, f2, f2b),
        np.where(small, f3, f3b),
    )


class DPEvolver:
    """Pseudo-spectral integrator for u_t = J grad H(u) on the circle with an
    exponential (ETDRK4) scheme for the stiff dispersive part.  A state is the
    half spectrum u_j, j = 0 ... mx/2, of the real field u (the rfft layout,
    u_-j = conj(u_j)); the modes run along the last axis, so `nonlinear` and
    `step_etdrk4` also step a stack of states in one call."""

    def __init__(self, n_modes: int, f_spec: FSpec | None = None, cubic: bool = True):
        self.n = n_modes
        self.f_spec = f_spec or FSpec()
        self.cubic = cubic
        self.mx = scipy.fft.next_fast_len(3 * n_modes + 1)
        k = np.arange(self.mx // 2 + 1)
        self.k = k
        self.lam = k * (4.0 + k * k) / (1.0 + k * k)
        self.mask = k <= n_modes
        self.L = 1j * self.lam
        # sums over all modes j of the circle count u_j and u_-j for j > 0
        self.weight = np.where(k == 0, 1.0, 2.0)
        self._coefs: dict[float, tuple] = {}

    def field(self, uhat: np.ndarray) -> np.ndarray:
        """The real field u on the grid of mx points."""
        return scipy.fft.irfft(uhat, self.mx) * self.mx

    def nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        _, dP = nonlinear_density(self.field(uhat), 1, self.f_spec, self.cubic)
        what = scipy.fft.rfft(dP) / self.mx
        return 1j * self.lam * what * self.mask

    def energy(self, uhat: np.ndarray) -> float:
        _, P = nonlinear_density(self.field(uhat), 0, self.f_spec, self.cubic)
        return 0.5 * float(np.sum(self.weight * np.abs(uhat) ** 2)) + float(np.mean(P))

    def momentum(self, uhat: np.ndarray) -> float:
        k = self.k
        w = np.where(k == 0, 0.0, (1.0 + k * k) / (4.0 + k * k))
        return 0.5 * float(np.sum(self.weight * w * np.abs(uhat) ** 2))

    def step_etdrk4(
        self, uhat: np.ndarray, dt: float, coefs, Nu: np.ndarray | None = None
    ) -> np.ndarray:
        """One ETDRK4 step (Cox-Matthews); Nu is N(uhat) when the caller has
        it already."""
        E, E2, Q, f1, f2, f3 = coefs
        if Nu is None:
            Nu = self.nonlinear(uhat)
        a = E2 * uhat + dt * Q * Nu
        Na = self.nonlinear(a)
        bb = E2 * uhat + dt * Q * Na
        Nb = self.nonlinear(bb)
        c = E2 * a + dt * Q * (2 * Nb - Nu)
        Nc = self.nonlinear(c)
        out = E * uhat + dt * (f1 * Nu + 2 * f2 * (Na + Nb) + f3 * Nc)
        return out * self.mask

    def coefs(self, dt: float):
        """The ETDRK4 coefficients of step dt, computed once per dt."""
        if dt not in self._coefs:
            z = dt * self.L
            self._coefs[dt] = (np.exp(z), np.exp(z / 2), *_phi_funcs(z))
        return self._coefs[dt]


REPORT_POINTS = 64  # evolve records the trajectory every T / REPORT_POINTS


def evolve(
    u0: dict[int, complex],
    T: float,
    n_modes: int = 128,
    dt: float | None = None,
    adaptive: bool = True,
    rtol: float = 1e-10,
    f_spec: FSpec | None = None,
    cubic: bool = True,
    blowup: float = 1e6,
) -> EvolveResult:
    """Integrate the DP flow from the Fourier data u0 of a real field
    (u0[-j] = conj(u0[j]), else ValueError); report relative drifts of H and
    of the momentum K1.  The states are half spectra (see DPEvolver).

    An adaptive step compares one step of dt with two of dt/2; the full step
    and the first half step share N(u)."""
    size = max((abs(c) for c in u0.values()), default=0.0)
    for j, c in u0.items():
        if abs(u0.get(-j, 0.0) - np.conj(c)) > 1e-12 * size:
            raise ValueError(f"u0 is not conjugate-symmetric at j = {j}")
    ev = DPEvolver(n_modes, f_spec, cubic)
    uhat = np.zeros(len(ev.k), dtype=complex)
    for j, c in u0.items():
        if 0 <= j <= n_modes:
            uhat[j] = c

    if dt is None:
        dt = min(0.01, T / 100.0)
    t = 0.0
    times = [0.0]
    hs = [ev.energy(uhat)]
    k1s = [ev.momentum(uhat)]
    sups = [float(np.abs(ev.field(uhat)).max())]
    states = [uhat.copy()]
    report_every = max(T / REPORT_POINTS, dt)
    next_report = report_every
    rejections = 0
    scale = max(sups[0], 1e-30)

    while t < T - 1e-14:
        step = dt = min(dt, T - t)
        Nu = ev.nonlinear(uhat)
        big = ev.step_etdrk4(uhat, dt, ev.coefs(dt), Nu)
        if adaptive:
            half = ev.step_etdrk4(uhat, dt / 2, ev.coefs(dt / 2), Nu)
            half = ev.step_etdrk4(half, dt / 2, ev.coefs(dt / 2))
            err = float(np.abs(big - half).max()) / scale
            if err > rtol:
                rejections += 1
                if rejections > 12:
                    raise DivergenceError("step-rejection cascade in evolve")
                dt *= 0.5
                continue
            rejections = 0
            uhat = half
            if err < rtol / 64 and dt < T / 16:
                dt *= 1.5
        else:
            uhat = big
        t += step
        sup = float(np.abs(ev.field(uhat)).max())
        if not math.isfinite(sup) or sup > blowup:
            raise DivergenceError(f"blow-up detected at t = {t}")
        if t >= next_report - 1e-12 or t >= T - 1e-14:
            times.append(t)
            hs.append(ev.energy(uhat))
            k1s.append(ev.momentum(uhat))
            sups.append(sup)
            states.append(uhat.copy())
            next_report += report_every

    h0, k10 = hs[0], k1s[0]
    h_drift = max(abs(h - h0) for h in hs) / max(abs(h0), 1e-300)
    k1_drift = max(abs(k - k10) for k in k1s) / max(abs(k10), 1e-300)
    return EvolveResult(
        times=np.array(times),
        h_values=np.array(hs),
        k1_values=np.array(k1s),
        sup_values=np.array(sups),
        h_drift=h_drift,
        k1_drift=k1_drift,
        states=states,
    )


# -- checkpoints ---------------------------------------------------------------------------


def save_embedding(emb: TorusEmbedding, path: str) -> str:
    payload = {
        "splus": list(emb.S.splus),
        "n_x": emb.grid.n_x,
        "n_phi": emb.grid.n_phi,
        "x": {
            "shape": list(emb.x.shape),
            "re": emb.x.real.ravel().tolist(),
            "im": emb.x.imag.ravel().tolist(),
        },
        "zeta": emb.zeta.tolist(),
    }
    body = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump({"sha256": digest, "data": payload}, fh)
    return digest


def load_embedding(path: str) -> TorusEmbedding:
    """The embedding `save_embedding` wrote; TorusError for a file that is not
    such a checkpoint (a missing field, the older theta/y/z payload, arrays
    that do not fit its grid) or whose hash does not match."""
    with open(path) as fh:
        wrapper = json.load(fh)
    try:
        payload = wrapper["data"]
        if "theta" in payload:
            raise TorusError("it holds the older theta/y/z layout; solve again to rewrite it")
        body = json.dumps(payload, sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != wrapper["sha256"]:
            raise TorusError("checkpoint hash mismatch")
        S = TangentialSet.make(payload["splus"])
        grid = TruncationGrid(payload["n_x"], payload["n_phi"], S.jbar1)
        d = payload["x"]
        x = np.array(d["re"]).reshape(d["shape"]) + 1j * np.array(d["im"]).reshape(d["shape"])
        zeta = np.array(payload["zeta"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise TorusError(f"not a torus checkpoint: {type(exc).__name__} {exc}") from None
    emb = TorusEmbedding.trivial(S, grid)
    if x.shape != emb.x.shape or zeta.shape != emb.zeta.shape:
        raise TorusError(
            f"x has shape {x.shape} and zeta {zeta.shape}; splus {S.splus}, "
            f"n_x {grid.n_x} and n_phi {grid.n_phi} need {emb.x.shape} and {emb.zeta.shape}"
        )
    return TorusEmbedding(S, grid, x, zeta)
