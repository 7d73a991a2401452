"""Galerkin truncation of the rescaled Hamiltonian system, the invariant-torus
functional, a Newton solver with the geometric projection schedule, the
linearized normal-direction operator, and a pseudo-spectral time integrator.

Coordinates: (theta, y, z) with u = A_eps(theta, y, z),
    u_s = eps sqrt(xi_s + eps^(2b-2)|lambda(s)| y_s) e^{i theta_s},  s in S,
    u_j = eps^b z_j,                                                j in S^c,
and H_eps = eps^(-2b) [H^(2)(u) + H^(3)(u) + f-part].  The invariant-torus
functional is
    F(i, zeta) = omega . d_phi i - X_{H_eps}(i) + (0, zeta, 0).

Angle truncation is the square |l|_inf <= N_phi; spatial truncation keeps
normal modes |j| <= N_x.  All nonlinear terms are evaluated pseudo-spectrally
with 3x padding (exact dealiasing for the cubic nonlinearity).
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
    """Maps between coefficient arrays indexed [l1+N, l2+N] and values on the
    padded angle grid (nu = 2 throughout the torus module)."""

    def __init__(self, n_phi: int, m_phi: int):
        self.n_phi = n_phi
        self.m = m_phi
        self.ells = _ell_values(n_phi)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n_phi
        big = np.zeros((m, m), dtype=complex)
        idx = self.ells % m
        big[np.ix_(idx, idx)] = coeffs
        return scipy.fft.ifft2(big) * m * m

    def to_coeffs(self, grid: np.ndarray) -> np.ndarray:
        m = self.m
        hat = scipy.fft.fft2(grid) / (m * m)
        idx = self.ells % m
        return hat[np.ix_(idx, idx)]

    def full_hat(self, grid: np.ndarray) -> np.ndarray:
        return scipy.fft.fft2(grid) / (self.m * self.m)


# -- the embedding -------------------------------------------------------------------


@dataclass
class TorusEmbedding:
    """Truncated Fourier data of (Theta, y, z) and the counterterm zeta.

    theta/y: complex arrays (nu, 2N+1, 2N+1) with the reality symmetry
    X(-l) = conj(X(l)); z: (2N+1, 2N+1, n_j) with z(-l, -j) = conj(z(l, j));
    zeta: (nu,) real."""

    S: TangentialSet
    grid: TruncationGrid
    theta: np.ndarray
    y: np.ndarray
    z: np.ndarray
    zeta: np.ndarray

    @classmethod
    def trivial(cls, S: TangentialSet, grid: TruncationGrid) -> "TorusEmbedding":
        n = grid.n_ell
        js = normal_modes(S, grid.n_x)
        return cls(
            S=S,
            grid=grid,
            theta=np.zeros((S.nu, n, n), dtype=complex),
            y=np.zeros((S.nu, n, n), dtype=complex),
            z=np.zeros((n, n, len(js)), dtype=complex),
            zeta=np.zeros(S.nu),
        )

    def copy(self) -> "TorusEmbedding":
        return TorusEmbedding(
            self.S, self.grid, self.theta.copy(), self.y.copy(), self.z.copy(),
            self.zeta.copy(),
        )

    def enforce_reality(self) -> None:
        flip = slice(None, None, -1)
        for arr in (self.theta, self.y):
            arr += np.conj(arr[:, flip, flip])
            arr *= 0.5
        js = normal_modes(self.S, self.grid.n_x)
        jflip = _neg_perm(js)
        zc = np.conj(self.z[flip, flip][:, :, jflip])
        self.z += zc
        self.z *= 0.5

    def project(self, cutoff: int) -> None:
        """Apply the schedule projector Pi_n: keep the angle modes
        |l|_inf <= cutoff of theta, y and z.  The projector acts on the angles
        only; the x-modes of z keep the Galerkin truncation |j| <= n_x, so
        the quadratic images |j| <= 2 jbar1 of the packet survive every step."""
        ells = _ell_values(self.grid.n_phi)
        mask = (np.abs(ells)[:, None] <= cutoff) & (np.abs(ells)[None, :] <= cutoff)
        self.theta *= mask[None, :, :]
        self.y *= mask[None, :, :]
        self.z *= mask[:, :, None]


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

    def fprime(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for k, c in self.coeffs.items():
            out = out + (k * c) * u ** (k - 1)
        return out

    def fsecond(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for k, c in self.coeffs.items():
            out = out + (k * (k - 1) * c) * u ** (k - 2)
        return out

    def f(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for k, c in self.coeffs.items():
            out = out + c * u**k
        return out

    def is_zero(self) -> bool:
        return not self.coeffs


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
        self.jpos = {j: i for i, j in enumerate(self.js)}
        self.at = AngleTransform(self.grid.n_phi, self.grid.m_phi)
        self.lam_js = np.array([float(lam(j)) for j in self.js])
        self.lam_sites = np.array([float(lam(s)) for s in self.S.splus])

    @property
    def eps(self) -> float:
        return self.scaling.epsilon

    @property
    def b(self) -> float:
        return self.scaling.b


# -- pointwise state on the angle grid -------------------------------------------------


class GridState:
    """Everything the residual and the Jacobian need, evaluated on the padded
    angle grid: angles, radii, the x-Fourier modes of u and of grad H."""

    def __init__(self, prob: TorusProblem, emb: TorusEmbedding):
        self.prob = prob
        at = prob.at
        m = at.m
        nu = prob.S.nu
        eps, b = prob.eps, prob.b

        phi_1d = 2.0 * math.pi * np.arange(m) / m
        self.phi = np.meshgrid(phi_1d, phi_1d, indexing="ij")

        self.Theta = np.array([at.to_grid(emb.theta[i]) for i in range(nu)])
        self.Y = np.array([at.to_grid(emb.y[i]) for i in range(nu)])
        if max(np.abs(self.Theta.imag).max(), np.abs(self.Y.imag).max()) > 1e-8:
            raise TorusError("embedding violates reality beyond tolerance")
        self.Theta = self.Theta.real
        self.Y = self.Y.real

        self.rho = np.empty((nu, m, m))
        self.sig = np.empty((nu, m, m))
        self.e = np.empty((nu, m, m), dtype=complex)
        for i, s in enumerate(prob.S.splus):
            rad = prob.xi[i] + eps ** (2 * b - 2) * float(lam(s)) * self.Y[i]
            if rad.min() <= 0:
                bad = np.unravel_index(int(np.argmin(rad)), rad.shape)
                raise TorusError(
                    f"radicand for site {s} nonpositive at grid point {bad}"
                )
            self.rho[i] = np.sqrt(rad)
            self.sig[i] = eps ** (2 * b - 2) * float(lam(s)) / (2.0 * rad)
            ang = self.phi[i] + self.Theta[i]
            self.e[i] = np.exp(1j * ang)

        # x-Fourier modes of u on the angle grid: dict mode -> (m, m) array
        self.umod: dict[int, np.ndarray] = {}
        for i, s in enumerate(prob.S.splus):
            self.umod[s] = eps * self.rho[i] * self.e[i]
            self.umod[-s] = eps * self.rho[i] * np.conj(self.e[i])
        zg = np.empty((m, m, len(prob.js)), dtype=complex)
        for k in range(len(prob.js)):
            zg[:, :, k] = at.to_grid(emb.z[:, :, k])
        self.zgrid = zg
        for k, j in enumerate(prob.js):
            self.umod[j] = self.umod.get(j, 0) + eps**b * zg[:, :, k]

        # grad H modes: g_j = u_j - (1/2)(u*u)_j + (f'(u))_j
        mx = prob.grid.m_x
        ubig = np.zeros((m, m, mx), dtype=complex)
        for mode, val in self.umod.items():
            ubig[:, :, mode % mx] = val
        uphys = scipy.fft.ifft(ubig, axis=2) * mx
        if np.abs(uphys.imag).max() > 1e-8 * max(1.0, np.abs(uphys.real).max()):
            raise TorusError("u field is not real; reality symmetry broken")
        self.uphys = uphys.real
        nl = -0.5 * self.uphys**2
        if not prob.f_spec.is_zero():
            nl = nl + prob.f_spec.fprime(self.uphys)
        nl_hat = scipy.fft.fft(nl.astype(complex), axis=2) / mx
        self.gmod: dict[int, np.ndarray] = {}
        max_mode = 2 * max(prob.grid.n_x, 2 * prob.S.jbar1)
        for mode in range(-max_mode, max_mode + 1):
            g = nl_hat[:, :, mode % mx]
            if not prob.include_cubic:
                g = np.zeros_like(g)
            if mode in self.umod:
                g = g + self.umod[mode]
            self.gmod[mode] = g

    def u(self, mode: int) -> np.ndarray:
        z = self.umod.get(mode)
        if z is None:
            return np.zeros_like(self.rho[0], dtype=complex)
        return z

    def g(self, mode: int) -> np.ndarray:
        z = self.gmod.get(mode)
        if z is None:
            return np.zeros_like(self.rho[0], dtype=complex)
        return z


# -- residual --------------------------------------------------------------------------


@dataclass
class Residual:
    f_theta: np.ndarray  # (nu, 2N+1, 2N+1) coefficients
    f_y: np.ndarray
    f_z: np.ndarray  # (2N+1, 2N+1, nj)
    sup: float
    theta_avg: np.ndarray  # the dropped l = 0 theta rows, for honest reporting


def hamiltonian_partials(prob: TorusProblem, gs: GridState):
    """Grid fields dH/dy_i and dH/dtheta_i of the rescaled Hamiltonian."""
    eps, b = prob.eps, prob.b
    nu = prob.S.nu
    dHy = np.empty((nu, gs.rho.shape[1], gs.rho.shape[2]))
    dHth = np.empty_like(dHy)
    for i, s in enumerate(prob.S.splus):
        gm, gp = gs.g(-s), gs.g(s)
        hplus = gm * gs.e[i] + gp * np.conj(gs.e[i])
        hminus = gm * gs.e[i] - gp * np.conj(gs.e[i])
        dHy[i] = (float(lam(s)) / (2.0 * eps) * hplus / gs.rho[i]).real
        dHth[i] = (eps ** (1.0 - 2.0 * b) * 1j * gs.rho[i] * hminus).real
    return dHy, dHth


def residual(prob: TorusProblem, emb: TorusEmbedding) -> Residual:
    """The invariant-torus functional on the truncation."""
    at = prob.at
    gs = GridState(prob, emb)
    nu = prob.S.nu
    eps, b = prob.eps, prob.b

    dHy, dHth = hamiltonian_partials(prob, gs)

    ells = _ell_values(prob.grid.n_phi)
    iwl = 1j * (prob.omega[0] * ells[:, None] + prob.omega[1] * ells[None, :])

    f_theta = np.empty((nu, at.n_phi * 2 + 1, at.n_phi * 2 + 1), dtype=complex)
    f_y = np.empty_like(f_theta)
    theta_avg = np.empty(nu)
    for i in range(nu):
        rhs = at.to_coeffs(dHy[i].astype(complex))
        f_theta[i] = iwl * emb.theta[i] - rhs
        f_theta[i][prob.grid.n_phi, prob.grid.n_phi] += prob.omega[i]
        theta_avg[i] = f_theta[i][prob.grid.n_phi, prob.grid.n_phi].real
        rhs2 = at.to_coeffs(dHth[i].astype(complex))
        f_y[i] = iwl * emb.y[i] + rhs2
        f_y[i][prob.grid.n_phi, prob.grid.n_phi] += emb.zeta[i]

    nj = len(prob.js)
    f_z = np.empty((at.n_phi * 2 + 1, at.n_phi * 2 + 1, nj), dtype=complex)
    for k, j in enumerate(prob.js):
        zdot = 1j * float(lam(j)) * eps ** (-b) * gs.g(j)
        f_z[:, :, k] = iwl * emb.z[:, :, k] - at.to_coeffs(zdot)

    sup = 0.0
    for i in range(nu):
        sup = max(sup, float(np.abs(at.to_grid(f_theta[i])).max()))
        sup = max(sup, float(np.abs(at.to_grid(f_y[i])).max()))
    zsup = 0.0
    for k in range(nj):
        zsup = max(zsup, float(np.abs(at.to_grid(f_z[:, :, k])).max()))
    sup = max(sup, zsup)
    return Residual(f_theta=f_theta, f_y=f_y, f_z=f_z, sup=sup, theta_avg=theta_avg)


# -- Jacobian --------------------------------------------------------------------------


class _Assembler:
    """Sparse Jacobian assembly in Fourier variables.

    Unknown layout (complex): Theta (nu*L), y (nu*L), z (L*nj), zeta (nu),
    with L = (2N+1)^2.  Multiplication operators contribute banded blocks
    J[l_r, l_c] = mu_hat(l_r - l_c); mu_hat below `droptol` is dropped."""

    def __init__(self, prob: TorusProblem, droptol: float = 1e-11):
        self.prob = prob
        self.droptol = droptol
        n = prob.grid.n_ell
        self.L = n * n
        self.nu = prob.S.nu
        self.nj = len(prob.js)
        self.size = 2 * self.nu * self.L + self.L * self.nj + self.nu
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self._shift_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    # index helpers
    def idx_theta(self, i: int) -> int:
        return i * self.L

    def idx_y(self, i: int) -> int:
        return (self.nu + i) * self.L

    def idx_z(self, k: int) -> int:
        return 2 * self.nu * self.L + k * self.L

    def idx_zeta(self, i: int) -> int:
        return 2 * self.nu * self.L + self.nj * self.L + i

    def _pairs_for_shift(self, d1: int, d2: int):
        key = (d1, d2)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        n = self.prob.grid.n_ell
        ells = np.arange(n)
        c1 = ells[(ells + d1 >= 0) & (ells + d1 < n)]
        c2 = ells[(ells + d2 >= 0) & (ells + d2 < n)]
        cc1, cc2 = np.meshgrid(c1, c2, indexing="ij")
        cols = (cc1 * n + cc2).ravel()
        rows = ((cc1 + d1) * n + (cc2 + d2)).ravel()
        self._shift_cache[key] = (rows, cols)
        return rows, cols

    def add_mult(self, row0: int, col0: int, mu: np.ndarray) -> None:
        """Add the banded block of the multiplication operator with symbol
        mu(phi) mapping coefficient family at col0 to rows at row0."""
        at = self.prob.at
        hat = at.full_hat(mu.astype(complex))
        m = at.m
        keep = np.argwhere(np.abs(hat) > self.droptol)
        if keep.size == 0:
            return
        for a, bidx in keep:
            d1 = a if a <= m // 2 else a - m
            d2 = bidx if bidx <= m // 2 else bidx - m
            if abs(d1) > 2 * self.prob.grid.n_phi or abs(d2) > 2 * self.prob.grid.n_phi:
                continue
            rows, cols = self._pairs_for_shift(d1, d2)
            self.rows.append(rows + row0)
            self.cols.append(cols + col0)
            self.vals.append(np.full(rows.size, hat[a, bidx], dtype=complex))

    def add_diag(self, row0: int, col0: int, per_ell: np.ndarray) -> None:
        idx = np.arange(self.L)
        self.rows.append(idx + row0)
        self.cols.append(idx + col0)
        self.vals.append(per_ell.ravel().astype(complex))

    def add_entry(self, row: int, col: int, val: complex) -> None:
        self.rows.append(np.array([row]))
        self.cols.append(np.array([col]))
        self.vals.append(np.array([val], dtype=complex))

    def build(self) -> sp.csc_matrix:
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sp.csc_matrix((vals, (rows, cols)), shape=(self.size, self.size))


def jacobian(
    prob: TorusProblem, emb: TorusEmbedding, droptol: float = 1e-11
) -> sp.csc_matrix:
    """Analytic Jacobian of the residual in Fourier variables (verified
    against finite differences in the test suite)."""
    gs = GridState(prob, emb)
    A = _Assembler(prob, droptol)
    nu, js = prob.S.nu, prob.js
    eps, b = prob.eps, prob.b
    sites = prob.S.splus
    at = prob.at

    ells = _ell_values(prob.grid.n_phi)
    iwl = 1j * (prob.omega[0] * ells[:, None] + prob.omega[1] * ells[None, :])

    fsec = None
    if not prob.f_spec.is_zero():
        mx = prob.grid.m_x
        fsec_phys = prob.f_spec.fsecond(gs.uphys)
        fsec = scipy.fft.fft(fsec_phys.astype(complex), axis=2) / mx

    def conv_mode(mode: int) -> np.ndarray:
        """x-mode of the multiplier -u (+ f''(u)) acting inside delta-g."""
        if prob.include_cubic:
            out = -gs.u(mode)
        else:
            out = np.zeros_like(gs.rho[0], dtype=complex)
        if fsec is not None:
            out = out + fsec[:, :, mode % prob.grid.m_x]
        return out

    # ---- delta-u routes for tangential columns:
    # dU_{s'} = U_{s'} (i dTheta_{ i'}),  dU_{-s'} = U_{-s'} (-i dTheta_{i'})
    # dU_{+-s'} = U_{+-s'} sigma_{i'} dy_{i'}
    def du_theta(i2: int, mode_sign: int) -> np.ndarray:
        s2 = sites[i2] * mode_sign
        return 1j * mode_sign * gs.u(s2)

    def du_y(i2: int, mode_sign: int) -> np.ndarray:
        s2 = sites[i2] * mode_sign
        return gs.sig[i2] * gs.u(s2)

    # delta-g at mode k caused by tangential variations:
    # dG_k = [delta_{k = +-s'}] dU_k + conv(k - m) dU_m  (m = +-s')
    def dg_tang(k: int, i2: int, kind: str) -> np.ndarray:
        du = du_theta if kind == "theta" else du_y
        out = np.zeros_like(gs.rho[0], dtype=complex)
        for sign in (1, -1):
            m = sites[i2] * sign
            dum = du(i2, sign)
            if k == m:
                out = out + dum
            out = out + conv_mode(k - m) * dum
        return out

    # ================= theta and y rows =================
    for i, s in enumerate(sites):
        gm, gp = gs.g(-s), gs.g(s)
        ei, eic = gs.e[i], np.conj(gs.e[i])
        hplus = gm * ei + gp * eic
        hminus = gm * ei - gp * eic
        li = float(lam(s))
        P = li / (2.0 * eps) * hplus / gs.rho[i]

        #透 residual rows: f_theta_i = iwl Theta_i - dHy_i ; f_y_i = iwl y_i + dHth_i
        A.add_diag(A.idx_theta(i), A.idx_theta(i), iwl)
        A.add_diag(A.idx_y(i), A.idx_y(i), iwl)
        A.add_entry(A.idx_y(i) + (prob.grid.n_phi * prob.grid.n_ell + prob.grid.n_phi),
                    A.idx_zeta(i), 1.0)

        pref_y = li / (2.0 * eps) / gs.rho[i]
        pref_th = eps ** (1.0 - 2.0 * b) * 1j * gs.rho[i]

        for i2 in range(nu):
            # -- theta row, column Theta_{i2}
            mu = np.zeros_like(ei)
            if i2 == i:
                mu = mu + pref_y * 1j * hminus  # explicit dTheta on e^{i theta}
            mu = mu + pref_y * (dg_tang(-s, i2, "theta") * ei + dg_tang(s, i2, "theta") * eic)
            A.add_mult(A.idx_theta(i), A.idx_theta(i2), -mu)

            # -- theta row, column y_{i2}
            mu = np.zeros_like(ei)
            if i2 == i:
                mu = mu - P * gs.sig[i]  # 1/rho variation
            mu = mu + pref_y * (dg_tang(-s, i2, "y") * ei + dg_tang(s, i2, "y") * eic)
            A.add_mult(A.idx_theta(i), A.idx_y(i2), -mu)

            # -- y row, column Theta_{i2}
            mu = np.zeros_like(ei)
            if i2 == i:
                mu = mu + pref_th * 1j * hplus
            mu = mu + pref_th * (dg_tang(-s, i2, "theta") * ei - dg_tang(s, i2, "theta") * eic)
            A.add_mult(A.idx_y(i), A.idx_theta(i2), mu)

            # -- y row, column y_{i2}
            mu = np.zeros_like(ei)
            if i2 == i:
                mu = mu + pref_th * gs.sig[i] * hminus  # rho variation
            mu = mu + pref_th * (dg_tang(-s, i2, "y") * ei - dg_tang(s, i2, "y") * eic)
            A.add_mult(A.idx_y(i), A.idx_y(i2), mu)

        # -- z columns (delta g at modes -s, +s from dU_{j'} = eps^b dz_{j'})
        for k2, j2 in enumerate(js):
            mu_m = conv_mode(-s - j2) * eps**b
            mu_p = conv_mode(s - j2) * eps**b
            block = pref_y * (mu_m * ei + mu_p * eic)
            A.add_mult(A.idx_theta(i), A.idx_z(k2), -block)
            block2 = pref_th * (mu_m * ei - mu_p * eic)
            A.add_mult(A.idx_y(i), A.idx_z(k2), block2)

    # ================= z rows =================
    conv_cache: dict[int, np.ndarray | None] = {}

    def conv_cached(mode: int) -> np.ndarray | None:
        if mode not in conv_cache:
            mu = conv_mode(mode)
            conv_cache[mode] = mu if np.abs(mu).max() > droptol / 10 else None
        return conv_cache[mode]

    for k, j in enumerate(js):
        lj = float(lam(j))
        A.add_diag(A.idx_z(k), A.idx_z(k), iwl - 1j * lj)
        for k2, j2 in enumerate(js):
            mu = conv_cached(j - j2)
            if mu is None:
                continue
            A.add_mult(A.idx_z(k), A.idx_z(k2), -1j * lj * mu)
        for i2 in range(nu):
            mu_th = dg_tang(j, i2, "theta") * eps ** (-b)
            mu_y = dg_tang(j, i2, "y") * eps ** (-b)
            A.add_mult(A.idx_z(k), A.idx_theta(i2), -1j * lj * mu_th)
            A.add_mult(A.idx_z(k), A.idx_y(i2), -1j * lj * mu_y)

    # ================= phase rows =================
    # the nu translation degeneracies are fixed by Theta_i(0) = 0; these rows
    # occupy the index range otherwise associated with zeta.
    n = prob.grid.n_ell
    center = prob.grid.n_phi * n + prob.grid.n_phi
    for i in range(nu):
        A.add_entry(A.idx_zeta(i), A.idx_theta(i) + center, 1.0)

    return A.build()


def _flatten_residual(
    prob: TorusProblem, res: Residual, emb: TorusEmbedding
) -> np.ndarray:
    parts = [res.f_theta.reshape(prob.S.nu, -1).ravel(),
             res.f_y.reshape(prob.S.nu, -1).ravel()]
    nj = len(prob.js)
    parts.append(np.moveaxis(res.f_z, 2, 0).reshape(nj, -1).ravel())
    # phase rows: drive Theta_i(0) to zero
    c = prob.grid.n_phi
    parts.append(np.array([emb.theta[i][c, c] for i in range(prob.S.nu)]))
    return np.concatenate(parts)


def _unflatten_update(prob: TorusProblem, vec: np.ndarray, emb: TorusEmbedding):
    n = prob.grid.n_ell
    L = n * n
    nu = prob.S.nu
    nj = len(prob.js)
    th = vec[: nu * L].reshape(nu, n, n)
    yy = vec[nu * L : 2 * nu * L].reshape(nu, n, n)
    zz = np.moveaxis(vec[2 * nu * L : 2 * nu * L + nj * L].reshape(nj, n, n), 0, 2)
    zeta = vec[2 * nu * L + nj * L :]
    emb.theta += th
    emb.y += yy
    emb.z += zz
    emb.zeta += zeta.real
    emb.enforce_reality()


# -- Newton solver ----------------------------------------------------------------------

MAX_BACKTRACK = 8  # step halvings tried before a Newton step counts as failed


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
    """Smallest |omega . l - lambda(j)| over the truncation (diagnostic)."""
    best, wit = math.inf, ()
    ells = _ell_values(prob.grid.n_phi)
    for l1 in ells:
        for l2 in ells:
            wl = prob.omega[0] * l1 + prob.omega[1] * l2
            for j in prob.js:
                v = abs(wl - float(lam(j)))
                if v < best:
                    best, wit = v, ((int(l1), int(l2)), j)
    return best, wit


def _linear_step(J: sp.csc_matrix, rhs: np.ndarray, prob: TorusProblem) -> np.ndarray:
    """Sparse LU solve with a minimum-norm fallback for degenerate systems
    (e.g. the zero-nonlinearity problem, where constant action shifts do not
    move the frequency and the Jacobian has an exact kernel)."""
    try:
        delta = spla.splu(J).solve(rhs)
        if np.all(np.isfinite(delta)):
            return delta
    except RuntimeError:
        pass
    if J.shape[0] > 6000:
        div, wit = min_linear_divisor(prob)
        raise TorusError(
            "singular linearization; nearest linear divisor "
            f"|omega.l - lambda(j)| = {div:.3e} at {wit}"
        )
    delta, *_ = np.linalg.lstsq(J.toarray(), rhs, rcond=None)
    return delta


def newton_solve(
    prob: TorusProblem,
    start: TorusEmbedding | None = None,
    schedule: NewtonSchedule | None = None,
) -> NewtonResult:
    """Damped Newton on (embedding, zeta) with the geometric projection
    schedule; the linearized system is solved by sparse LU on the truncation.

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
    res = residual(prob, emb)
    history = [res.sup]
    grow = 0

    for it in range(schedule.max_iter):
        if res.sup < schedule.tol:
            return NewtonResult(emb, history, True, it)
        J = jacobian(prob, emb)
        rhs = -_flatten_residual(prob, res, emb)
        delta = _linear_step(J, rhs, prob)

        full_cut = prob.grid.n_phi
        cutoff = schedule.cutoff(it, full_cut)
        partial = cutoff < full_cut

        def try_delta(d: np.ndarray) -> bool:
            nonlocal emb, res
            step = 1.0
            for _ in range(MAX_BACKTRACK + 1):
                trial = emb.copy()
                _unflatten_update(prob, step * d, trial)
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

        improved = try_delta(delta)
        if not improved and J.shape[0] <= 6000:
            # an exactly singular block can leave LU with a finite but useless
            # step; retry once with the minimum-norm solution
            delta2, *_ = np.linalg.lstsq(J.toarray(), rhs, rcond=None)
            improved = try_delta(delta2)
        if not improved:
            grow += 1
            if grow >= 3:
                raise DivergenceError(
                    f"residual stalled/grew for 3 steps (last {res.sup:.3e})"
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
    eps, b = prob.eps, prob.b
    ells = _ell_values(prob.grid.n_phi)
    e1 = np.exp(1j * ells * phi[0])
    e2 = np.exp(1j * ells * phi[1])

    def eval_field(coeffs: np.ndarray) -> complex:
        return complex(e1 @ coeffs @ e2)

    out: dict[int, complex] = {}
    for i, s in enumerate(prob.S.splus):
        th = eval_field(emb.theta[i]).real + phi[i]
        yv = eval_field(emb.y[i]).real
        rad = prob.xi[i] + eps ** (2 * b - 2) * float(lam(s)) * yv
        if rad <= 0:
            raise TorusError(f"negative radicand at site {s}, phi={phi}")
        amp = eps * math.sqrt(rad)
        out[s] = amp * np.exp(1j * th)
        out[-s] = amp * np.exp(-1j * th)
    for k, j in enumerate(prob.js):
        val = eval_field(emb.z[:, :, k])
        if val != 0:
            out[j] = out.get(j, 0) + eps**b * val
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
    eps, b = prob.eps, prob.b
    gs = GridState(prob, emb)
    at = prob.at
    m = at.m

    # basis: (l, j) with |l|_inf <= ell_cut, j normal, |j| <= n_x
    ells = [
        (l1, l2)
        for l1 in range(-ell_cut, ell_cut + 1)
        for l2 in range(-ell_cut, ell_cut + 1)
    ]
    js = prob.js
    jbar = S.splus
    basis = [(l, j) for l in ells for j in js]
    keys: dict[tuple, list[int]] = {}
    for idx, (l, j) in enumerate(basis):
        key = j - (l[0] * jbar[0] + l[1] * jbar[1])
        keys.setdefault(key, []).append(idx)

    # angle spectra of the u-field x-modes (multiplication part); the
    # coupling stems from the cubic Hamiltonian, so it vanishes when the
    # cubic term is disabled and the operator is exactly omega.dphi - J
    uhat: dict[int, np.ndarray] = {}
    if prob.include_cubic:
        for mode, val in gs.umod.items():
            uhat[mode] = at.full_hat(val)

    # symbolic correction pieces, evaluated at the unperturbed wave packet
    corr = (
        _correction_pieces(S, prob.grid.n_x, phib_order)
        if prob.include_cubic
        else []
    )
    corr_entries: dict[tuple[int, int], list] = {}
    sqrt_xi = {s: math.sqrt(prob.xi[i]) for i, s in enumerate(S.splus)}
    sqrt_xi.update({-s: sqrt_xi[s] for s in S.splus})
    for poly in corr:
        deg = poly.degree
        for mono, cval in poly.terms.items():
            zslots = [v for v in mono if S.in_sc(v)]
            vslots = [v for v in mono if S.in_s(v)]
            if len(zslots) != 2:
                continue
            amp = complex(cval) * eps ** (len(vslots)) * math.prod(
                sqrt_xi[v] for v in vslots
            )
            dl = [0, 0]
            for v in vslots:
                vec = S.angle_vector(v)
                dl[0] += vec[0]
                dl[1] += vec[1]
            a_z, b_z = zslots
            mult = 2 if a_z == b_z else 1
            # quadratic form amp * z_a z_b: d/dz_{-j} nonzero for j = -a, -b
            for out_slot, other in ((a_z, b_z), ((b_z, a_z) if a_z != b_z else (None, None))):
                if out_slot is None:
                    continue
                jr = -out_slot
                corr_entries.setdefault((jr, other), []).append(
                    (tuple(dl), amp * mult)
                )

    corr_by_pair: dict[tuple[int, int], dict[tuple[int, int], complex]] = {}
    for (jr, other), lst in corr_entries.items():
        d: dict[tuple[int, int], complex] = {}
        for dl, amp in lst:
            d[dl] = d.get(dl, 0.0) + amp
        corr_by_pair[(jr, other)] = d

    eigvals = []
    matched: dict = {}
    quality: dict = {}
    blocks_out = []
    for key, idxs in sorted(keys.items()):
        nb = len(idxs)
        M = np.zeros((nb, nb), dtype=complex)
        local = [basis[i] for i in idxs]
        for a, (l, j) in enumerate(local):
            wl = prob.omega[0] * l[0] + prob.omega[1] * l[1]
            lj = float(lam(j))
            M[a, a] += 1j * wl - 1j * lj
            for a2, (l2, j2) in enumerate(local):
                dl = (l[0] - l2[0], l[1] - l2[1])
                # multiplication by the embedding field
                hat = uhat.get(j - j2)
                if hat is not None:
                    v = hat[dl[0] % m, dl[1] % m]
                    if abs(v) > 1e-15:
                        M[a, a2] += 1j * lj * v
                # symbolic eps^2 corrections: L = omega.d_phi - A with
                # A-entry i lambda(j) d^2 Q/dz_{-j} dz_{j2}
                cd = corr_by_pair.get((j, j2))
                if cd is not None:
                    amp = cd.get(dl)
                    if amp is not None:
                        M[a, a2] -= 1j * lj * amp
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
        js=js,
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
    exponential (ETDRK4) scheme for the stiff dispersive part."""

    def __init__(self, n_modes: int, f_spec: FSpec | None = None, cubic: bool = True):
        self.n = n_modes
        self.f_spec = f_spec or FSpec()
        self.cubic = cubic
        self.mx = scipy.fft.next_fast_len(3 * n_modes + 1)
        k = np.fft.fftfreq(self.mx, d=1.0 / self.mx).astype(int)
        self.k = k
        self.lam = k * (4.0 + k * k) / (1.0 + k * k)
        self.mask = np.abs(k) <= n_modes
        self.L = 1j * self.lam

    def nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        if not self.cubic and self.f_spec.is_zero():
            return np.zeros_like(uhat)
        u = scipy.fft.ifft(uhat) * self.mx
        w = np.zeros_like(u.real)
        if self.cubic:
            w = w - 0.5 * u.real**2
        if not self.f_spec.is_zero():
            w = w + self.f_spec.fprime(u.real)
        what = scipy.fft.fft(w.astype(complex)) / self.mx
        return 1j * self.lam * what * self.mask

    def energy(self, uhat: np.ndarray) -> float:
        u = scipy.fft.ifft(uhat).real * self.mx
        h = 0.5 * float(np.sum(np.abs(uhat) ** 2))
        if self.cubic:
            h -= float(np.mean(u**3)) / 6.0
        if not self.f_spec.is_zero():
            h += float(np.mean(self.f_spec.f(u)))
        return h

    def momentum(self, uhat: np.ndarray) -> float:
        k = self.k
        w = np.where(k == 0, 0.0, (1.0 + k * k) / (4.0 + k * k))
        return 0.5 * float(np.sum(w * np.abs(uhat) ** 2))

    def step_etdrk4(self, uhat: np.ndarray, dt: float, coefs) -> np.ndarray:
        E, E2, Q, f1, f2, f3 = coefs
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
        z = dt * self.L
        Q, f1, f2, f3 = _phi_funcs(z)
        return np.exp(z), np.exp(z / 2), Q, f1, f2, f3


REPORT_POINTS = 64  # evolve records the trajectory every T / REPORT_POINTS


def evolve(
    u0: dict[int, complex] | np.ndarray,
    T: float,
    n_modes: int = 128,
    dt: float | None = None,
    adaptive: bool = True,
    rtol: float = 1e-10,
    f_spec: FSpec | None = None,
    cubic: bool = True,
    blowup: float = 1e6,
) -> EvolveResult:
    """Integrate the DP flow from Fourier data; report relative drifts of H
    and of the momentum K1."""
    ev = DPEvolver(n_modes, f_spec, cubic)
    uhat = np.zeros(ev.mx, dtype=complex)
    if isinstance(u0, dict):
        for j, c in u0.items():
            if abs(j) <= n_modes:
                uhat[j % ev.mx] = c
    else:
        u0 = np.asarray(u0)
        for j in range(-n_modes, n_modes + 1):
            uhat[j % ev.mx] = u0[j % len(u0)]
    uhat *= ev.mask

    if dt is None:
        dt = min(0.01, T / 100.0)
    t = 0.0
    times = [0.0]
    hs = [ev.energy(uhat)]
    k1s = [ev.momentum(uhat)]
    sups = [float(np.abs(scipy.fft.ifft(uhat) * ev.mx).max())]
    states = [uhat.copy()]
    report_every = max(T / REPORT_POINTS, dt)
    next_report = report_every
    coefs = ev.coefs(dt)
    coefs_half = ev.coefs(dt / 2)
    rejections = 0
    scale = max(sups[0], 1e-30)

    while t < T - 1e-14:
        step = min(dt, T - t)
        if step != dt:
            coefs = ev.coefs(step)
            coefs_half = ev.coefs(step / 2)
            dt = step
        big = ev.step_etdrk4(uhat, dt, coefs)
        if adaptive:
            half = ev.step_etdrk4(uhat, dt / 2, coefs_half)
            half = ev.step_etdrk4(half, dt / 2, coefs_half)
            err = float(np.abs(big - half).max()) / scale
            if err > rtol:
                rejections += 1
                if rejections > 12:
                    raise DivergenceError("step-rejection cascade in evolve")
                dt *= 0.5
                coefs = ev.coefs(dt)
                coefs_half = ev.coefs(dt / 2)
                continue
            rejections = 0
            uhat = half
            if err < rtol / 64 and dt < T / 16:
                dt *= 1.5
                coefs = ev.coefs(dt)
                coefs_half = ev.coefs(dt / 2)
        else:
            uhat = big
        t += step
        sup = float(np.abs(scipy.fft.ifft(uhat) * ev.mx).max())
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
    def pack(arr: np.ndarray) -> dict:
        return {
            "shape": list(arr.shape),
            "re": arr.real.ravel().tolist(),
            "im": arr.imag.ravel().tolist(),
        }

    payload = {
        "splus": list(emb.S.splus),
        "n_x": emb.grid.n_x,
        "n_phi": emb.grid.n_phi,
        "theta": pack(emb.theta),
        "y": pack(emb.y),
        "z": pack(emb.z),
        "zeta": emb.zeta.tolist(),
    }
    body = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump({"sha256": digest, "data": payload}, fh)
    return digest


def load_embedding(path: str) -> TorusEmbedding:
    with open(path) as fh:
        wrapper = json.load(fh)
    payload = wrapper["data"]
    body = json.dumps(payload, sort_keys=True)
    if hashlib.sha256(body.encode()).hexdigest() != wrapper["sha256"]:
        raise TorusError("checkpoint hash mismatch")

    def unpack(d: dict) -> np.ndarray:
        re = np.array(d["re"]).reshape(d["shape"])
        im = np.array(d["im"]).reshape(d["shape"])
        return re + 1j * im

    S = TangentialSet.make(payload["splus"])
    grid = TruncationGrid(payload["n_x"], payload["n_phi"], S.jbar1)
    return TorusEmbedding(
        S=S,
        grid=grid,
        theta=unpack(payload["theta"]),
        y=unpack(payload["y"]),
        z=unpack(payload["z"]),
        zeta=np.array(payload["zeta"]),
    )
