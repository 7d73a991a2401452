"""Galerkin truncation of the rescaled Hamiltonian system on the momentum
lattice, the invariant-torus functional on T^nu, a damped Newton solver on
the full truncation, the linearized normal-direction operator, and a
pseudo-spectral time integrator: ETDRK4 on the real half spectrum (rfft),
with step doubling whose full step and first half step run as one stacked
step.  One function, `nonlinear_density`, evaluates the nonlinear density
P(u) = -u^3/6 + f(u) and its derivatives for the residual, the Jacobian and
the integrator.

Coordinates: (theta, y, z) with u = A_eps(theta, y, z),
    u_s = eps sqrt(xi_s + eps^(2b-2)|lambda(s)| y_s) e^{i theta_s},  s in S,
    u_j = eps^b z_j,                                                j in S^c,
and H_eps = eps^(-2b) [H^(2)(u) + H^(3)(u) + f-part].  The invariant-torus
functional is
    F(i, zeta) = omega . d_phi i - X_{H_eps}(i) + (0, zeta, 0).

DP commutes with x-translation and the wave packet keeps momentum, so the
torus is a traveling quasi-periodic wave u(x, phi) = V(phi + sbar x): an
angle mode l of a family can be nonzero only when l.sbar equals the
family's x-mode, 0 for Theta and y and j for z_j (`MomentumLattice`).  The
embedding holds these coefficients alone, the z_j merged into one function
Z on T^nu, and the functional is evaluated on the angle grid of T^nu alone:
V = sum_s 2 eps rho_s cos(psi_s + Theta_s) + eps^b Z and G = V + P'(V), and
each row reads the lattice coefficients of G times its prefactor.

Angle truncation is the cube |l|_inf <= N_phi; the normal modes are the
lattice points with |l.sbar| <= N_x.  Nonlinear terms are evaluated
pseudo-spectrally on the padded angle grid (TorusProblem.at).
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_BUDGET, BudgetExceeded, FSpec, ScalingParams, TangentialSet, _Deferred, lam,
)
from .polyham import HomPoly, flow_conjugate, project_z_degree
from .spectrum import EigenModel
from .twist import frequency_map
from .wbnf import dp_h2, dp_h3, index_universe, run_wbnf


# scipy.sparse takes about 0.3 s to import and only Newton's Jacobian and LU
# use it, so the linearized operator and the evolver never load it
sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")


class TorusError(RuntimeError):
    pass


class DivergenceError(TorusError):
    pass


# -- truncation bookkeeping ---------------------------------------------------------


def fast_len(n: int) -> int:
    """The smallest 11-smooth length >= n, one that the FFT factors into its
    radices 2, 3, 5, 7 and 11 (the value of scipy.fft.next_fast_len)."""
    if n < 1:
        raise ValueError(f"need a positive transform length, got {n}")
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


@dataclass(frozen=True)
class TruncationGrid:
    """Fourier truncation: angle modes |l|_inf <= n_phi, normal modes
    |j| <= n_x, with a padded pseudo-spectral angle grid.  The bound n_x
    needs against the sites is checked where they meet (MomentumLattice)."""

    n_x: int
    n_phi: int

    def __post_init__(self):
        if self.n_phi < 1:
            raise ValueError(f"need n_phi >= 1 angle modes, got {self.n_phi}")

    @property
    def m_phi(self) -> int:
        # 4N+2 makes every coupling |l_r - l_c| <= 2N a unique circular shift,
        # so the assembled Jacobian is the exact derivative of the grid
        # functional (3N+1 would already dealias the cubic terms).
        return fast_len(4 * self.n_phi + 2)


def normal_modes(S: TangentialSet, n_x: int) -> list[int]:
    return [j for j in range(-n_x, n_x + 1) if S.in_sc(j)]


def angle_modes(n: int, nu: int) -> np.ndarray:
    """The (2n + 1)^nu angle modes |l|_inf <= n as an (L, nu) array in
    row-major order: -l sits at row L - 1 - k of l at row k, l = 0 at L // 2."""
    r = np.arange(-n, n + 1)
    return np.stack(np.meshgrid(*[r] * nu, indexing="ij"), axis=-1).reshape(-1, nu)


def ell_dot(ell: np.ndarray, v) -> np.ndarray:
    """l.v for each row l of `ell`, an elementwise product summed over the nu
    axis (at nu = 2 the two-term sum l_1 v_1 + l_2 v_2)."""
    return (ell * np.asarray(v)).sum(axis=-1)


class MomentumLattice:
    """The Newton unknowns: the angle modes l, |l|_inf <= n_phi, whose
    momentum l.sbar equals their family's x-mode.  The entries run in blocks
    Theta_1..Theta_nu, y_1..y_nu (l.sbar = 0 each) and z (l.sbar a normal mode
    j, |j| <= n_x), each block in the row-major order of l.  DP commutes with
    x-translation, so the functional maps an embedding supported here to a
    residual supported here.

    fam: the block of each entry, i for Theta_i, nu + i for y_i, 2 nu for z;
    full_fam: its family in the full truncation, 2 nu + k for z_j with
    j = js[k]; ell: (n, nu) angle modes; j: momentum l.sbar; neg: the entry of
    (fam, -l); origin: the entries of l = 0 in the 2 nu tangential blocks."""

    def __init__(self, S: TangentialSet, grid: TruncationGrid):
        if grid.n_x <= 2 * S.jbar1:
            raise ValueError(f"need n_x > 2 jbar1 = {2 * S.jbar1} so the quadratic images "
                             f"of S fit, got n_x = {grid.n_x}")
        modes, nt = angle_modes(grid.n_phi, S.nu), 2 * S.nu
        L, momentum = len(modes), ell_dot(modes, S.splus)
        js = normal_modes(S, grid.n_x)
        zero, normal = np.flatnonzero(momentum == 0), np.flatnonzero(np.isin(momentum, js))
        cell = np.concatenate([np.tile(zero, nt), normal])
        self.fam = np.repeat(np.arange(nt + 1), [len(zero)] * nt + [len(normal)])
        self.ell = modes[cell]
        self.j = momentum[cell]
        self.full_fam = np.where(self.fam < nt, self.fam, nt + np.searchsorted(js, self.j))
        # -l sits at row-major cell L - 1 - cell; the keys fam L + cell ascend
        key = self.fam * L + cell
        self.neg = np.searchsorted(key, self.fam * L + L - 1 - cell)
        self.origin = np.flatnonzero((cell == L // 2) & (self.fam < nt))
        for a in (self.fam, self.ell, self.j, self.full_fam, self.neg, self.origin):
            a.flags.writeable = False


@functools.lru_cache(maxsize=None)
def momentum_lattice(S: TangentialSet, grid: TruncationGrid) -> MomentumLattice:
    """The lattice of (S, grid), built once and shared read-only."""
    return MomentumLattice(S, grid)


class AngleTransform:
    """Maps between coefficients, given per entry as a field of a stack and
    an angle mode l, and values on the padded angle grid of T^nu, m points
    per angle; one FFT over the last nu axes transforms the whole stack."""

    def __init__(self, m: int, nu: int):
        self.m, self.nu = m, nu
        self.shape = (m,) * nu
        self.axes = tuple(range(-nu, 0))

    def to_grid(self, coeffs: np.ndarray, fields: np.ndarray, ell: np.ndarray, n_fields: int):
        big = np.zeros((n_fields, *self.shape), dtype=complex)
        big[(fields, *(ell % self.m).T)] = coeffs
        return np.fft.ifftn(big, axes=self.axes, norm="forward")

    def fft(self, grid: np.ndarray) -> np.ndarray:
        """The angle coefficients of grid values: the FFT over the last nu
        axes divided by m^nu."""
        return np.fft.fftn(grid, axes=self.axes, norm="forward")

    def to_coeffs(self, grid: np.ndarray, fields: np.ndarray, ell: np.ndarray) -> np.ndarray:
        return self.fft(grid)[(fields, *(ell % self.m).T)]

    def sites(self, v) -> np.ndarray:
        """One value per site, shaped to broadcast against (nu, *shape) grids."""
        return np.reshape(v, (-1,) + (1,) * self.nu)


# -- the embedding -------------------------------------------------------------------


@dataclass
class TorusEmbedding:
    """The lattice coefficients of (Theta, y, z) and the counterterm zeta.

    x: complex (n,), the entries of `momentum_lattice(S, grid)` in its order,
    which is the order of the Jacobian's unknowns, with the reality symmetry
    x(fam, -l) = conj(x(fam, l)) (on z it maps z_j to z_-j); zeta: (nu,)
    real."""

    S: TangentialSet
    grid: TruncationGrid
    x: np.ndarray
    zeta: np.ndarray

    @classmethod
    def trivial(cls, S: TangentialSet, grid: TruncationGrid) -> "TorusEmbedding":
        n = len(momentum_lattice(S, grid).fam)
        return cls(S, grid, np.zeros(n, dtype=complex), np.zeros(S.nu))

    def copy(self) -> "TorusEmbedding":
        return TorusEmbedding(self.S, self.grid, self.x.copy(), self.zeta.copy())

    @property
    def lattice(self) -> MomentumLattice:
        return momentum_lattice(self.S, self.grid)

    def enforce_reality(self) -> None:
        self.x += np.conj(self.x[self.lattice.neg])
        self.x *= 0.5


# -- problem data ---------------------------------------------------------------------


def nonlinear_density(u: np.ndarray, n: int, f_spec: FSpec, cubic: bool = True) -> np.ndarray:
    """The n-th derivative (n = 0, 1, 2) of the nonlinear density
    P(u) = -u^3/6 [cubic] + sum_k c_k u^k at the grid values u."""
    terms = [*f_spec.coeffs.items(), *([(3, -1.0 / 6.0)] if cubic else [])]
    if not terms:
        return np.zeros_like(u)
    (k, c), *rest = terms
    out = math.perm(k, n) * c * u ** (k - n)
    for k, c in rest:
        out = out + math.perm(k, n) * c * u ** (k - n)
    return out


@dataclass
class TorusProblem:
    """The torus of amplitudes xi on the sites S at epsilon.  Its frequency
    is the frequency-amplitude map omega = omega_bar + eps^2 A xi of the
    twist, evaluated exactly: int and Fraction entries of xi are taken as
    given, a float x as Fraction(str(x)), and eps as the nearest fraction
    with denominator <= 10^12 to Fraction(str(eps))."""

    S: TangentialSet
    grid: TruncationGrid
    xi: tuple[float, ...]
    scaling: ScalingParams
    f_spec: FSpec = field(default_factory=FSpec)
    include_cubic: bool = True
    omega: np.ndarray = field(init=False)

    def __post_init__(self):
        xi = [v if isinstance(v, (int, Fraction)) else Fraction(str(v)) for v in self.xi]
        eps = Fraction(str(self.eps)).limit_denominator(10**12)
        self.omega = np.array([float(w) for w in frequency_map(self.S, xi, eps)])
        self.xi = tuple(float(v) for v in self.xi)
        self.js = normal_modes(self.S, self.grid.n_x)
        self.lattice = momentum_lattice(self.S, self.grid)
        # The angle grid.  The lattice coefficients sit at |l|_inf <= N, so
        # for the top power u^k of P the product u^(k-1) in P'(V), and
        # P''(V) times a step, hold modes up to (k-1)N, and the rows read
        # modes up to N: with m >= kN + 1 points per angle no aliased image
        # of a product lands on a row.  The cubic needs 3N + 1, below m_phi.
        # Only the non-polynomial action-angle map (e^{i Theta},
        # sqrt(xi + ... y)) aliases, at the decay of its Fourier tails.
        top = max(self.f_spec.coeffs, default=0)
        self.at = AngleTransform(
            max(self.grid.m_phi, fast_len(top * self.grid.n_phi + 1)), self.S.nu
        )
        self.lam_js = np.array([float(lam(j)) for j in self.js])
        self.lam_sites = np.array([float(lam(s)) for s in self.S.splus])
        # lambda(l.sbar) on the z entries, 0 on Theta and y
        z = self.lattice.fam == 2 * self.S.nu
        self.lam_lat = np.where(z, self.lam_js[self.lattice.full_fam - 2 * self.S.nu], 0.0)
        # the coefficient of each row's field: 1 on Theta and y, -i lambda on z
        self.row_coef = np.where(z, -1j * self.lam_lat, 1.0)

    @property
    def eps(self) -> float:
        return self.scaling.epsilon

    @property
    def b(self) -> float:
        return self.scaling.b


# -- pointwise state on the angle grid -------------------------------------------------


class GridState:
    """Everything the residual and the Jacobian need, evaluated on the padded
    angle grid of T^nu: angles, radii, the field V with u(x, phi) =
    V(phi + sbar x), G = V + P'(V), and the row prefactors `rows`.  Row r
    reads the lattice coefficients of rows[r] G: the momentum-0 part of
    cos_i G is the x-mode pair g_(-+s_i) that drives Theta_i and y_i."""

    def __init__(self, prob: TorusProblem, emb: TorusEmbedding):
        at, m, lat = prob.at, prob.at.m, prob.lattice
        eps, b = prob.eps, prob.b
        nu = prob.S.nu

        phi_1d = 2.0 * math.pi * np.arange(m) / m
        phi = np.array(np.meshgrid(*[phi_1d] * nu, indexing="ij"))
        X = at.to_grid(emb.x, lat.fam, lat.ell, 2 * nu + 1)
        if np.abs(X[: 2 * nu].imag).max() > 1e-8:
            raise TorusError("embedding violates reality beyond tolerance")
        Theta, Y = X[:nu].real, X[nu : 2 * nu].real

        scale = at.sites(eps ** (2 * b - 2) * prob.lam_sites)
        rad = at.sites(prob.xi) + scale * Y
        low = rad.min(axis=at.axes) <= 0
        if low.any():
            i = int(np.argmax(low))
            bad = np.unravel_index(int(np.argmin(rad[i])), rad[i].shape)
            raise TorusError(f"radicand for site {prob.S.splus[i]} nonpositive at grid point {bad}")
        self.rho = np.sqrt(rad)
        self.sig = scale / (2.0 * rad)
        self.cos, self.sin = np.cos(phi + Theta), np.sin(phi + Theta)

        V = 2.0 * eps * (self.rho * self.cos).sum(axis=0) + eps**b * X[2 * nu]
        if np.abs(V.imag).max() > 1e-8 * max(1.0, np.abs(V.real).max()):
            raise TorusError("u field is not real; reality symmetry broken")
        self.V = V.real
        self.G = self.V + nonlinear_density(self.V, 1, prob.f_spec, prob.include_cubic)

        # f_theta_i = iwl Theta_i - dH/dy_i,  f_y_i = iwl y_i + dH/dtheta_i,
        # f_z = iwl z - i lambda(l.sbar) eps^-b G
        self.rows = np.concatenate([
            -at.sites(prob.lam_sites / eps) * self.cos / self.rho,
            -2.0 * eps ** (1.0 - 2.0 * b) * self.rho * self.sin,
            np.full((1, *at.shape), eps ** (-b)),
        ])


# -- residual --------------------------------------------------------------------------


@dataclass
class Residual:
    f: np.ndarray  # the rows on the lattice, in the order of TorusEmbedding.x
    sup: float  # max over the families Theta_i, y_i and z_j of the angle-grid sup
    state: GridState  # the embedding on the angle grid, which `jacobian` reads


def residual(prob: TorusProblem, emb: TorusEmbedding) -> Residual:
    """The invariant-torus functional on the truncation, with the grid state
    it was evaluated from."""
    at, lat, nu = prob.at, prob.lattice, prob.S.nu
    gs = GridState(prob, emb)
    f = 1j * ell_dot(lat.ell, prob.omega) * emb.x
    f += prob.row_coef * at.to_coeffs(gs.rows * gs.G, lat.fam, lat.ell)
    f[lat.origin[:nu]] += prob.omega
    f[lat.origin[nu:]] += emb.zeta
    # each family of the full truncation (z_j per momentum class) on its own
    grid = at.to_grid(f, lat.full_fam, lat.ell, 2 * nu + len(prob.js))
    return Residual(f=f, sup=float(np.abs(grid).max()), state=gs)


# -- Jacobian --------------------------------------------------------------------------


DROP_TOL = 1e-11  # the Jacobian keeps the symbol entries above this modulus


def jacobian(prob: TorusProblem, gs: GridState) -> sp.csc_matrix:
    """Analytic Jacobian of the residual on the momentum lattice at the
    embedding that `gs` evaluates, `residual(prob, emb).state` (verified
    against finite differences in the test suite).

    Unknowns (complex): the lattice coefficients TorusEmbedding.x, then
    zeta (nu).  Rows: the residual at the same coefficients, then the nu
    phase rows Theta_i(0) = 0 that fix the translation degeneracies.  The
    block between two of the families Theta_i, y_i and z is omega.d_phi on
    the diagonal plus the multiplication operator of a symbol mu(phi),
    J[l_r, l_c] = row_coef(l_r) mu_hat(l_r - l_c); the (2 nu + 1)^2 symbols
    go through one FFT, and the entries with |J| <= DROP_TOL are dropped."""
    at, lat, nu = prob.at, prob.lattice, prob.S.nu
    eps, b = prob.eps, prob.b

    # delta-G per unit change of each column family: (1 + P''(V)) dV with
    # dV/dTheta_i = -2 eps rho_i sin_i and dV/dy_i = 2 eps rho_i sigma_i cos_i;
    # for z, dV/dZ = eps^b and the identity part is the diagonal's -i lambda
    d2P = nonlinear_density(gs.V, 2, prob.f_spec, prob.include_cubic)
    dV = np.concatenate([-2.0 * eps * gs.rho * gs.sin, 2.0 * eps * gs.rho * gs.sig * gs.cos])
    syms = gs.rows[:, None] * np.concatenate([(1.0 + d2P) * dV, eps**b * d2P[None]])
    # the prefactors' own Theta_i and y_i: d cos = -sin dTheta, d rho = rho sigma dy
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

    # the diagonal omega.d_phi (- i lambda), zeta_i in the l = 0 row of y_i
    # and the phase rows on Theta_i(0)
    th0, y0 = lat.origin[:nu], lat.origin[nu:]
    rows = np.concatenate([rows[keep], np.arange(n), y0, n + i])
    cols = np.concatenate([cols[keep], np.arange(n), n + i, th0])
    diag = 1j * (ell_dot(lat.ell, prob.omega) - prob.lam_lat)
    vals = np.concatenate([val[keep], diag, np.ones(2 * nu)])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n + nu, n + nu))


# -- Newton solver ----------------------------------------------------------------------

MAX_BACKTRACK = 8  # step halvings tried before a Newton step counts as failed


@dataclass
class NewtonSchedule:
    """`newton_solve` takes at most max_iter steps and has converged once the
    sup residual is below tol.  The domain is max_iter >= 1 and tol > 0;
    other values raise ValueError."""

    max_iter: int = 12
    tol: float = 1e-10

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class NewtonResult:
    emb: TorusEmbedding
    residuals: list[float]
    converged: bool
    iterations: int


@dataclass
class LinearDivisors:
    trivial: float  # min |omega . l - lambda(j)|
    witness: tuple  # its first (l, j)
    reduced_at_witness: float  # omega . l - d_j there
    reduced: float  # min |omega . l - d_j|
    reduced_witness: tuple  # its first (l, j)


def min_linear_divisor(prob: TorusProblem) -> LinearDivisors:
    """The divisors of the z lattice (j = l.sbar), each minimum with its
    first witness (l, j) in the row-major order of l (diagnostic).  The
    Newton system at the trivial embedding holds omega . l - lambda(j); near
    the torus the iterate sees the reduced divisor omega . l - d_j, with
    d_j = `EigenModel.row(j)[-1]` the first-order eigenvalue of the normal
    mode j, so both are given."""
    lat = prob.lattice
    z = np.flatnonzero(lat.fam == 2 * prob.S.nu)
    model = EigenModel(prob.S, tuple(Fraction(str(x)) for x in prob.xi), prob.scaling)
    d = np.array([model.row(j)[-1] for j in prob.js])
    wl = ell_dot(lat.ell[z], prob.omega)
    div = wl - prob.lam_lat[z]
    red = wl - d[lat.full_fam[z] - 2 * prob.S.nu]
    k, r = int(np.argmin(np.abs(div))), int(np.argmin(np.abs(red)))

    def witness(i: int) -> tuple:
        return tuple(lat.ell[z[i]].tolist()), int(lat.j[z[i]])

    return LinearDivisors(float(abs(div[k])), witness(k), float(red[k]),
                          float(abs(red[r])), witness(r))


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


def _backtrack(prob: TorusProblem, emb: TorusEmbedding, res: Residual, d: np.ndarray):
    """The first of the steps d, d/2, ..., d/2^MAX_BACKTRACK from `emb` whose
    sup residual is below `res.sup`, as (embedding, residual); None if none is."""
    nu, step = prob.S.nu, 1.0
    for _ in range(MAX_BACKTRACK + 1):
        trial = emb.copy()
        trial.x += step * d[:-nu]
        trial.zeta += (step * d[-nu:]).real
        trial.enforce_reality()
        step *= 0.5
        try:
            trial_res = residual(prob, trial)
        except TorusError:
            continue
        if trial_res.sup < res.sup:
            return trial, trial_res
    return None


def newton_solve(
    prob: TorusProblem,
    start: TorusEmbedding | None = None,
    schedule: NewtonSchedule | None = None,
) -> NewtonResult:
    """Damped Newton on (embedding, zeta) on the full truncation; the
    linearized system on the momentum lattice is solved by sparse LU.  Each
    iterate is evaluated on the angle grid once: its Jacobian reads the state
    of the residual that accepted it.

    A step is accepted only if it lowers the sup residual, with
    backtracking, first along the LU step, then along the least-squares
    step.  When neither lowers it, the next iteration would build the same
    Jacobian and try the same steps, so the solve raises DivergenceError.

    The nu translation degeneracies of the torus family are fixed by the
    appended phase equations Theta_i(0) = 0; all residual equations
    (including the theta averages) stay in the system and in the reported
    sup-norm."""
    schedule = schedule or NewtonSchedule()
    emb = (start or TorusEmbedding.trivial(prob.S, prob.grid)).copy()
    th0 = prob.lattice.origin[: prob.S.nu]
    res = residual(prob, emb)
    history = [res.sup]

    for it in range(schedule.max_iter):
        if res.sup < schedule.tol:
            return NewtonResult(emb, history, True, it)
        J = jacobian(prob, res.state)
        rhs = -np.concatenate([res.f, emb.x[th0]])
        for d in _linear_steps(J, rhs):
            accepted = _backtrack(prob, emb, res, d)
            if accepted:
                break
        else:
            div = min_linear_divisor(prob)
            raise DivergenceError(
                f"residual stalled at {res.sup:.3e}; nearest "
                f"linear divisor |omega.l - lambda(j)| = {div.trivial:.3e} at "
                f"{div.witness}, where the reduced divisor omega.l - d_j = "
                f"{div.reduced_at_witness:.3e}; nearest reduced divisor "
                f"|omega.l - d_j| = {div.reduced:.3e} at {div.reduced_witness}"
            )
        emb, res = accepted
        history.append(res.sup)

    return NewtonResult(emb, history, res.sup < schedule.tol, schedule.max_iter)


# -- embedding to PDE initial data -------------------------------------------------------


def action_angle_embed(
    prob: TorusProblem, emb: TorusEmbedding, phi: tuple[float, ...]
) -> dict[int, complex]:
    """Fourier coefficients of u = A_eps(i(phi)) at a single angle phi."""
    eps, b, nu, lat = prob.eps, prob.b, prob.S.nu, prob.lattice
    vals = emb.x * np.exp(1j * ell_dot(lat.ell, phi))
    fams = np.zeros(2 * nu + len(prob.js), dtype=complex)
    np.add.at(fams, lat.full_fam, vals)

    out: dict[int, complex] = {}
    for i, s in enumerate(prob.S.splus):
        th = fams[i].real + phi[i]
        rad = prob.xi[i] + eps ** (2 * b - 2) * prob.lam_sites[i] * fams[nu + i].real
        if rad <= 0:
            raise TorusError(f"negative radicand at site {s}, phi={phi}")
        amp = eps * math.sqrt(rad)
        out[s] = amp * np.exp(1j * th)
        out[-s] = amp * np.exp(-1j * th)
    for j, val in zip(prob.js, fams[2 * nu :]):
        if val != 0:
            out[j] = eps**b * complex(val)
    return out


# -- linearized normal operator ----------------------------------------------------------


# A reversible torus makes each momentum block M = i R with R real.  A block
# whose dropped part satisfies ||Re M||_F <= REAL_BLOCK_TOL is eigensolved as
# i R: by Bauer-Fike each eigenvalue moves by at most
# kappa(V) ||Re M||_2 <= kappa(V) ||Re M||_F, so for a well-conditioned
# eigenbasis the error stays two orders below the 1e-10 that the
# max |Re eig| check allows.
REAL_BLOCK_TOL = 1e-12


@dataclass
class LinearizedOperator:
    eigvals: np.ndarray
    matched: dict[tuple[tuple[int, ...], int], complex]
    match_quality: dict[tuple[tuple[int, ...], int], float]
    dropped_real: float  # the largest ||Re M||_F of a block solved as i R, else 0.0


@functools.lru_cache(maxsize=None)
def _correction_pieces(S: TangentialSet, n_x: int) -> tuple[HomPoly, ...]:
    """dz <= 2 pieces through degree 4 of (H o Phi_B^(<= 2)) - H^(2) - H^(3),
    over the exact windowed universe.  They depend on neither the embedding
    nor epsilon, so they are built once per (S, n_x)."""
    u_max = n_x + 2 * S.jbar1 + 2
    uni = index_universe(u_max)
    wb = run_wbnf(S, 1, universe_max=2 * S.jbar1)
    F3 = wb.generators[3]
    pieces = [dp_h2(uni), dp_h3(uni)]

    def dz2(poly: HomPoly) -> HomPoly:
        return project_z_degree(poly, S, lambda d: d == 2)

    composed = flow_conjugate(pieces, F3, 4, max_z_keep=lambda deg: 6 - deg, universe=uni, S=S)
    out = []
    for deg, poly in sorted(composed.items()):
        corr = dz2(poly) - dz2(pieces[deg - 2]) if deg in (2, 3) else dz2(poly)
        if not corr.is_zero():
            out.append(corr)
    return tuple(out)


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
    matched eigenvalues are even in eps.

    Only the classes p >= 0 are eigensolved: u is real, lambda is odd and the
    correction Hamiltonians are real, so under (l, j) -> (-l, -j) the block of
    class -p is the entrywise conjugate of class p's, with the conjugate
    eigenvalues and each column's dominant mode (l, j) mirrored to (-l, -j).

    On a reversible torus each block is M = i R with R real, up to a real
    part within REAL_BLOCK_TOL, and is eigensolved in real arithmetic as
    i R; any other block is eigensolved as it is.  The spectrum of i R is
    i times that of R, closed under lambda -> -conj(lambda): a real
    eigenvalue of R gives an |Re| of exactly 0, and only a complex pair of R,
    a collision of two eigenvalues on the axis, gives an |Re| > 0."""
    S = prob.S
    eps = prob.eps
    at, m = prob.at, prob.at.m
    js = np.array(prob.js)

    # basis: (l, j) with |l|_inf <= ell_cut, j normal, |j| <= n_x, in the
    # row-major order of (l, j), grouped into the momentum classes j - l . jbar
    modes = angle_modes(ell_cut, S.nu)
    ell, kb = np.repeat(modes, len(js), axis=0), np.tile(np.arange(len(js)), len(modes))
    momentum = js[kb] - ell_dot(ell, S.splus)
    order = np.argsort(momentum, kind="stable")
    order = order[momentum[order] >= 0]  # each class -p is mirrored from p
    classes, first = np.unique(momentum[order], return_index=True)

    # the angle spectrum of V (multiplication part): within a momentum class
    # j_r - j_c = (l_r - l_c).sbar, so V_hat(l_r - l_c) is the x-mode
    # j_r - j_c of u; the coupling stems from the cubic Hamiltonian, so it
    # vanishes when the cubic term is disabled and the operator is exactly
    # omega.dphi - J
    vhat = np.zeros(at.shape)
    if prob.include_cubic:
        vhat = at.fft(GridState(prob, emb).V)

    # symbolic correction pieces, evaluated at the unperturbed wave packet:
    # amps[k, k2, dl + wd] is the coefficient of e^{i dl.phi} in
    # d^2 Q/dz_{-j_k} dz_{j_k2}; a dz = 2 piece of degree d has d - 2
    # tangential slots, so |dl|_inf <= d - 2
    corr = (_correction_pieces(S, prob.grid.n_x)
            if prob.include_cubic and phib_order >= 2 else ())
    kpos = {j: k for k, j in enumerate(prob.js)}
    rho = [math.sqrt(x) for x in prob.xi]
    wd = max((poly.degree - 2 for poly in corr), default=0)
    amps = np.zeros((len(js), len(js)) + (2 * wd + 1,) * S.nu, dtype=complex)
    for poly in corr:
        for mono, cval in poly.terms.items():
            zslots = [v for v in mono if S.in_sc(v)]
            vslots = [v for v in mono if S.in_s(v)]
            coeff = complex(0.0, float(cval)) if poly.imaginary else complex(float(cval), 0.0)
            amp = coeff * eps ** len(vslots) * math.prod(
                rho[S.splus.index(abs(v))] for v in vslots)
            dl = tuple(sum(S.angle_vector(v)[i] for v in vslots) + wd for i in range(S.nu))
            a_z, b_z = zslots
            mult = 2 if a_z == b_z else 1
            # quadratic form amp * z_a z_b: d/dz_{-j} nonzero for j = -a, -b
            for out_slot, other in ([(a_z, b_z)] if a_z == b_z else [(a_z, b_z), (b_z, a_z)]):
                if -out_slot in kpos and other in kpos:
                    amps[(kpos[-out_slot], kpos[other], *dl)] += amp * mult

    eigvals = []
    matched: dict = {}
    quality: dict = {}
    dropped_real = 0.0
    for p, idxs in zip(classes, np.split(order, first[1:])):
        a, k = ell[idxs], kb[idxs]
        nb = len(idxs)
        ilj = (1j * prob.lam_js[k])[:, None]
        d = np.moveaxis(a[:, None] - a, -1, 0)  # (nu, nb, nb): l_r - l_c per axis
        M = np.zeros((nb, nb), dtype=complex)
        M[np.diag_indices(nb)] += 1j * ell_dot(a, prob.omega) - ilj[:, 0]
        # multiplication by the embedding field
        v = vhat[tuple(d % m)]
        M += np.where(np.abs(v) > 1e-15, ilj * v, 0)
        # symbolic eps^2 corrections: L = omega.d_phi - A with
        # A-entry i lambda(j) d^2 Q/dz_{-j} dz_{j2}
        near = (np.abs(d) <= wd).all(axis=0)
        amp = amps[(k[:, None], k, *(np.clip(d, -wd, wd) + wd))]
        M -= np.where(near, ilj * amp, 0)
        re_norm = float(np.linalg.norm(M.real))
        if re_norm <= REAL_BLOCK_TOL:
            w, V = np.linalg.eig(M.imag)
            w = 1j * w
            dropped_real = max(dropped_real, re_norm)
        else:
            w, V = np.linalg.eig(M)
        # eig returns unit columns: the weight is the dominant entry's modulus
        absV = np.abs(V)
        dom = np.argmax(absV, axis=0)
        weights = absV[dom, np.arange(nb)].tolist()
        # class p, and for p > 0 its mirror -p
        for sign, vals in [(1, w), (-1, w.conj())] if p > 0 else [(1, w)]:
            eigvals.append(vals)
            keys = zip(map(tuple, (sign * a[dom]).tolist()), (sign * js[k[dom]]).tolist())
            for mode, val, weight in zip(keys, vals, weights):
                if weight > quality.get(mode, -1.0):
                    matched[mode] = val
                    quality[mode] = weight

    eigvals = np.concatenate(eigvals)
    return LinearizedOperator(
        eigvals=eigvals[np.argsort(eigvals.imag, kind="stable")],
        matched=matched,
        match_quality=quality,
        dropped_real=dropped_real,
    )


# -- time evolution -----------------------------------------------------------------------


@dataclass
class EvolveResult:
    """The trajectory at the report times, the drifts of H and K1, and the
    step accounting: accepted and rejected steps and the range of the
    accepted step lengths."""

    times: np.ndarray
    h_values: np.ndarray
    k1_values: np.ndarray
    sup_values: np.ndarray
    h_drift: float
    k1_drift: float
    states: list[np.ndarray]
    accepted: int
    rejected: int
    dt_min: float
    dt_max: float


# the Taylor coefficients of z^m, m = 29 ... 0, in Q, f1, f2 and f3 of _phi_funcs
_PHI_TAYLOR = np.array([
    [1.0 / (2.0 ** (m + 1) * math.factorial(m + 1)), (m + 1) ** 2 / math.factorial(m + 3),
     (m + 1) / math.factorial(m + 3), (1 - m) / math.factorial(m + 3)]
    for m in reversed(range(30))
])


def _phi_funcs(z: np.ndarray):
    """ETDRK4 coefficient functions, evaluated by Taylor series near the
    removable singularity at 0 and by the closed forms away from it (the
    contour trick leaves a dt-independent bias that shows up as secular
    energy drift over long integrations).  The four series run as one
    Horner recursion on a stack."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) <= 1.0
    zs = np.where(small, z, 0.0)
    series = np.zeros((4, *z.shape), dtype=complex)
    for c in _PHI_TAYLOR.reshape(_PHI_TAYLOR.shape + (1,) * z.ndim):
        series = series * zs + c
    Q, f1, f2, f3 = series
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
    `step_etdrk4` also step a stack of states in one call, and `coefs` of a
    column of steps gives one coefficient row per step.

    The field grid has mx >= p n_modes + 1 points, p the top power of P (at
    least 3): P'(u) then holds modes up to (p - 1) n_modes, and no aliased
    image of it lands on a kept mode |j| <= n_modes."""

    def __init__(self, n_modes: int, f_spec: FSpec | None = None, cubic: bool = True):
        self.n = n_modes
        self.f_spec = f_spec or FSpec()
        self.cubic = cubic
        self.mx = fast_len(max([3, *self.f_spec.coeffs]) * n_modes + 1)
        k = np.arange(self.mx // 2 + 1)
        self.k = k
        self.lam = k * (4.0 + k * k) / (1.0 + k * k)
        self.mask = k <= n_modes
        self.L = 1j * self.lam
        self.L_masked = self.L * self.mask
        # sums over all modes j of the circle count u_j and u_-j for j > 0
        self.weight = np.where(k == 0, 1.0, 2.0)

    def field(self, uhat: np.ndarray) -> np.ndarray:
        """The real field u on the grid of mx points."""
        return np.fft.irfft(uhat, self.mx, norm="forward")

    def nonlinear(self, uhat: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """N(uhat); u is the field of uhat when the caller has it already."""
        if u is None:
            u = self.field(uhat)
        dP = nonlinear_density(u, 1, self.f_spec, self.cubic)
        return self.L_masked * np.fft.rfft(dP, norm="forward")

    def energy(self, uhat: np.ndarray) -> float:
        P = nonlinear_density(self.field(uhat), 0, self.f_spec, self.cubic)
        return 0.5 * float(np.sum(self.weight * np.abs(uhat) ** 2)) + float(np.mean(P))

    def momentum(self, uhat: np.ndarray) -> float:
        k = self.k
        w = np.where(k == 0, 0.0, (1.0 + k * k) / (4.0 + k * k))
        return 0.5 * float(np.sum(self.weight * w * np.abs(uhat) ** 2))

    def step_etdrk4(
        self, uhat: np.ndarray, dt: float | np.ndarray, coefs, Nu: np.ndarray | None = None
    ) -> np.ndarray:
        """One ETDRK4 step (Cox-Matthews) of the coefficients `coefs(dt)`; Nu
        is N(uhat) when the caller has it already.  With coefficient rows of
        several steps and dt a column of them, one state (or one state per
        row) takes each of those steps, one row each.  uhat must vanish above
        n_modes; every term of the step then does, as N(u) does."""
        E, E2, dtQ, f1, f2x2, f3 = coefs
        if Nu is None:
            Nu = self.nonlinear(uhat)
        a = E2 * uhat + dtQ * Nu
        Na = self.nonlinear(a)
        bb = E2 * uhat + dtQ * Na
        Nb = self.nonlinear(bb)
        c = E2 * a + dtQ * (2 * Nb - Nu)
        Nc = self.nonlinear(c)
        return E * uhat + dt * (f1 * Nu + f2x2 * (Na + Nb) + f3 * Nc)

    def coefs(self, dt: float | np.ndarray):
        """The ETDRK4 coefficients (E, E2, dt Q, f1, 2 f2, f3) of step dt; for
        a column of steps, one row per step."""
        z = dt * self.L
        Q, f1, f2, f3 = _phi_funcs(z)
        return np.exp(z), np.exp(z / 2), dt * Q, f1, 2 * f2, f3


REPORT_POINTS = 64  # evolve records the trajectory every T / REPORT_POINTS
KEEP_BAND = (0.95, 1.2)  # an accepted step keeps dt while its step factor lies in this band


def evolve(
    u0: dict[int, complex],
    T: float,
    n_modes: int = 128,
    dt: float | None = None,
    rtol: float = 1e-10,
    f_spec: FSpec | None = None,
    cubic: bool = True,
    blowup: float = 1e6,
    budget: int = DEFAULT_BUDGET,
) -> EvolveResult:
    """Integrate the DP flow to time T > 0 from the Fourier data u0 of a real
    field (u0[-j] = conj(u0[j])) whose nonzero modes all have |j| <= n_modes,
    else ValueError; report relative drifts of H and of the momentum K1, and
    the step accounting.  The states are half spectra (see DPEvolver).

    Each step compares one step of dt with two of dt/2.  The full step
    and the first half step start from the same state: they run as one
    ETDRK4 step of a two-row stack (coefficient rows for dt and dt/2) on one
    N(u), and only the second half step runs alone, so an accepted step makes
    8 nonlinear evaluations.  The field of an accepted state serves both the
    blow-up check and the next N(u).

    The error err of the two results, relative to the initial sup norm, scales
    as dt^5, so the step control is the standard one of order 4: the factor
    is clip(0.9 (rtol / err)^(1/5), 1/2, 2).  A step with err > rtol is
    retried at dt times the factor; more than 12 rejections in a row raise
    DivergenceError.  An accepted step keeps dt while the factor lies in
    KEEP_BAND = [0.95, 1.2), else dt takes the factor, growing to at most
    T/16, so the coefficients are recomputed only when dt moves.  The band is
    RADAU5's [1, 1.2) (Hairer and Wanner) with its lower edge moved off 1, the
    factor that follows any change of dt (err moves as dt^5): with an edge at
    1, rounding shrank dt by 1e-5 and recomputed the coefficients on many
    steps.  Each attempted step, accepted or rejected, counts against
    `budget`; one more raises BudgetExceeded, naming the time reached."""
    if not T > 0:
        raise ValueError(f"need a final time T > 0, got {T}")
    size = max((abs(c) for c in u0.values()), default=0.0)
    for j, c in u0.items():
        if abs(u0.get(-j, 0.0) - np.conj(c)) > 1e-12 * size:
            raise ValueError(f"u0 is not conjugate-symmetric at j = {j}")
    lost = sorted({abs(j) for j, c in u0.items() if abs(j) > n_modes and c != 0})
    if lost:
        raise ValueError(f"u0 has nonzero modes |j| = {lost} above n_modes = {n_modes}")
    ev = DPEvolver(n_modes, f_spec, cubic)
    uhat = np.zeros(len(ev.k), dtype=complex)
    for j, c in u0.items():
        if 0 <= j <= n_modes:
            uhat[j] = c

    if dt is None:
        dt = min(0.01, T / 100.0)
    t = 0.0
    u = ev.field(uhat)
    times = [0.0]
    hs = [ev.energy(uhat)]
    k1s = [ev.momentum(uhat)]
    sups = [float(np.abs(u).max())]
    states = [uhat.copy()]
    report_every = max(T / REPORT_POINTS, dt)
    next_report = report_every
    rejections = rejected = 0
    steps = []
    scale = max(sups[0], 1e-30)
    pair = None  # the steps [[dt], [dt / 2]] that `coefs` holds the rows of

    while t < T - 1e-14:
        if len(steps) + rejected >= budget:
            raise BudgetExceeded(f"the evolver's {len(steps)} accepted and {rejected} rejected "
                                 f"steps reach the budget {budget} at t = {t:.6g} of T = {T}")
        step = dt = min(dt, T - t)
        if pair is None or pair[0, 0] != dt:
            pair = np.array([[dt], [dt / 2]])
            coefs = ev.coefs(pair)
            second = tuple(c[1] for c in coefs)
        Nu = ev.nonlinear(uhat, u)
        big, half = ev.step_etdrk4(uhat, pair, coefs, Nu)
        half = ev.step_etdrk4(half, dt / 2, second)
        err = float(np.abs(big - half).max()) / scale
        factor = min(2.0, max(0.5, 0.9 * (rtol / max(err, 1e-300)) ** 0.2))
        if err > rtol:
            rejections += 1
            rejected += 1
            if rejections > 12:
                raise DivergenceError("step-rejection cascade in evolve")
            dt *= factor
            continue
        rejections = 0
        uhat = half
        if not KEEP_BAND[0] <= factor < KEEP_BAND[1]:
            dt = min(dt * factor, max(dt, T / 16))  # a growth stops at T/16
        t += step
        steps.append(step)
        u = ev.field(uhat)
        sup = float(np.abs(u).max())
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
        accepted=len(steps),
        rejected=rejected,
        dt_min=min(steps, default=math.nan),
        dt_max=max(steps, default=math.nan),
    )


# -- checkpoints ---------------------------------------------------------------------------


def save_embedding(emb: TorusEmbedding, path: str) -> str:
    payload = {
        "splus": list(emb.S.splus),
        "n_x": emb.grid.n_x,
        "n_phi": emb.grid.n_phi,
        "x": {
            "shape": list(emb.x.shape),
            "re": emb.x.real.tolist(),
            "im": emb.x.imag.tolist(),
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
    such a checkpoint (a missing field, an older layout: the theta/y/z
    payload or the full-grid x, arrays that do not fit its grid) or whose
    hash does not match."""
    with open(path) as fh:
        wrapper = json.load(fh)
    try:
        payload = wrapper["data"]
        if "theta" in payload or len(payload["x"]["shape"]) != 1:
            raise TorusError("it holds an older layout of the embedding; solve again to rewrite it")
        body = json.dumps(payload, sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != wrapper["sha256"]:
            raise TorusError("checkpoint hash mismatch")
        S = TangentialSet.make(payload["splus"])
        grid = TruncationGrid(payload["n_x"], payload["n_phi"])
        d = payload["x"]
        x = np.array(d["re"]) + 1j * np.array(d["im"])
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
