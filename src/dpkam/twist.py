"""Twist matrix, frequency-amplitude map, and non-degeneracy verifications.

The twist matrix A (nu x nu, exact rational) is the Jacobian of the
amplitude-to-frequency map at leading order:

    alpha(xi) = omega_bar + eps^2 A xi,
    A = (1/2) D diag(lambda(2j)/(2 lambda(j) - lambda(2j)))_{j in S+} + D B,

with D = diag(lambda(j)) and B the off-diagonal matrix of cross sums b_jk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    TangentialSet,
    check,
    ell_norm,
    ell_vectors_up_to,
    fraction_str,
    lam,
    linear_frequencies,
    packet_sum,
    signed_ell_vectors,
)

Matrix = list[list[Fraction]]
Vector = list[Fraction]

# thresholds of `nondegeneracy_report`
DET_THRESHOLD = Fraction(1)  # of the rank-one determinant (ii)
CORTO_DELTA = 1e-3  # of the corto and cortissimo scans (iii)
NONDEG_ELL_BOUND = 3  # |l|_1 of the scans (iii)
NONDEG_J_BOUND = 60  # default |j| of the scans (iii)


def b_jk(j: int, k: int) -> Fraction:
    """Off-diagonal twist entry
    (2/3)(1+k^2)(1+j^2)(2+k^2+j^2) / ((3+k^2+j^2+kj)(3+k^2+j^2-kj))."""
    if j < 1 or k < 1:
        raise ValueError("b_jk is defined for positive sites")
    if j == k:
        raise ValueError("b_jk needs j != k")
    num = Fraction(2, 3) * (1 + k * k) * (1 + j * j) * (2 + k * k + j * j)
    den = (3 + k * k + j * j + k * j) * (3 + k * k + j * j - k * j)
    return num / den


# -- exact linear algebra -------------------------------------------------------------


def _eliminate(A: Matrix, b: Vector | None = None) -> tuple[Fraction, Vector | None]:
    """Exact Gauss-Jordan elimination with partial pivoting: (det A, x) with
    A x = b, or x None when b is None.  A singular A gives (0, None)."""
    n = len(A)
    M = [row[:] + ([] if b is None else [b[r]]) for r, row in enumerate(A)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return det, None if b is None else [M[r][n] / M[r][r] for r in range(n)]


def mat_det(A: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    return _eliminate(A)[0]


def mat_det_cofactor(A: Matrix) -> Fraction:
    """Cofactor expansion; independent oracle for small matrices."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = Fraction(0)
    for c in range(n):
        if A[0][c] == 0:
            continue
        minor = [[A[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        sign = Fraction(-1) ** c
        total += sign * A[0][c] * mat_det_cofactor(minor)
    return total


def mat_solve(A: Matrix, b: Vector) -> Vector:
    """Exact solve A x = b (Gaussian elimination); ZeroDivisionError on a singular A."""
    det, x = _eliminate(A, b)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return x


def mat_transpose(A: Matrix) -> Matrix:
    return [list(row) for row in zip(*A)]


def mat_vec(A: Matrix, x: Vector) -> Vector:
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]


def dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


# -- twist data -----------------------------------------------------------------------


@dataclass
class TwistData:
    S: TangentialSet
    A: Matrix
    omega_bar: Vector
    det_A: Fraction


def twist_matrix(S: TangentialSet) -> TwistData:
    def entry(j: int, k: int) -> Fraction:
        if j == k:
            return Fraction(1, 2) * lam(j) * lam(2 * j) / (2 * lam(j) - lam(2 * j))
        return lam(j) * b_jk(j, k)

    A = [[entry(j, k) for k in S.splus] for j in S.splus]
    return TwistData(S=S, A=A, omega_bar=list(linear_frequencies(S)), det_A=mat_det(A))


# -- normalized determinant (appendix substitution jbar1 = 1/x) -----------------------


def normalized_det(x: Fraction, p: Sequence[Fraction]) -> Fraction:
    """det K where A = (2/9) diag(lambda(j)(1+j^2)) K under jbar1 = 1/x,
    jbar_i = p_i/x.  Entries are continued rationally to x = 0:

        K_ii = 1 + x^2/p_i^2,
        K_ik = 3 (x^2+p_k^2)(2x^2+p_k^2+p_i^2)
               / ((3x^2+p_k^2+p_i^2+p_k p_i)(3x^2+p_k^2+p_i^2-p_k p_i)).
    """
    x = Fraction(x)
    ps = [Fraction(q) for q in p]
    if x < 0:
        raise ValueError("x must be >= 0")
    if any(not (0 < q <= 1) for q in ps):
        raise ValueError("p entries must lie in (0, 1]")
    if x > 0 and any(q / x <= 0 for q in ps):
        raise ValueError("mapped sites must stay positive")
    nu = len(ps)
    K: Matrix = [[Fraction(0)] * nu for _ in range(nu)]
    for i in range(nu):
        K[i][i] = 1 + x * x / (ps[i] * ps[i])
        for k in range(nu):
            if k == i:
                continue
            pi, pk = ps[i], ps[k]
            num = 3 * (x * x + pk * pk) * (2 * x * x + pk * pk + pi * pi)
            den = (3 * x * x + pk * pk + pi * pi + pk * pi) * (
                3 * x * x + pk * pk + pi * pi - pk * pi
            )
            K[i][k] = num / den
    return mat_det(K)


def normalized_det_limit_form(x: Fraction, nu: int) -> Fraction:
    """Closed form of det K at p = 1:
    ((1+x^2)/(1+3x^2))^nu (3x^2-1)^(nu-1) (3x^2+2nu-1)."""
    x = Fraction(x)
    return (
        ((1 + x * x) / (1 + 3 * x * x)) ** nu
        * (3 * x * x - 1) ** (nu - 1)
        * (3 * x * x + 2 * nu - 1)
    )


# -- frequency-amplitude map ----------------------------------------------------------


def frequency_map(S: TangentialSet, xi: Sequence, eps: Fraction) -> list[Fraction]:
    """alpha(xi) = omega_bar + eps^2 A xi, exactly: xi and eps must be int or
    Fraction (TypeError otherwise).

    The O(eps^4) correction of the full map is out of scope here.
    """
    if not all(isinstance(v, (int, Fraction)) for v in (*xi, eps)):
        raise TypeError("frequency_map takes exact xi and eps (int or Fraction)")
    td = twist_matrix(S)
    e2 = Fraction(eps) ** 2
    Ax = mat_vec(td.A, [Fraction(v) for v in xi])
    return [w + e2 * a for w, a in zip(td.omega_bar, Ax)]


def inverse_frequency_map(
    S: TangentialSet, omega: Sequence, eps: Fraction, tol: float = 1e-9
) -> list[Fraction]:
    """Solve omega = omega_bar + eps^2 A xi for xi, exactly: omega and eps
    must be int or Fraction (TypeError otherwise); rejects xi outside
    [1,2]^nu beyond `tol`."""
    if not all(isinstance(v, (int, Fraction)) for v in (*omega, eps)):
        raise TypeError("inverse_frequency_map takes exact omega and eps (int or Fraction)")
    td = twist_matrix(S)
    e2 = Fraction(eps) ** 2
    xi = mat_solve(td.A, [(Fraction(w) - wb) / e2 for w, wb in zip(omega, td.omega_bar)])
    vals = [float(v) for v in xi]
    if any(v < 1 - tol or v > 2 + tol for v in vals):
        raise ValueError(f"omega maps to xi = {vals} outside the parameter box [1,2]^nu")
    return xi


# -- kappa coefficient vectors --------------------------------------------------------


def v_vec(S: TangentialSet) -> Vector:
    """v with v_k = (2/3)(1+jbar_k^2): the xi-gradient of the constant c."""
    return [Fraction(2, 3) * (1 + j * j) for j in S.splus]


def w_vec(S: TangentialSet, j: int) -> Vector:
    """w_j with kappa_j = w_j . xi, from the single-fraction form:
    w_j[i] = -(2/3) lambda(j) (1+s^2)(7+5s^2+s^4+3j^2) / ((3+s^2-sj+j^2)(3+s^2+sj+j^2)),
    s = jbar_i."""
    if not S.in_sc(j):
        raise ValueError(f"{j} is not a normal site for S+ = {S.splus}")
    out = []
    lj = lam(j)
    for s in S.splus:
        num = (1 + s * s) * (7 + 5 * s * s + s**4 + 3 * j * j)
        den = (3 + s * s - s * j + j * j) * (3 + s * s + s * j + j * j)
        out.append(-Fraction(2, 3) * lj * num / den)
    return out


# -- non-degeneracy report ------------------------------------------------------------


def _distance(ell: tuple[int, ...], x: Sequence[float]) -> float:
    """|ell - x| / |ell|_1 with the Euclidean numerator in floats: the value
    the scans (iii) report.  Its squares and root are correctly rounded, so
    the value does not depend on the platform's libm."""
    return math.sqrt(sum((e - v) * (e - v) for e, v in zip(ell, x))) / ell_norm(ell)


class _NearestEll:
    """Running first minimum of `_distance(ell, x)` over blocks of rows x,
    taken in order, and the ells, in order within each row.

    Numpy ranks a block at once with the operations of `_distance`, in its
    order, so each entry equals `_distance` bit for bit: the first minimum of
    a block is the first in (row, ell) order, and a later block takes over
    only with a strictly smaller value."""

    def __init__(self, ells: list[tuple[int, ...]]):
        self.ells = ells
        self.components = np.array(ells, dtype=float).T  # (nu, ells)
        self.norms = np.array([ell_norm(ell) for ell in ells], dtype=float)
        self.value: float | None = None
        self.witness = ""

    def scan(self, X: np.ndarray, label) -> None:
        """Rows X (m, nu); `label(r)` names row r in the witness."""
        diffs = (e - x[:, None] for e, x in zip(self.components, X.T))
        V = np.sqrt(sum(d * d for d in diffs)) / self.norms
        r, i = np.unravel_index(V.argmin(), V.shape)
        if self.value is None or V[r, i] < self.value:
            self.value, self.witness = float(V[r, i]), f"ell={self.ells[i]}, {label(r)}"


def _exact_rows(vectors: list[Vector]) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of exact vectors, one row each (int objects)."""
    num = np.array([[v.numerator for v in vec] for vec in vectors], dtype=object)
    den = np.array([[v.denominator for v in vec] for vec in vectors], dtype=object)
    return num, den


def _differences_after(num: np.ndarray, den: np.ndarray, a: int) -> np.ndarray:
    """Floats of the exact differences x_a - x_k, k > a, of the rows of
    `_exact_rows`.  Python's int / rounds the exact quotient correctly, so each
    entry is the float of the exact difference; float(x_a) - float(x_k) is not."""
    diff = num[a] * den[a + 1:] - num[a + 1:] * den[a]
    return (diff / (den[a] * den[a + 1:])).astype(float)


def nondegeneracy_report(S: TangentialSet, j_bound: int = NONDEG_J_BOUND) -> list[dict]:
    """The non-degeneracy checks with witnesses, as `core.check` records.

    (i) the l1-norm 1,2,3,5 sums and the wave-packet |l| = 4 case (exact);
    (ii) |1 - A^{-T} v . omega_bar| >= DET_THRESHOLD (exact);
    (iii) scanned minima of |l - (I - A^{-T} v wb^T)^{-1} A^{-T}(w_j - w_k)|/|l|
          and the single-j analogue;
    plus the decay-constant fit for |w_j - w_k|.

    The scans (iii) run over the normal sites |j| <= j_bound (ValueError if
    there is none), the pairs j < k and the ells with |ell|_1 <=
    NONDEG_ELL_BOUND; each reports its first extremum in that order.  The
    floats of t_j - t_k and w_j - w_k are those of the exact differences,
    formed from integer numerators and denominators, never
    float(t_j) - float(t_k).
    """
    records = []
    td = twist_matrix(S)
    # the parity argument gives jbar1 * |sum| > 1/2 for odd |l|
    r_threshold = Fraction(1, S.jbar1)

    # (i) exact ell sums; odd norms carry a quantitative threshold (the sums
    # approach (sum l_i)/jbar1 with |sum l_i| >= 1 by parity), even norms are
    # non-vanishing statements
    for norm in (1, 2, 3, 4, 5):
        best, witness = min(
            ((abs(packet_sum(S, ell)), ell) for ell in signed_ell_vectors(S.nu, norm)),
            key=lambda p: p[0],
        )
        thr = r_threshold / 2 if norm % 2 == 1 else Fraction(0)
        records.append(check(f"ell_condition_norm_{norm}", float(best), float(thr), best > thr,
                             f"ell={witness}, |sum|={fraction_str(best)}"))

    # (ii) rank-one determinant, exact
    v = v_vec(S)
    At = mat_transpose(td.A)
    y = mat_solve(At, v)  # A^{-T} v
    det_val = 1 - dot(y, td.omega_bar)
    records.append(check("corto100_rank_one_det", float(abs(det_val)), float(DET_THRESHOLD),
                         abs(det_val) >= DET_THRESHOLD,
                         f"1 - A^-T v . omega_bar = {fraction_str(det_val)}"))

    # (iii) corto / cortissimo scans (floating minima over a finite window).
    # t_j = (I - y wb^T)^{-1} A^{-T} w_j solves (A^T - v wb^T) t_j = w_j, since
    # A^T y = v; it is exact and built once per normal mode.  The map is
    # linear, so a pair's vector is t_j - t_k, and its floats are those of the
    # exact difference.  Each row j scans every k > j and every ell at once.
    normal = [j for j in range(-j_bound, j_bound + 1) if S.in_sc(j)]
    if not normal:
        raise ValueError(f"no normal site |j| <= j_bound = {j_bound}")
    K = [[a - vi * wk for a, wk in zip(row, td.omega_bar)] for row, vi in zip(At, v)]
    w = [w_vec(S, j) for j in normal]
    t = [mat_solve(K, wj) for wj in w]
    ells = ell_vectors_up_to(S.nu, NONDEG_ELL_BOUND)

    single = _NearestEll(ells)
    single.scan(np.array([[float(x) for x in tj] for tj in t]), lambda r: f"j={normal[r]}")
    # the pair scan and the w-difference decay constant
    # |w_j - w_k| <= C |j-k| (|j|^-2 + |jk|^-1), one row j at a time
    pair = _NearestEll(ells)
    t_num, t_den = _exact_rows(t)
    w_num, w_den = _exact_rows(w)
    sites = np.array(normal)
    cbest, cwitness = 0.0, ""
    for a, j in enumerate(normal[:-1]):
        ks = sites[a + 1:]
        pair.scan(_differences_after(t_num, t_den, a), lambda r: f"j={j}, k={ks[r]}")
        ratio = np.abs(_differences_after(w_num, w_den, a)).max(axis=1) / (
            np.abs(j - ks) * (1.0 / j**2 + 1.0 / np.abs(j * ks))
        )
        r = int(ratio.argmax())
        if ratio[r] > cbest:
            cbest, cwitness = float(ratio[r]), f"j={j}, k={ks[r]}"
    for name, scan in (("corto_pair_scan", pair), ("cortissimo_single_scan", single)):
        records.append(check(name, scan.value, CORTO_DELTA, scan.value >= CORTO_DELTA,
                             scan.witness))
    records.append(check("w_decay_fitted_constant", cbest, float("inf"), True, cwitness))
    return records

