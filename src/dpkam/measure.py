"""Melnikov non-resonance sets, resonant-set classifiers, and Monte-Carlo
measure estimation of excluded parameter regions.

Parameters are sampled uniformly in the amplitude box xi in [1,2]^nu and
pushed forward through the affine frequency map omega = omega_bar + eps^2 A xi,
so fractions in xi equal fractions in omega.  Every scan records the
ell-truncation it used and the pruning bound that justifies it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ScalingParams, TangentialSet, ell_bracket, lam, signed_ell_vectors
from .spectrum import EigenModel, momentum_ells, w_vec
from .twist import TwistData, mat_solve, mat_transpose, mat_vec, twist_matrix, v_vec


@dataclass
class MelnikovConfig:
    scaling: ScalingParams
    c_g1: float = 1.0  # the five-wave set constant C (existential; configurable)
    ell_max: int = 20  # truncation of the diophantine scan
    melnikov_j_margin: int = 4  # safety margin added to pruning-derived j ranges

    def __post_init__(self):
        if self.scaling.gamma >= 1.0:
            raise ValueError("gamma must be < 1")

    @property
    def gamma(self) -> float:
        return self.scaling.gamma

    @property
    def gamma32(self) -> float:
        return self.scaling.gamma ** 1.5

    def gamma_n(self, n: int) -> float:
        return self.gamma * (1.0 + 2.0 ** (-n))

    def gamma_n_star(self, n: int) -> float:
        return self.gamma32 * (1.0 + 2.0 ** (-n))


# -- frequency box geometry -------------------------------------------------------------


@dataclass
class FrequencyBox:
    """Affine image of [1,2]^nu: omega = omega_bar + eps^2 A xi."""

    S: TangentialSet
    td: TwistData
    eps: float

    @classmethod
    def make(cls, S: TangentialSet, eps: float) -> "FrequencyBox":
        return cls(S=S, td=twist_matrix(S), eps=eps)

    def omega_of_xi(self, xi: np.ndarray) -> np.ndarray:
        A = np.array([[float(a) for a in row] for row in self.td.A])
        wb = np.array([float(w) for w in self.td.omega_bar])
        return wb + self.eps**2 * xi @ A.T

    @property
    def volume(self) -> float:
        """|Omega_eps| = eps^(2 nu) |det A| (the xi box has unit volume)."""
        return float(abs(self.td.det_A)) * self.eps ** (2 * self.S.nu)


# -- G0 membership ----------------------------------------------------------------------


def g1_scan_pairs(S: TangentialSet, cfg: MelnikovConfig) -> tuple[list, float]:
    """Momentum-compatible (ell, j, j') cases for the five-wave condition with
    the finite j-bound justified by the asymptotics of the divisor.

    The eps-independent part equals 3(sum_i l_i s_i/(1+s_i^2) + g(j') - g(j))
    with |g| <= 1/2 and g(j) -> 0; beyond |j|, |j'| >= J0 := ceil(12/min_ell)
    it stays above (3/2) min_ell, which dominates C gamma + O(eps^2) for small
    eps.  The returned bound is recorded in reports."""
    min_ell = None
    ells = momentum_ells(S, 3)
    for ell, _ in ells:
        val = abs(
            sum(Fraction(s, 1 + s * s) * e for s, e in zip(S.splus, ell))
        )
        if val == 0:
            raise ValueError(
                f"tangential set violates the |l|<=3 nonresonance at ell={ell}"
            )
        if min_ell is None or val < min_ell:
            min_ell = val
    j0 = int(math.ceil(12.0 / float(min_ell)))
    pairs = []
    for ell, shift in ells:
        for jp in range(-j0 - abs(shift), j0 + abs(shift) + 1):
            if not S.in_sc(jp):
                continue
            j = shift + jp
            if not S.in_sc(j):
                continue
            if min(abs(j), abs(jp)) > j0:
                continue
            pairs.append((ell, j, jp))
    return pairs, float(min_ell)


def in_g0(
    omega: Sequence[float],
    S: TangentialSet,
    cfg: MelnikovConfig,
    xi: Sequence[float] | None = None,
) -> tuple[bool, bool]:
    """(zeroth Melnikov flag, five-wave flag) for a frequency in Omega_eps.

    The diophantine condition |omega . l| >= gamma <l>^-tau is scanned over
    0 < |l| <= cfg.ell_max (truncation recorded by the caller via
    `g0_truncation_note`); the five-wave condition is scanned over the
    pruning-justified finite case list."""
    w = np.asarray(omega, dtype=float)
    if xi is None:
        from .twist import inverse_frequency_map

        xi = inverse_frequency_map(S, list(map(float, w)), cfg.scaling.epsilon)
    gamma = cfg.gamma
    tau = cfg.scaling.tau
    flag0 = True
    for n in range(1, cfg.ell_max + 1):
        for ell in signed_ell_vectors(S.nu, n):
            val = abs(float(np.dot(w, ell)))
            if val < gamma * ell_bracket(ell) ** (-tau):
                flag0 = False
                break
        if not flag0:
            break

    model = EigenModel(S, tuple(Fraction(v).limit_denominator(10**12) for v in xi), cfg.scaling)
    td = twist_matrix(S)
    axi = [float(v) for v in mat_vec(td.A, list(model.xi))]
    e2 = cfg.scaling.epsilon ** 2
    flag1 = True
    pairs, _ = g1_scan_pairs(S, cfg)
    for ell, j, jp in pairs:
        base = float(sum(lam(s) * e for s, e in zip(S.splus, ell)))
        base += float(lam(jp)) - float(lam(j))
        corr = float(np.dot(axi, ell))
        corr += float(lam(jp)) * float(model.ell(jp)) - float(lam(j)) * float(
            model.ell(j)
        )
        if abs(base + e2 * corr) <= cfg.c_g1 * gamma:
            flag1 = False
            break
    return flag0, flag1


def g0_truncation_note(cfg: MelnikovConfig) -> str:
    return (
        f"zeroth-Melnikov scan truncated at |l| <= {cfg.ell_max}; the neglected "
        f"tail has per-l width 2*gamma*<l>^-{cfg.scaling.tau} and total measure "
        f"fraction below {2.0 * cfg.gamma * cfg.ell_max ** (-cfg.scaling.tau):.3e}"
    )


# -- resonant set descriptors and classifiers --------------------------------------------


@dataclass(frozen=True)
class ResonantSetDescriptor:
    kind: str  # 'R', 'Q' or 'P'
    ell: tuple[int, ...]
    j: int
    k: int | None
    eta: float
    sigma: float

    def __post_init__(self):
        if self.kind not in ("R", "Q", "P"):
            raise ValueError("kind must be R, Q or P")
        if self.kind == "R" and self.j == self.k:
            raise ValueError("R sets are empty for j = k by construction")


@dataclass
class AffineDecomposition:
    a_jk: float
    b_ljk: np.ndarray
    q_bound: float


def affine_decomposition(
    S: TangentialSet,
    scaling: ScalingParams,
    ell: Sequence[int],
    j: int,
    k: int,
    c1: float = 1.0,
    c2: float = 1.0,
) -> AffineDecomposition:
    """phi_R(omega) ~ a_jk + b_ljk . omega + q with
    a_jk = (lambda(j)-lambda(k)) (1 - v . A^-1 omega_bar) + (w_k - w_j) . A^-1 omega_bar,
    b_ljk = l + (lambda(j)-lambda(k)) A^-T v + A^-T (w_j - w_k)."""
    if j == k:
        raise ValueError("affine decomposition needs j != k")
    td = twist_matrix(S)
    At = mat_transpose(td.A)
    v = v_vec(S)
    wj = w_vec(S, j)
    wk = w_vec(S, k)
    dl = lam(j) - lam(k)
    atv = mat_solve(At, v)
    atw = mat_solve(At, [a - b for a, b in zip(wj, wk)])
    a_val = dl * (1 - sum(x * w for x, w in zip(atv, td.omega_bar))) + sum(
        x * w
        for x, w in zip(mat_solve(At, [b - a for a, b in zip(wj, wk)]), td.omega_bar)
    )
    b_val = np.array(
        [float(e) + float(dl * x) + float(y) for e, x, y in zip(ell, atv, atw)]
    )
    q = c1 * scaling.epsilon**4 * abs(j - k) + c2 * scaling.epsilon ** (
        4.0 - 3.0 * scaling.a
    )
    return AffineDecomposition(a_jk=float(a_val), b_ljk=b_val, q_bound=q)


@dataclass
class Classification:
    verdict: str  # 'empty_by_ell_bound' | 'empty_by_inclusion' | 'candidate'
    lemma: str
    detail: str


def pruning_slope_constant(S: TangentialSet, m_abs: float = 1.0) -> float:
    """C-tilde = |m| / (4 |omega_bar|), the pruning slope of the resonant sets."""
    wb = np.array([float(lam(s)) for s in S.splus])
    return m_abs / (4.0 * float(np.linalg.norm(wb)))


def classify_resonant_set(
    desc: ResonantSetDescriptor,
    S: TangentialSet,
    cfg: MelnikovConfig,
    inclusion_constant: float = 4.0,
) -> Classification:
    """Deterministic pruning: a set is empty when |l| falls below the slope
    bound, and an R set at gamma^(3/2) is absorbed into a Q set at gamma when
    both modes are large."""
    ctil = pruning_slope_constant(S)
    ln = sum(abs(e) for e in desc.ell)
    if desc.kind == "R":
        gap = abs(float(lam(desc.j) - lam(desc.k)))
        if ln < ctil * gap:
            return Classification(
                "empty_by_ell_bound",
                "pruning-slope",
                f"|l|={ln} < C|lambda(j)-lambda(k)|={ctil * gap:.3f}",
            )
        thresh = (
            inclusion_constant
            * ell_bracket(desc.ell) ** (S.nu + 2)
            / math.sqrt(cfg.gamma)
        )
        if min(abs(desc.j), abs(desc.k)) >= thresh:
            return Classification(
                "empty_by_inclusion",
                "R-into-Q absorption",
                f"min(|j|,|k|) >= {thresh:.1f}: R(gamma^3/2,tau) within Q(gamma,nu+2)",
            )
        return Classification("candidate", "", "")
    # Q and P sets
    if ln < ctil * abs(desc.j):
        return Classification(
            "empty_by_ell_bound",
            "pruning-slope",
            f"|l|={ln} < C|j|={ctil * abs(desc.j):.3f}",
        )
    return Classification("candidate", "", "")


# -- Monte-Carlo measure estimation -------------------------------------------------------


FAMILIES = ("G0_0", "G0_1", "first_melnikov", "second_melnikov")


@dataclass
class MeasureEstimate:
    family: str
    eps: float
    samples: int
    excluded: int
    fraction: float
    stderr: float
    volume: float
    measure: float
    measure_stderr: float
    notes: list[str] = field(default_factory=list)


def _melnikov_j_range(S: TangentialSet, cfg: MelnikovConfig) -> int:
    """Pruning-justified j range for the first/second Melnikov scans."""
    ctil = pruning_slope_constant(S)
    need = int(math.ceil(cfg.ell_max / ctil)) + cfg.melnikov_j_margin
    return need


def _excluded_g0_0(w: np.ndarray, S: TangentialSet, cfg: MelnikovConfig, ells) -> np.ndarray:
    gamma, tau = cfg.gamma, cfg.scaling.tau
    out = np.zeros(w.shape[0], dtype=bool)
    for ell in ells:
        thr = gamma * ell_bracket(ell) ** (-tau)
        out |= np.abs(w @ np.asarray(ell, dtype=float)) < thr
    return out


def estimate_excluded_measure(
    S: TangentialSet,
    cfg: MelnikovConfig,
    family: str,
    samples: int,
    seed: int,
) -> MeasureEstimate:
    """Monte-Carlo estimate of the excluded fraction of the parameter box.

    xi ~ U([1,2]^nu) with a counter-based generator (Philox keyed by seed),
    mapped through the frequency map; exclusion tested per family:
      G0_0            |omega.l| < gamma <l>^-tau for some 0 < |l| <= ell_max
      G0_1            five-wave condition below C gamma on the pruned case list
      first_melnikov  |omega.l + m j| or |omega.l + d_j| below 2 gamma_0 <l>^-tau
      second_melnikov |omega.l + d_j - d_k| below 2 gamma*_0 <l>^-tau
    d_j is the first-order model m lambda(j) + eps^2 kappa_j with the KAM
    residual set to zero; its bound eps^(4-3a)/<j> is added to the threshold
    as a conservative margin.  The second-Melnikov scan runs over the
    momentum-compatible pairs k = j - l.jbar (the divisors the reduction
    actually inverts); mode ranges are pruning-justified and recorded."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if samples < 10**3:
        raise ValueError("at least 1000 samples are required")
    nu = S.nu
    eps = cfg.scaling.epsilon
    box = FrequencyBox.make(S, eps)
    # counter-based streams keyed by (seed, worker chunk); the merge below is
    # a sum of counts, independent of evaluation order
    chunk = 1 << 14
    chunks = []
    done = 0
    widx = 0
    while done < samples:
        size = min(chunk, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, widx]))
        chunks.append(1.0 + rng.random((size, nu)))
        done += size
        widx += 1
    xi = np.concatenate(chunks, axis=0)
    w = box.omega_of_xi(xi)
    notes = [g0_truncation_note(cfg)]

    ells = [
        ell
        for n in range(1, cfg.ell_max + 1)
        for ell in signed_ell_vectors(nu, n)
    ]

    if family == "G0_0":
        excluded = _excluded_g0_0(w, S, cfg, ells)
    elif family == "G0_1":
        pairs, min_ell = g1_scan_pairs(S, cfg)
        notes.append(f"five-wave scan over {len(pairs)} momentum cases, min_ell={min_ell}")
        td = twist_matrix(S)
        A = np.array([[float(a) for a in row] for row in td.A])
        excluded = np.zeros(samples, dtype=bool)
        e2 = eps**2
        for ell, j, jp in pairs:
            base = float(sum(lam(s) * e for s, e in zip(S.splus, ell)))
            base += float(lam(jp)) - float(lam(j))
            lj = _ell_coeff_vector(S, j)
            ljp = _ell_coeff_vector(S, jp)
            grad = (np.asarray(ell, float) @ A.T) + float(lam(jp)) * ljp - float(lam(j)) * lj
            vals = base + e2 * (xi @ grad)
            excluded |= np.abs(vals) <= cfg.c_g1 * cfg.gamma
    else:
        jmax = _melnikov_j_range(S, cfg)
        notes.append(
            f"melnikov scan over |j| <= {jmax} justified by |l| >= C|j| pruning "
            f"with C = {pruning_slope_constant(S):.4f} and |l| <= {cfg.ell_max}"
        )
        js = [j for j in range(-jmax, jmax + 1) if S.in_sc(j)]
        lam_v = np.array([float(lam(j)) for j in js])
        kap = _kappa_matrix(S, js)  # per-site coefficients; kappa_j = kap[j] . xi
        c_coeff = np.array([float(Fraction(2, 3) * (1 + s * s)) for s in S.splus])
        e2 = eps**2
        m = 1.0 + e2 * (xi @ c_coeff)  # per-sample
        d = m[:, None] * lam_v[None, :] + e2 * (xi @ kap.T)
        margin = cfg.scaling.epsilon ** (4.0 - 3.0 * cfg.scaling.a) / np.maximum(
            1, np.abs(np.asarray(js, float))
        )
        excluded = np.zeros(samples, dtype=bool)
        gamma0 = cfg.gamma_n(0)
        gamma0s = cfg.gamma_n_star(0)
        for ell in ells:
            wl = w @ np.asarray(ell, dtype=float)
            thr = 2.0 * gamma0 * ell_bracket(ell) ** (-cfg.scaling.tau)
            if family == "first_melnikov":
                for idx, j in enumerate(js):
                    t = thr + margin[idx]
                    excluded |= np.abs(wl + m * j) < t
                    excluded |= np.abs(wl + d[:, idx]) < t
            else:
                thr2 = 2.0 * gamma0s * ell_bracket(ell) ** (-cfg.scaling.tau)
                shift = sum(s * e for s, e in zip(S.splus, ell))
                for idx, j in enumerate(js):
                    k = j - shift  # momentum-compatible partner
                    if k == j or not S.in_sc(k) or abs(k) > jmax:
                        continue
                    kdx = js.index(k)
                    t = thr2 + margin[idx] + margin[kdx]
                    excluded |= np.abs(wl + d[:, idx] - d[:, kdx]) < t

    count = int(np.count_nonzero(excluded))
    frac = count / samples
    stderr = binomial_stderr(frac, samples)
    return MeasureEstimate(
        family=family,
        eps=eps,
        samples=samples,
        excluded=count,
        fraction=frac,
        stderr=stderr,
        volume=box.volume,
        measure=frac * box.volume,
        measure_stderr=stderr * box.volume,
        notes=notes,
    )


def binomial_stderr(frac: float, samples: int) -> float:
    """Standard error of a fraction estimated from `samples` draws, with the
    variance floored at 1/samples so that a zero count still reports the
    resolution of the sample size."""
    return math.sqrt(max(frac * (1 - frac), 1.0 / samples)) / math.sqrt(samples)


def _ell_coeff_vector(S: TangentialSet, j: int) -> np.ndarray:
    from .spectrum import ell_j_form

    return np.array([float(c) for c in ell_j_form(S, j)])


def _kappa_matrix(S: TangentialSet, js: Sequence[int]) -> np.ndarray:
    return np.array([[float(c) for c in w_vec(S, j)] for j in js])


# -- per-eps sweep with a fitted scaling exponent -----------------------------------------


@dataclass
class SweepResult:
    """Per-eps estimates with a weighted log-log fit of measure against eps.

    `theory_slope` = 2(nu-1) + 2b is the exponent of the measure lemma's
    upper bound C eps^(2(nu-1)) gamma with gamma = eps^(2b) (see
    `g0_lemma_constant`).  The lemma bounds the excluded measure from above;
    it does not say that the measure follows this power law."""

    family: str
    eps_values: list[float]
    estimates: list[MeasureEstimate]
    slope: float
    slope_stderr: float
    theory_slope: float

    def slope_consistent(self, n_sigma: float = 3.0) -> bool:
        if math.isnan(self.slope):
            return False
        return abs(self.slope - self.theory_slope) <= n_sigma * self.slope_stderr


def fit_loglog_slope(
    eps_values: Sequence[float], measures: Sequence[float], stderrs: Sequence[float]
) -> tuple[float, float]:
    """Weighted least squares of log(measure) on log(eps).

    Points with zero measure cannot enter a log fit; fewer than two positive
    points yields (nan, nan)."""
    xs, ys, ws = [], [], []
    for e, mval, s in zip(eps_values, measures, stderrs):
        if mval <= 0:
            continue
        xs.append(math.log(e))
        ys.append(math.log(mval))
        rel = s / mval if mval > 0 else 1.0
        ws.append(1.0 / max(rel, 1e-12) ** 2)
    if len(xs) < 2:
        return float("nan"), float("nan")
    xs_a, ys_a, ws_a = map(np.asarray, (xs, ys, ws))
    W = ws_a.sum()
    xbar = (ws_a * xs_a).sum() / W
    ybar = (ws_a * ys_a).sum() / W
    sxx = (ws_a * (xs_a - xbar) ** 2).sum()
    slope = (ws_a * (xs_a - xbar) * (ys_a - ybar)).sum() / sxx
    return float(slope), float(math.sqrt(1.0 / sxx))


def measure_sweep(
    S: TangentialSet,
    a: float,
    eps_values: Sequence[float],
    family: str,
    samples: int,
    seed: int,
    c_g1: float = MelnikovConfig.c_g1,
    ell_max: int = MelnikovConfig.ell_max,
    threads: int = 0,
) -> SweepResult:
    def one(i_eps):
        i, eps = i_eps
        cfg = MelnikovConfig(
            scaling=ScalingParams(epsilon=eps, a=a, nu=S.nu),
            c_g1=c_g1,
            ell_max=ell_max,
        )
        return estimate_excluded_measure(S, cfg, family, samples, seed + i)

    jobs = list(enumerate(eps_values))
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            estimates = list(pool.map(one, jobs))
    else:
        estimates = [one(j) for j in jobs]
    slope, err = fit_loglog_slope(
        [e.eps for e in estimates],
        [e.measure for e in estimates],
        [e.measure_stderr for e in estimates],
    )
    b = 1.0 + a / 2.0
    return SweepResult(
        family=family,
        eps_values=list(eps_values),
        estimates=estimates,
        slope=slope,
        slope_stderr=err,
        theory_slope=2.0 * (S.nu - 1) + 2.0 * b,
    )


# -- deterministic slab quadrature (diagnostic for the G0_0 scaling) ----------------------


def g0_slab_measure(S: TangentialSet, cfg: MelnikovConfig) -> float:
    """Exact (up to the union bound) measure fraction of the G0_0 exclusion:
    per ell, the slab |omega_bar.l + eps^2 (A^T l).xi| < gamma <l>^-tau is an
    affine condition on the unit box; its volume is integrated in closed form.
    Overlaps between distinct slabs are neglected (they are higher order)."""
    td = twist_matrix(S)
    A = np.array([[float(x) for x in row] for row in td.A])
    wb = np.array([float(x) for x in td.omega_bar])
    e2 = cfg.scaling.epsilon ** 2
    total = 0.0
    for n in range(1, cfg.ell_max + 1):
        for ell in signed_ell_vectors(S.nu, n):
            g = e2 * (A.T @ np.asarray(ell, dtype=float))
            c0 = float(wb @ np.asarray(ell, dtype=float)) + float(np.sum(g)) * 1.0
            half = cfg.gamma * ell_bracket(ell) ** (-cfg.scaling.tau)
            total += _box_slab_volume(g, c0, half)
    return min(total, 1.0)


def g0_lemma_constant(S: TangentialSet, tau: int, ell_max: int) -> float:
    """The eps-independent constant C of the measure lemma
    |Omega_eps minus G0_0| <= C eps^(2(nu-1)) gamma, over 0 < |l| <= ell_max.

    Per-l slab estimate.  With g = A^T l (nonzero for l != 0, since
    det A != 0) and k an index with |g_k| = |g|_inf, the slab
        {xi in [1,2]^nu : |omega_bar.l + eps^2 g.xi| < gamma <l>^-tau}
    meets every line parallel to e_k in an interval of length at most
    2 gamma <l>^-tau / (eps^2 |g|_inf); integrating over the other nu-1 unit
    coordinates bounds its xi-volume by the same number.  The affine map
    xi -> omega = omega_bar + eps^2 A xi has Jacobian eps^(2 nu) |det A|, so
    the slab's omega-measure is at most
        2 |det A| <l>^-tau / |A^T l|_inf * eps^(2(nu-1)) gamma,
    and the union bound over l gives the lemma with
        C = 2 |det A| sum_{0 < |l| <= ell_max} <l>^-tau / |A^T l|_inf.
    The sum converges as ell_max grows because |A^T l|_inf >= c |l| and
    tau > nu - 1.  The estimate ignores whether a slab meets the box at
    all, so the bound lies far above the measure that `g0_slab_measure`
    computes: it is the lemma's one-sided bound, not an estimate of it."""
    td = twist_matrix(S)
    At = np.array([[float(x) for x in row] for row in td.A]).T
    total = 0.0
    for n in range(1, ell_max + 1):
        for ell in signed_ell_vectors(S.nu, n):
            g = At @ np.asarray(ell, dtype=float)
            total += ell_bracket(ell) ** (-tau) / float(np.abs(g).max())
    return 2.0 * float(abs(td.det_A)) * total


def _box_slab_volume(g: np.ndarray, c0: float, half: float) -> float:
    """Volume of {t in [0,1]^nu : |c0 + g.t| < half} (nu <= 3 supported)."""
    lo, hi = -c0 - half, -c0 + half

    def cdf(x: float) -> float:
        # volume of {g.t <= x} over the unit box, by inclusion-exclusion
        gs = g.copy()
        shift = 0.0
        for gi in gs:
            if gi < 0:
                shift += gi
        x = x - shift
        gs = np.abs(gs)
        pos = gs[gs > 1e-300]
        m = pos.size
        if m == 0:
            return 1.0 if x >= 0 else 0.0
        # Irwin-Hall style piecewise polynomial
        total = 0.0
        for mask in range(1 << m):
            s = x
            sign = 1.0
            for i in range(m):
                if mask >> i & 1:
                    s -= pos[i]
                    sign = -sign
            if s > 0:
                total += sign * s**m
        coeff = math.factorial(m) * float(np.prod(pos))
        return max(0.0, min(1.0, total / coeff))

    return max(0.0, cdf(hi) - cdf(lo))
