"""Melnikov non-resonance sets and the measure of the excluded parameter regions.

Parameters are sampled uniformly in the amplitude box xi in [1,2]^nu and
pushed forward through the affine frequency map omega = omega_bar + eps^2 A xi,
so fractions in xi equal fractions in omega.  Every exclusion test is affine
in xi, |c0 + g.xi| < t; one builder per family returns those slabs, and the
Monte-Carlo count and the slab quadrature both read them.  Every scan
records the truncations it used and, where one exists, the pruning bound that
justifies them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import spectrum
from .core import (
    FAMILIES, ScalingParams, TangentialSet, ell_bracket, ell_vectors_up_to, lam, packet_sum,
)
from .spectrum import momentum_ells
from .twist import TwistData, twist_matrix, v_vec, w_vec


MELNIKOV_J_MARGIN = 4  # safety margin added to pruning-derived j ranges


@dataclass
class MelnikovConfig:
    scaling: ScalingParams
    c_g1: float = 1.0  # the five-wave set constant C (existential; configurable)
    ell_max: int = 20  # truncation of the diophantine scan

    def __post_init__(self):
        if self.scaling.gamma >= 1.0:
            raise ValueError("gamma must be < 1")
        if self.ell_max < 1:
            raise ValueError("ell_max must be at least 1")
        if not self.c_g1 > 0:
            raise ValueError(f"c_g1 must be positive, got {self.c_g1}")

    @property
    def gamma(self) -> float:
        return self.scaling.gamma

    @property
    def gamma_0(self) -> float:
        """gamma_0 = gamma (1 + 2^-0) of the first Melnikov conditions."""
        return self.gamma * 2.0

    @property
    def gamma_0_star(self) -> float:
        """gamma*_0 = gamma^(3/2) (1 + 2^-0) of the second Melnikov conditions."""
        return self.scaling.gamma ** 1.5 * 2.0


# -- frequency box geometry -------------------------------------------------------------


@dataclass
class FrequencyBox:
    """Affine image of [1,2]^nu: omega = omega_bar + eps^2 A xi."""

    S: TangentialSet
    td: TwistData
    eps: float
    A: np.ndarray
    omega_bar: np.ndarray

    @classmethod
    def make(cls, S: TangentialSet, eps: float) -> "FrequencyBox":
        td = twist_matrix(S)
        return cls(S=S, td=td, eps=eps, A=np.array(td.A, dtype=float),
                   omega_bar=np.array(td.omega_bar, dtype=float))

    def ell_forms(self, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """omega.l = c0 + g.xi for each row l of `ells`, as (c0, g, scale);
        `scale` is the sum of the absolute values of the summands of
        (omega_bar + eps^2 A xi) . l on the box."""
        A, wb = self.A, self.omega_bar
        e2 = self.eps**2
        return ells @ wb, e2 * (ells @ A), np.abs(ells) @ (np.abs(wb) + 2 * e2 * np.abs(A).sum(1))

    @property
    def volume(self) -> float:
        """|Omega_eps| = eps^(2 nu) |det A| (the xi box has unit volume)."""
        return float(abs(self.td.det_A)) * self.eps ** (2 * self.S.nu)


# -- the slabs of each family -------------------------------------------------------------


# Bound on the rounding error of a float evaluation of an affine form
# c0 + g.xi, relative to the sum of the absolute values of its summands: a
# few units of 2^-53 per operation, with three orders of magnitude to spare.
ROUNDING = 1e-12


class Slabs(NamedTuple):
    """The cases of an exclusion test, one entry (one row of g) per case: xi is
    excluded by a case when |c0 + g.xi| < t.  `scale` bounds the sum of the
    absolute values of the summands of the form and of the expression that
    built it (see `slab_meets_box`)."""

    c0: np.ndarray
    g: np.ndarray
    t: np.ndarray
    scale: np.ndarray

    def take(self, idx) -> "Slabs":
        return Slabs(*(a[idx] for a in self))


def g0_0_slabs(box: FrequencyBox, ell_max: int, tau: int, gamma: float) -> Slabs:
    """Zeroth Melnikov: |omega.l| < gamma <l>^-tau for 0 < |l| <= ell_max.
    At eps = 1 and gamma = 1 the slabs are g = A^T l, t = <l>^-tau."""
    ells, rows = _ell_table(box.S.nu, ell_max)
    c0, g, scale = box.ell_forms(rows)
    return Slabs(c0, g, np.array([gamma * ell_bracket(ell) ** (-tau) for ell in ells]), scale)


def g1_scan_pairs(S: TangentialSet) -> tuple[list, float]:
    """Momentum-compatible (ell, j, j') cases for the five-wave condition with
    the finite j-bound justified by the asymptotics of the divisor.

    The eps-independent part equals 3(sum_i l_i s_i/(1+s_i^2) + g(j') - g(j))
    with |g| <= 1/2 and g(j) -> 0; beyond |j|, |j'| >= J0 := ceil(12/min_ell)
    it stays above (3/2) min_ell, which dominates C gamma + O(eps^2) for small
    eps.  The returned bound is recorded in reports."""
    min_ell = None
    ells = momentum_ells(S, 3)
    for ell, _ in ells:
        val = abs(packet_sum(S, ell))
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


def g0_1_slabs(box: FrequencyBox, pairs: Sequence, M: np.ndarray, thr: float) -> Slabs:
    """Five-wave condition: |base + eps^2 grad.xi| < thr for each case
    (ell, j, j') of `g1_scan_pairs`, with
        base = sum_i lambda(s_i) l_i + lambda(j') - lambda(j),
        grad = M l + lambda(j') l_j' - lambda(j) l_j,
    l_j the coefficient vector of `spectrum.ell_j_form`, built once per
    distinct mode (with its exact two-form check) and once per distinct ell.

    With M = A^T the frequency term is omega.l for omega = omega_bar +
    eps^2 A xi.  A is not symmetric; `estimate_excluded_measure` passes M = A,
    the form its recorded G0_1 counts were taken with."""
    S = box.S
    ell_list = sorted({ell for ell, _, _ in pairs})
    ell_base = np.array([float(sum(lam(s) * e for s, e in zip(S.splus, ell))) for ell in ell_list])
    ell_grad = np.array([np.asarray(ell, dtype=float) @ M.T for ell in ell_list])
    modes = sorted({j for _, j, _ in pairs} | {jp for _, _, jp in pairs})
    lam_v = np.array([float(lam(j)) for j in modes])
    lform = np.array([[float(c) for c in spectrum.ell_j_form(S, j)] for j in modes])
    ell_pos = {ell: i for i, ell in enumerate(ell_list)}
    mode_pos = {j: i for i, j in enumerate(modes)}
    E = np.array([ell_pos[ell] for ell, _, _ in pairs], dtype=np.intp)
    J = np.array([mode_pos[j] for _, j, _ in pairs], dtype=np.intp)
    JP = np.array([mode_pos[jp] for _, _, jp in pairs], dtype=np.intp)
    base = ell_base[E] + (lam_v[JP] - lam_v[J])
    grad = ell_grad[E] + lam_v[JP, None] * lform[JP] - lam_v[J, None] * lform[J]
    g = box.eps**2 * grad
    return Slabs(base, g, np.full(len(pairs), thr), np.abs(base) + 2 * np.abs(g).sum(1))


def _melnikov_modes(box: FrequencyBox, cfg: MelnikovConfig, jmax: int) -> tuple:
    """Per mode j in S^c with |j| <= jmax: j, lambda(j), d_j = m lambda(j) +
    eps^2 kappa_j as lambda(j) + d_g.xi with its summand bound d_scale, and
    the margin eps^(4-3a)/<j> that bounds the residual of the first-order
    model; and the c of m = 1 + eps^2 c.xi with m's summand bound."""
    e2 = box.eps**2
    ja, lam_v, kap, c_coeff = _mode_table(box.S, jmax)
    m_scale = 1.0 + 2 * e2 * np.abs(c_coeff).sum()
    d_g = e2 * (lam_v[:, None] * c_coeff + kap)
    d_scale = np.abs(lam_v) * m_scale + 2 * e2 * np.abs(kap).sum(1)
    margin = cfg.scaling.epsilon ** (4.0 - 3.0 * cfg.scaling.a) / np.maximum(
        1, np.abs(ja.astype(float))
    )
    return ja, lam_v, d_g, d_scale, margin, c_coeff, m_scale


def first_melnikov_slabs(box: FrequencyBox, cfg: MelnikovConfig, jmax: int) -> Iterator[Slabs]:
    """First Melnikov, one block per ell: |omega.l + m j| and |omega.l + d_j|
    below 2 gamma_0 <l>^-tau + margin_j, for the modes |j| <= jmax in S^c."""
    ja, lam_v, d_g, d_scale, margin, c_coeff, m_scale = _melnikov_modes(box, cfg, jmax)
    jf = ja.astype(float)
    mode = Slabs(np.concatenate([jf, lam_v]),
                 np.concatenate([box.eps**2 * jf[:, None] * c_coeff, d_g]),
                 np.concatenate([margin, margin]), np.concatenate([np.abs(jf) * m_scale, d_scale]))
    ells, rows = _ell_table(box.S.nu, cfg.ell_max)
    wl_c0, wl_g, wl_scale = box.ell_forms(rows)
    for i, ell in enumerate(ells):
        thr = 2.0 * cfg.gamma_0 * ell_bracket(ell) ** (-cfg.scaling.tau)
        yield Slabs(wl_c0[i] + mode.c0, wl_g[i] + mode.g, thr + mode.t, wl_scale[i] + mode.scale)


def second_melnikov_slabs(box: FrequencyBox, cfg: MelnikovConfig, jmax: int) -> Iterator[Slabs]:
    """Second Melnikov, one block per ell: |omega.l + d_j - d_k| below
    2 gamma*_0 <l>^-tau + margin_j + margin_k over the momentum-compatible
    pairs k = j - l.jbar with both modes in the scan (no case for k = j)."""
    S = box.S
    ja, lam_v, d_g, d_scale, margin, _, _ = _melnikov_modes(box, cfg, jmax)
    # position of mode k in ja, or -1, for k in [-jmax, jmax]
    pos = np.full(2 * jmax + 1, -1, dtype=np.intp)
    pos[ja + jmax] = np.arange(len(ja))
    ells, rows = _ell_table(S.nu, cfg.ell_max)
    wl_c0, wl_g, wl_scale = box.ell_forms(rows)
    for i, ell in enumerate(ells):
        shift = sum(s * e for s, e in zip(S.splus, ell))
        if shift == 0:
            continue
        k = ja - shift
        jdx = np.flatnonzero(np.abs(k) <= jmax)
        kdx = pos[k[jdx] + jmax]
        jdx, kdx = jdx[kdx >= 0], kdx[kdx >= 0]
        thr2 = 2.0 * cfg.gamma_0_star * ell_bracket(ell) ** (-cfg.scaling.tau)
        yield Slabs(
            wl_c0[i] + lam_v[jdx] - lam_v[kdx],
            wl_g[i] + d_g[jdx] - d_g[kdx],
            thr2 + margin[jdx] + margin[kdx],
            wl_scale[i] + d_scale[jdx] + d_scale[kdx],
        )


def _kappa_matrix(S: TangentialSet, js: Sequence[int]) -> np.ndarray:
    return np.array([[float(c) for c in w_vec(S, j)] for j in js])


# The two tables below do not depend on eps, so a sweep builds them once and
# not once per eps.  Their arrays are shared between calls: read-only.


@functools.lru_cache(maxsize=8)
def _ell_table(nu: int, ell_max: int) -> tuple[tuple, np.ndarray]:
    """The ell of `ell_vectors_up_to(nu, ell_max)`, and the same rows as floats."""
    ells = tuple(ell_vectors_up_to(nu, ell_max))
    rows = np.array(ells, dtype=float)
    rows.flags.writeable = False
    return ells, rows


@functools.lru_cache(maxsize=8)
def _mode_table(S: TangentialSet, jmax: int) -> tuple[np.ndarray, ...]:
    """The modes j in S^c with |j| <= jmax, lambda(j), the rows w_j of
    kappa_j = w_j . xi, and the c of m = 1 + eps^2 c.xi."""
    js = [j for j in range(-jmax, jmax + 1) if S.in_sc(j)]
    table = (np.asarray(js), np.array([float(lam(j)) for j in js]), _kappa_matrix(S, js),
             np.array([float(v) for v in v_vec(S)]))
    for a in table:
        a.flags.writeable = False
    return table


def pruning_slope_constant(S: TangentialSet) -> float:
    """C-tilde = |m| / (4 |omega_bar|) at |m| = 1, the pruning slope of the resonant sets."""
    wb = np.array([float(lam(s)) for s in S.splus])
    return 1.0 / (4.0 * float(np.linalg.norm(wb)))


def _melnikov_j_range(S: TangentialSet, cfg: MelnikovConfig) -> int:
    """The |j| range ceil(ell_max / C) + margin of both Melnikov scans, C the
    pruning slope.  It is pruning-justified for the first Melnikov scan
    (|l| < C|j| empties a case) and a plain truncation for the second: the
    bound that would prune a pair is |l| < C|lambda(j) - lambda(k)|, and on
    the momentum-compatible pairs |lambda(j) - lambda(k)| is close to
    |l.jbar|, far below |l|/C."""
    return int(math.ceil(cfg.ell_max / pruning_slope_constant(S))) + MELNIKOV_J_MARGIN


# -- slabs against the box ----------------------------------------------------------------


def slab_meets_box(c0: np.ndarray, g: np.ndarray, t: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Mask of the cases whose slab {xi : |c0 + g.xi| < t} meets the box [1,2]^nu.

    c0, t and scale hold one value per case and g one row of nu values.  On
    the box c0 + g.xi ranges exactly over
        [c0 + sum_i min(g_i, 2 g_i), c0 + sum_i max(g_i, 2 g_i)];
    a case is kept when that range meets [-t, t] widened by ROUNDING * scale,
    where `scale` bounds the sum of the absolute values of the summands of the
    form and of the per-sample expression that evaluates it.  So a dropped
    case has no sample that its per-sample test would exclude, with < or <=."""
    lo = c0 + np.minimum(g, 2 * g).sum(axis=-1)
    hi = c0 + np.maximum(g, 2 * g).sum(axis=-1)
    slack = ROUNDING * scale
    return (lo <= t + slack) & (hi >= -t - slack)


def slab_volumes(c0: np.ndarray, g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """xi-volume of {xi in [1,2]^nu : |c0 + g.xi| < t} for each case.

    With a = |g| sorted in decreasing order, the form is lo + a.u over u in
    [0,1]^nu, lo = c0 + sum_i min(g_i, 2 g_i) its value at the lowest corner
    and hi = lo + sum a at the highest.  Inclusion-exclusion over the corners
    u_S gives, over the m nonzero a_i,
        vol = sum_S (-1)^|S| [p_S^m - q_S^m] / (m! prod a),
        p_S, q_S = (H - v_S)_+, (-t - v_S)_+,   v_S = lo + sum_{i in S} a_i,
    with H = min(t, hi) (clipping at the box leaves the sum unchanged).  The
    difference is taken per corner: p^m - q^m = (H + t) sum_k p^k q^(m-1-k)
    when both are positive, and H + t is 2t exactly unless the box clips the
    slab, so a thin slab keeps its digits; a slab that misses the box
    (lo >= t or hi <= -t) gives 0 exactly."""
    a = -np.sort(-np.abs(g), axis=1)
    lo = c0 + np.minimum(g, 2 * g).sum(axis=1)
    hi = lo + a.sum(axis=1)
    rank = np.count_nonzero(a, axis=1)
    meets = (lo < t) & (hi > -t)
    vol = np.where(meets & (rank == 0), 1.0, 0.0)  # a constant form
    for m in range(1, g.shape[1] + 1):
        sel = meets & (rank == m)
        am, lm, tm, Hm = a[sel, :m], lo[sel], t[sel], np.minimum(t, hi)[sel]
        total = np.zeros(len(lm))
        for corner in itertools.product((0.0, 1.0), repeat=m):
            v = lm + am @ np.array(corner)
            p, q = Hm - v, -tm - v
            thin = sum(p**k * q ** (m - 1 - k) for k in range(m))
            term = np.where(q > 0, (Hm + tm) * thin, np.where(p > 0, p**m, 0.0))
            total += (-1) ** int(sum(corner)) * term
        vol[sel] = total / (math.factorial(m) * am.prod(axis=1))
    return np.clip(vol, 0.0, 1.0)


# -- the G0_0 truncation and the measure lemma --------------------------------------------


def g0_truncation_note(cfg: MelnikovConfig) -> str:
    return (
        f"zeroth-Melnikov scan truncated at |l| <= {cfg.ell_max}; the neglected "
        f"tail has per-l width 2*gamma*<l>^-{cfg.scaling.tau} and total measure "
        f"fraction below {2.0 * cfg.gamma * cfg.ell_max ** (-cfg.scaling.tau):.3e}"
    )


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
    all, so the bound lies far above the slab quadrature of the G0_0
    estimate: it is the lemma's one-sided bound, not an estimate of it."""
    box = FrequencyBox.make(S, 1.0)
    unit = g0_0_slabs(box, ell_max, tau, 1.0)  # g = A^T l, t = <l>^-tau
    return 2.0 * float(abs(box.td.det_A)) * float(np.sum(unit.t / np.abs(unit.g).max(axis=1)))


# -- Monte-Carlo measure estimation -------------------------------------------------------


MIN_SAMPLES = 1000


@dataclass
class MeasureEstimate:
    family: str
    eps: float
    samples: int
    excluded: int
    fraction: float
    stderr: float
    quadrature: float  # union bound: sum of the slab volumes in the box, capped at 1
    volume: float
    measure: float
    measure_stderr: float
    notes: list[str] = field(default_factory=list)


def _meeting(blocks: Iterable[Slabs]) -> tuple[Slabs, int]:
    """The cases of `blocks` whose slab meets the box, and the number of cases."""
    kept, total = [], 0
    for block in blocks:
        total += len(block.t)
        kept.append(block.take(slab_meets_box(*block)))
    return Slabs(*(np.concatenate(parts) for parts in zip(*kept))), total


def estimate_excluded_measure(
    S: TangentialSet,
    cfg: MelnikovConfig,
    family: str,
    samples: int,
    seed: int,
) -> MeasureEstimate:
    """Monte-Carlo estimate of the excluded fraction of the parameter box,
    with the union-bound slab quadrature of the same cases.

    xi ~ U([1,2]^nu) with a counter-based generator (Philox keyed by seed);
    exclusion tested per family:
      G0_0            |omega.l| < gamma <l>^-tau for some 0 < |l| <= ell_max
      G0_1            five-wave condition below C gamma on the pruned case list
      first_melnikov  |omega.l + m j| or |omega.l + d_j| below 2 gamma_0 <l>^-tau
      second_melnikov |omega.l + d_j - d_k| below 2 gamma*_0 <l>^-tau
    d_j is the first-order model m lambda(j) + eps^2 kappa_j with the KAM
    residual set to zero; its bound eps^(4-3a)/<j> is added to the threshold
    as a conservative margin.  The second-Melnikov scan runs over the
    momentum-compatible pairs k = j - l.jbar (the divisors the reduction
    actually inverts).  Both Melnikov scans stop at the |j| range of
    `_melnikov_j_range`, recorded in a note: pruning-justified for the first,
    a plain truncation for the second.

    Each family's builder gives its cases as slabs |c0 + g.xi| < t.  Only
    the cases whose slab meets the box (`slab_meets_box`) are kept; each is
    tested once per sample, and `slab_volumes` gives their volumes for the
    quadrature.  The last note records how many cases were kept.  The float
    forms differ from the unpruned per-sample expressions in the order of
    their operations, so the counts agree except for a sample lying within
    that rounding of a band edge."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"at least {MIN_SAMPLES} samples are required")
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
    notes = [g0_truncation_note(cfg)]

    if family == "G0_0":
        blocks = [g0_0_slabs(box, cfg.ell_max, cfg.scaling.tau, cfg.gamma)]
    elif family == "G0_1":
        pairs, min_ell = g1_scan_pairs(S)
        notes.append(f"five-wave scan over {len(pairs)} momentum cases, min_ell={min_ell}")
        blocks = [g0_1_slabs(box, pairs, box.A, cfg.c_g1 * cfg.gamma)]
    else:
        jmax = _melnikov_j_range(S, cfg)
        first = family == "first_melnikov"
        why = "justified by |l| >= C|j| pruning" if first else "a plain truncation"
        notes.append(
            f"melnikov scan over |j| <= {jmax}, {why}, "
            f"with C = {pruning_slope_constant(S):.4f} and |l| <= {cfg.ell_max}"
        )
        builder = first_melnikov_slabs if first else second_melnikov_slabs
        blocks = builder(box, cfg, jmax)
    slabs, total = _meeting(blocks)
    notes.append(f"{len(slabs.t)} of {total} cases meet the parameter box")

    excluded = np.zeros(samples, dtype=bool)
    for c0, g, t in zip(slabs.c0, slabs.g, slabs.t):
        val = xi @ g
        val += c0
        excluded |= np.abs(val, out=val) < t
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
        quadrature=min(1.0, float(slab_volumes(slabs.c0, slabs.g, slabs.t).sum())),
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


# -- per-eps sweep with a fitted scaling exponent -----------------------------------------


@dataclass
class SweepResult:
    """Per-eps estimates with a weighted log-log fit of measure against eps.

    `theory_slope` = 2(nu-1) + 2b is the exponent of the measure lemma's
    upper bound C eps^(2(nu-1)) gamma with gamma = eps^(2b) (see
    `g0_lemma_constant`).  The lemma bounds the excluded measure from above;
    it does not say that the measure follows this power law, so the slope
    is a reported figure only."""

    family: str
    eps_values: list[float]
    estimates: list[MeasureEstimate]
    slope: float
    slope_stderr: float
    theory_slope: float


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
        ws.append(1.0 / max(s / mval, 1e-12) ** 2)
    if len(xs) < 2:
        return float("nan"), float("nan")
    xs_a, ys_a, ws_a = map(np.asarray, (xs, ys, ws))
    W = ws_a.sum()
    xbar = (ws_a * xs_a).sum() / W
    ybar = (ws_a * ys_a).sum() / W
    sxx = (ws_a * (xs_a - xbar) ** 2).sum()
    slope = (ws_a * (xs_a - xbar) * (ys_a - ybar)).sum() / sxx
    return float(slope), float(math.sqrt(1.0 / sxx))


def sweep_configs(
    S: TangentialSet,
    a: float,
    eps_values: Sequence[float],
    c_g1: float = MelnikovConfig.c_g1,
    ell_max: int = MelnikovConfig.ell_max,
) -> list[MelnikovConfig]:
    """One MelnikovConfig per eps; ValueError names a parameter out of range."""
    return [
        MelnikovConfig(scaling=ScalingParams(epsilon=eps, a=a, nu=S.nu), c_g1=c_g1, ell_max=ell_max)
        for eps in eps_values
    ]


def measure_sweep(
    S: TangentialSet,
    cfgs: Sequence[MelnikovConfig],
    family: str,
    samples: int,
    seed: int,
    threads: int = 0,
) -> SweepResult:
    """`estimate_excluded_measure` at each config of `sweep_configs`, the i-th
    with seed + i, and the log-log fit of the measures against eps."""

    def one(i_cfg):
        i, cfg = i_cfg
        return estimate_excluded_measure(S, cfg, family, samples, seed + i)

    jobs = list(enumerate(cfgs))
    if threads > 1:
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
    b = 1.0 + cfgs[0].scaling.a / 2.0
    return SweepResult(
        family=family,
        eps_values=[cfg.scaling.epsilon for cfg in cfgs],
        estimates=estimates,
        slope=slope,
        slope_stderr=err,
        theory_slope=2.0 * (S.nu - 1) + 2.0 * b,
    )
