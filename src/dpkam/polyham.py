"""Algebra of finitely supported homogeneous polynomial Hamiltonians.

A Hamiltonian is a map from sorted Fourier index tuples (monomials in the
coefficients u_j, j != 0) to rational coefficients, times one phase i^p:

    K(u) = i^p sum_M  coeff[M] * u_{j_1} ... u_{j_n},   M = (j_1 <= ... <= j_n),

with p = 0 (`imaginary=False`) or p = 1 (`imaginary=True`).  One phase bit
suffices: DP is reversible under x -> -x, so its Hamiltonian has real
coefficients, and every bracket and every homological solve multiplies by i
once, so each polynomial the normal form forms is either real or purely
imaginary.  Adding a nonzero real and a nonzero imaginary polynomial raises.

Coefficients are attached to the *monomial basis*: permutation multiplicity
is absorbed into the coefficient at construction, so every multiset of
indices appears exactly once.

The Poisson bracket is normalized so that the adjoint action of the
quadratic Hamiltonian multiplies a monomial by i * sum_i lambda(j_i); the
self-consistency test (conjugating by the flow of the solved homological
equation cancels the source term exactly) pins this convention.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .core import TangentialSet, as_rational, fraction_str, lam

Monomial = tuple[int, ...]


def _check_monomial(mono: Iterable[int]) -> Monomial:
    m = tuple(sorted(int(j) for j in mono))
    if any(j == 0 for j in m):
        raise ValueError(f"monomial contains the excluded index 0: {m}")
    return m


def monomial_momentum(mono: Monomial) -> int:
    return sum(mono)


def monomial_lambda_sum(mono: Monomial) -> Fraction:
    return sum((lam(j) for j in mono), Fraction(0))


def ordering_count(mono: Monomial) -> int:
    """Number of distinct orderings of the multiset `mono` (a multinomial)."""
    mult = math.factorial(len(mono))
    for j in set(mono):
        mult //= math.factorial(mono.count(j))
    return mult


def i_power(n: int) -> tuple[int, bool]:
    """i^n as (sign, imaginary): the phase of a product of n factors i."""
    return (-1 if n % 4 >= 2 else 1), n % 2 == 1


def z_degree(mono: Monomial, S: TangentialSet) -> int:
    """Number of indices of the monomial lying in the normal set S^c."""
    non_normal = S.non_normal
    return sum(j not in non_normal for j in mono)


@dataclass
class HomPoly:
    """Homogeneous polynomial Hamiltonian of fixed degree."""

    degree: int
    terms: dict[Monomial, Fraction] = field(default_factory=dict)
    momentum: bool = False  # if set, every monomial must satisfy sum(j_i) = 0
    imaginary: bool = False  # if set, the polynomial is i times its terms

    def __post_init__(self):
        clean: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            m = _check_monomial(mono)
            if len(m) != self.degree:
                raise ValueError(f"monomial {m} does not have degree {self.degree}")
            c = as_rational(c)
            if not c:
                continue
            if self.momentum and monomial_momentum(m) != 0:
                raise ValueError(f"momentum flag set but sum of {m} is nonzero")
            if m in clean:
                c = clean[m] + c
                if not c:
                    del clean[m]
                    continue
            clean[m] = c
        self.terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, degree: int, momentum: bool = False, imaginary: bool = False) -> "HomPoly":
        return cls(degree, {}, momentum, imaginary)

    def copy(self) -> "HomPoly":
        out = HomPoly.zero(self.degree, self.momentum, self.imaginary)
        out.terms = dict(self.terms)
        return out

    def add_ordered(self, indices: Iterable[int], coeff) -> None:
        """Accumulate `coeff` for an *ordered* tuple: the coefficient of the
        sorted monomial grows by coeff times the number of distinct orderings."""
        m = _check_monomial(indices)
        self.accumulate(m, as_rational(coeff) * ordering_count(m))

    def accumulate(self, mono: Monomial, coeff: Fraction) -> None:
        cur = self.terms.get(mono)
        cur = coeff if cur is None else cur + coeff
        if cur:
            self.terms[mono] = cur
        else:
            self.terms.pop(mono, None)

    # -- ring-ish operations ---------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if other.degree != self.degree:
            raise ValueError("cannot add polynomials of different degree")
        if self.terms and other.terms and self.imaginary != other.imaginary:
            raise ValueError("cannot add a real and an imaginary polynomial")
        out = self.copy()
        out.momentum = self.momentum and other.momentum
        out.imaginary = self.imaginary if self.terms else other.imaginary
        for m, c in other.terms.items():
            out.accumulate(m, c)
        return out

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "HomPoly":
        """Multiply by the rational c."""
        c = as_rational(c)
        return self.multiplier(lambda _: c)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        sign, imaginary = i_power(self.imaginary + other.imaginary)
        out = HomPoly.zero(
            self.degree + other.degree, self.momentum and other.momentum, imaginary
        )
        for m1, c1 in self.terms.items():
            a = -c1 if sign < 0 else c1
            for m2, c2 in other.terms.items():
                out.accumulate(tuple(sorted(m1 + m2)), a * c2)
        return out

    def multiplier(self, fn: Callable[[Monomial], Fraction], times_i: bool = False) -> "HomPoly":
        """Multiply each coefficient by fn(monomial), or by i fn(monomial) with
        `times_i`, dropping the zero products."""
        sign, imaginary = i_power(self.imaginary + times_i)
        out = HomPoly.zero(self.degree, self.momentum, imaginary)
        for m, c in self.terms.items():
            p = c * fn(m)
            if p:
                out.terms[m] = -p if sign < 0 else p
        return out

    def map_filter(self, keep: Callable[[Monomial], bool]) -> "HomPoly":
        out = HomPoly.zero(self.degree, self.momentum, self.imaginary)
        out.terms = {m: c for m, c in self.terms.items() if keep(m)}
        return out

    # -- invariants ------------------------------------------------------------

    def is_real_hamiltonian(self) -> bool:
        """Reality: the coefficient of -M is the conjugate of that of M, so
        coeff(-M) = (-1)^p coeff(M) for the phase i^p."""
        sign = -1 if self.imaginary else 1
        for m, c in self.terms.items():
            neg = tuple(sorted(-j for j in m))
            if self.terms.get(neg, 0) != sign * c:
                return False
        return True

    def preserves_momentum(self) -> bool:
        return all(monomial_momentum(m) == 0 for m in self.terms)

    def max_abs_index(self) -> int:
        return max((max(abs(j) for j in m) for m in self.terms), default=0)


# -- the bracket -----------------------------------------------------------------


def poisson_bracket(
    F: HomPoly,
    G: HomPoly,
    *,
    max_z: int | None = None,
    S: TangentialSet | None = None,
    universe: frozenset[int] | None = None,
) -> HomPoly:
    """{F, G} with the normalization ad_{H2}[u_M] = i (sum lambda(j_i)) u_M.

    In Fourier variables {F, G} = i sum_k lambda(k) (dF/du_{-k}) (dG/du_k),
    so the bracket has the phase i^(p_F + p_G + 1).  Each term is one
    Fraction product a * b: a = +-lambda(k) mult_f c_f (the sign of the
    phase) is formed once per (m_f, k), and b = mult_g c_g once per (m_g, k).

    `max_z` (with `S`) keeps only the monomials of z-degree <= max_z, and
    `universe` only those with every index in the window; the result equals
    the full bracket filtered so.  A term's monomial is rest_f + rest_g (m_f
    without -k, m_g without k), so its z-degree is z(rest_f) + z(rest_g) and
    it lies in the window iff both halves do: both tests run per half, before
    any product is formed.
    """
    if F.degree < 2 or G.degree < 2:
        raise ValueError("Poisson bracket needs degree >= 2 on both sides")
    if (max_z is None) != (S is None):
        raise ValueError("a z-degree cap needs both max_z and S")
    sign, imaginary = i_power(F.imaginary + G.imaginary + 1)
    out = HomPoly.zero(F.degree + G.degree - 2, F.momentum and G.momentum, imaginary)
    # z-degree by one set lookup per index; without a cap every z is 0 <= 0
    non_normal = S.non_normal if S is not None else None
    cap = 0 if max_z is None else max_z

    def z(mono) -> int:
        return 0 if non_normal is None else sum(j not in non_normal for j in mono)

    def outside(rest) -> bool:
        return universe is not None and not universe.issuperset(rest)

    # k -> partners bucketed by z(rest_g) ascending: (m_g without one k,
    # mult_g c_g) over the monomials of G containing k
    g_by_index: dict[int, list[list[tuple[list[int], Fraction]]]] = {}
    for mg, cg in G.terms.items():
        z_g = z(mg)
        for k in set(mg):
            rest_g = list(mg)
            rest_g.remove(k)
            z_rest = z_g - z((k,))
            if z_rest > cap or outside(rest_g):
                continue
            mult_g = mg.count(k)
            b = cg * mult_g if mult_g > 1 else cg
            buckets = g_by_index.setdefault(k, [])
            buckets.extend([] for _ in range(z_rest + 1 - len(buckets)))
            buckets[z_rest].append((rest_g, b))

    for mf, cf in F.terms.items():
        z_f = z(mf)
        for k_neg in set(mf):
            buckets = g_by_index.get(-k_neg)
            room = cap - (z_f - z((k_neg,))) + 1  # buckets z(rest_g) <= cap - z(rest_f)
            if not buckets or room <= 0:
                continue
            rest_f = list(mf)
            rest_f.remove(k_neg)
            if outside(rest_f):
                continue
            a = lam(-k_neg) * (sign * mf.count(k_neg)) * cf
            for partners in buckets[:room]:
                for rest_g, b in partners:
                    out.accumulate(tuple(sorted(rest_f + rest_g)), a * b)
    return out


def adjoint_action_h2(K: HomPoly) -> HomPoly:
    """ad_{H2}[K]: multiply each monomial coefficient by i * sum lambda(j_i)."""
    return K.multiplier(monomial_lambda_sum, times_i=True)


def solve_homological(
    K: HomPoly, divisor: Callable[[Monomial], Fraction] = monomial_lambda_sum
) -> HomPoly:
    """Inverse of the adjoint action on the range: F_M = K_M / (i divisor(M)),
    with divisor sum lambda(j_i) by default.

    Kernel monomials (divisor 0) are dropped silently; for the default
    divisor, project_kernel retrieves them.
    """

    minus_one = Fraction(-1)

    def inverse(m: Monomial) -> Fraction:
        d = divisor(m)
        return minus_one / d if d else 0  # 1/(i d) = -i/d

    return K.multiplier(inverse, times_i=True)


# -- projectors -------------------------------------------------------------------


def project_kernel(K: HomPoly) -> HomPoly:
    return K.map_filter(lambda m: monomial_lambda_sum(m) == 0)


def project_range(K: HomPoly) -> HomPoly:
    return K.map_filter(lambda m: monomial_lambda_sum(m) != 0)


def is_trivial_monomial(mono: Monomial) -> bool:
    """Products of pairs u_j u_{-j}: every index matched with its negative."""
    if len(mono) % 2:
        return False
    counts: dict[int, int] = defaultdict(int)
    for j in mono:
        counts[j] += 1
    return all(counts[j] == counts.get(-j, 0) for j in counts)


def project_trivial(K: HomPoly) -> HomPoly:
    return K.map_filter(is_trivial_monomial)


def project_z_degree(K: HomPoly, S: TangentialSet, predicate: Callable[[int], bool]) -> HomPoly:
    """Keep monomials whose z-degree (count of indices in S^c) satisfies `predicate`."""
    return K.map_filter(lambda m: predicate(z_degree(m, S)))


# -- Lie series -------------------------------------------------------------------


def flow_conjugate(
    pieces: Iterable[HomPoly],
    F: HomPoly,
    max_degree: int,
    max_z_keep: Callable[[int], int] | None = None,
    universe: frozenset[int] | None = None,
    S: TangentialSet | None = None,
) -> dict[int, HomPoly]:
    """Lie-series conjugation of a Hamiltonian by the time-1 flow of F.

    Returns the homogeneous pieces (keyed by degree) of H o Phi_F^{-1}
    = sum_k ad_F^k[H]/k!, truncated at `max_degree`.

    `max_z_keep(degree)` (with `S`) prunes monomials whose z-degree exceeds
    the given bound; callers must supply a bound compatible with what they
    read off the result (each later bracket with a z-degree <= 1 generator
    lowers the z-degree of a monomial by at most one).  `universe` restricts
    monomials to a finite index window; results are exact for monomials
    supported in the window provided the window contains the generator
    support.  Both act inside each bracket only: the caller passes pieces
    already inside the window and of z-degree at most max_z_keep(degree).
    """
    step = F.degree - 2
    if step <= 0:
        raise ValueError("generator must have degree >= 3")
    if (max_z_keep is None) != (S is None):
        raise ValueError("a z-degree cap needs both max_z_keep and S")
    pieces = list(pieces)
    if any(p.degree > max_degree for p in pieces):
        raise ValueError("truncation degree is below an input degree")

    out: dict[int, HomPoly] = {}

    def add_piece(p: HomPoly) -> None:
        if p.is_zero():
            return
        if p.degree in out:
            out[p.degree] = out[p.degree] + p
        else:
            out[p.degree] = p

    for H in pieces:
        add_piece(H)
        current = H
        k = 1
        while current.degree + step <= max_degree:
            max_z = max_z_keep(current.degree + step) if max_z_keep is not None else None
            current = poisson_bracket(F, current, max_z=max_z, S=S, universe=universe)
            if current.is_zero():
                break
            add_piece(current.scale(Fraction(1, math.factorial(k))))
            k += 1
    return out


# -- serialization ----------------------------------------------------------------


def serialize(K: HomPoly) -> str:
    """Line-oriented canonical text form, one monomial per line: the indices,
    then the real and the imaginary part, one of them 0/1."""
    lines = []
    for m in sorted(K.terms):
        c = fraction_str(K.terms[m])
        re, im = ("0/1", c) if K.imaginary else (c, "0/1")
        idx = " ".join(str(j) for j in m)
        lines.append(f"{idx}  {re}  {im}")
    return "\n".join(lines) + ("\n" if lines else "")


def deserialize(text: str, degree: int, momentum: bool = False) -> HomPoly:
    """Inverse of `serialize`; the phase is read off the lines, and a line or
    a polynomial mixing real and imaginary parts raises ValueError."""
    terms: dict[Monomial, Fraction] = {}
    phases = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        idx = tuple(int(p) for p in parts[:-2])
        re, im = (Fraction(int(n), int(d)) for n, d in (p.split("/") for p in parts[-2:]))
        if re and im:
            raise ValueError(f"monomial {idx} has both a real and an imaginary part")
        if re or im:
            phases.add(bool(im))
        terms[idx] = im or re
    if len(phases) > 1:
        raise ValueError("the polynomial mixes real and imaginary coefficients")
    return HomPoly(degree, terms, momentum, imaginary=True in phases)
