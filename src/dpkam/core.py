"""Exact scalar arithmetic, the DP dispersion law, and tangential-set bookkeeping.

Everything in this module is exact: scalars are `fractions.Fraction`, and
all predicates are decided with integer arithmetic.  Floating point enters
the package only in the measure and torus modules.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def check_mode_index(j: int) -> int:
    """Validate a Fourier mode index (nonzero integer)."""
    if not isinstance(j, int) or isinstance(j, bool):
        raise TypeError("mode index must be an int")
    if j == 0:
        raise ValueError("mode index 0 is excluded (zero-average phase space)")
    return j


def lam(j: int) -> Fraction:
    """Linear dispersion law j*(4+j^2)/(1+j^2) as an exact rational."""
    check_mode_index(j)
    return Fraction(j * (4 + j * j), 1 + j * j)


def kr_weight(r: int, j: int) -> Fraction:
    """Quadratic weight (1+j^2)^2 * j^(2(r-2)) of the r-th conserved quantity."""
    if r < 2:
        raise ValueError("conserved-hierarchy weights start at r = 2")
    check_mode_index(j)
    return Fraction((1 + j * j) ** 2 * j ** (2 * (r - 2)))


@dataclass(frozen=True)
class TangentialSet:
    """Tangential sites S+ (sorted ascending) with derived data.

    The convention of the construction is that jbar1 denotes the largest
    site; we keep the sites sorted ascending and track the maximum in a
    separate field to avoid positional confusion.
    """

    splus: tuple[int, ...]
    jbar1: int
    nu: int

    @classmethod
    def make(cls, sites: Iterable[int]) -> "TangentialSet":
        sp = tuple(sorted(int(s) for s in sites))
        if len(sp) < 2:
            raise ValueError("a tangential set needs nu >= 2 sites")
        if len(set(sp)) != len(sp):
            raise ValueError(f"tangential sites must be distinct, got {sp}")
        if sp[0] < 1:
            raise ValueError(f"tangential sites must be positive integers, got {sp}")
        return cls(splus=sp, jbar1=sp[-1], nu=len(sp))

    @property
    def sites(self) -> tuple[int, ...]:
        """S = S+ together with the opposite modes, sorted ascending."""
        return tuple(sorted([-s for s in self.splus] + list(self.splus)))

    @functools.cached_property
    def non_normal(self) -> frozenset[int]:
        """The indices outside S^c: the sites of S and 0."""
        return frozenset((0, *self.sites))

    def in_s(self, j: int) -> bool:
        return abs(j) in self.splus

    def in_sc(self, j: int) -> bool:
        """Normal-site predicate: j in Z \\ (S u {0})."""
        return j != 0 and not self.in_s(j)

    def angle_vector(self, j: int) -> tuple[int, ...]:
        """Angle Fourier vector l(j) of the tangential mode j in S."""
        if not self.in_s(j):
            raise ValueError(f"{j} is not a tangential mode of {self.splus}")
        e = [0] * self.nu
        i = self.splus.index(abs(j))
        e[i] = 1 if j > 0 else -1
        return tuple(e)


def linear_frequencies(S: TangentialSet) -> tuple[Fraction, ...]:
    """Vector of linear frequencies lambda(site) over S+ (ascending)."""
    return tuple(lam(s) for s in S.splus)


def signed_ell_vectors(nu: int, norm: int) -> list[tuple[int, ...]]:
    """All integer vectors in Z^nu with l1-norm exactly `norm`."""
    out = []
    for comp in itertools.product(range(-norm, norm + 1), repeat=nu):
        if sum(abs(c) for c in comp) == norm:
            out.append(comp)
    return out


def ell_vectors_up_to(nu: int, n: int) -> list[tuple[int, ...]]:
    """All ell in Z^nu with 1 <= |ell|_1 <= n, by increasing norm, each norm
    in the order of `signed_ell_vectors`."""
    return [ell for norm in range(1, n + 1) for ell in signed_ell_vectors(nu, norm)]


def packet_sum(S: TangentialSet, ell: Sequence[int]) -> Fraction:
    """The wave-packet sum sum_i l_i s_i / (1 + s_i^2) over the sites s_i of S+."""
    return sum((Fraction(s, 1 + s * s) * e for s, e in zip(S.splus, ell)), Fraction(0))


def is_in_wave_packet_class(S: TangentialSet, r: Fraction) -> bool:
    """Exact wave-packet test: large clustered sites plus the |l|=4 condition."""
    r = as_rational(r)
    if not (0 < r < 1):
        raise ValueError("wave-packet parameter must lie in (0, 1)")
    if Fraction(min(S.splus)) * r <= 1:
        return False
    for s in S.splus:
        if abs(Fraction(s, S.jbar1) - 1) > r:
            return False
    return all(packet_sum(S, ell) != 0 for ell in signed_ell_vectors(S.nu, 4))


@dataclass(frozen=True)
class ScalingParams:
    """Perturbation scalings: epsilon, a = 2b-2, gamma = eps^(2b), tau = 2nu+6."""

    epsilon: float
    a: float
    nu: int

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.a <= 0:
            raise ValueError("the scaling exponent a must be positive")
        if self.nu < 2:
            raise ValueError("nu >= 2")

    @property
    def b(self) -> float:
        return 1.0 + self.a / 2.0

    @property
    def gamma(self) -> float:
        return self.epsilon ** (2.0 * self.b)

    @property
    def tau(self) -> int:
        return 2 * self.nu + 6


def ell_norm(ell: Sequence[int]) -> int:
    return sum(abs(int(e)) for e in ell)


def ell_bracket(ell: Sequence[int]) -> int:
    """<l> = max(1, |l|) with the l1 norm."""
    return max(1, ell_norm(ell))


def float_fmt(x: float) -> str:
    """Fixed 17-significant-digit formatting used by every report writer."""
    return format(float(x), ".17g")


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def check(name: str, value, threshold, passed: bool, witness: str = "") -> dict:
    """One pass/fail record of a report.  Every report writes this shape, with
    the keys in this order: check, value, threshold, witness, pass."""
    return {"check": name, "value": value, "threshold": threshold, "witness": witness,
            "pass": passed}
