import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dpkam.core import TangentialSet, ell_vectors_up_to, lam, signed_ell_vectors
from dpkam.twist import (
    NONDEG_ELL_BOUND,
    _distance,
    _eliminate,
    _NearestEll,
    b_jk,
    frequency_map,
    inverse_frequency_map,
    mat_det,
    mat_det_cofactor,
    mat_solve,
    mat_transpose,
    nondegeneracy_report,
    normalized_det,
    normalized_det_limit_form,
    twist_matrix,
    v_vec,
    w_vec,
)
from dpkam.wbnf import twist_cross_sum


def test_b_jk_values():
    assert b_jk(1, 2) == Fraction(7, 9)
    assert b_jk(6, 7) == Fraction(5365, 299)
    assert b_jk(3, 11) == b_jk(11, 3)
    with pytest.raises(ValueError):
        b_jk(4, 4)


def test_b_jk_equals_cross_sum():
    for j in range(1, 12):
        for k in range(j + 1, 13):
            assert b_jk(j, k) == twist_cross_sum(j, k)


def test_twist_matrix_structure():
    S = TangentialSet.make([6, 7])
    td = twist_matrix(S)
    for i, j in enumerate(S.splus):
        d = 2 * lam(j) - lam(2 * j)
        assert td.A[i][i] == Fraction(1, 2) * lam(j) * lam(2 * j) / d
    assert td.A[0][1] == lam(6) * b_jk(6, 7)
    assert mat_det_cofactor(td.A) == td.det_A


def test_det_permutation_invariance():
    A1 = twist_matrix(TangentialSet.make([5, 9, 14])).det_A
    # TangentialSet sorts ascending, so permuting the input has no effect
    A2 = twist_matrix(TangentialSet.make([14, 5, 9])).det_A
    assert A1 == A2


def test_exact_linear_algebra():
    rng = random.Random(0)
    for n in (2, 3):
        A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        if mat_det(A) == 0:
            continue
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        x = mat_solve(A, b)
        for i in range(n):
            assert sum(A[i][k] * x[k] for k in range(n)) == b[i]
        assert mat_det(A) == mat_det_cofactor(A)
        assert mat_det(mat_transpose(A)) == mat_det(A)


@pytest.mark.parametrize("A", [
    [[Fraction(2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(5)]],
    [[Fraction(0), Fraction(1), Fraction(2)], [Fraction(3), Fraction(0), Fraction(1)],
     [Fraction(1, 2), Fraction(1), Fraction(0)]],  # needs a row swap
    [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]],  # singular
    [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(0), Fraction(0), Fraction(0)],
     [Fraction(4), Fraction(5), Fraction(6)]],  # singular, zero row
], ids=["2x2", "3x3 pivoting", "2x2 singular", "3x3 zero row"])
def test_eliminate_against_cofactors(A):
    det = mat_det_cofactor(A)
    b = [Fraction(k + 1, 7) for k in range(len(A))]
    assert _eliminate(A) == (det, None)
    got, x = _eliminate(A, b)
    assert got == det == mat_det(A)
    if det == 0:
        assert x is None
        with pytest.raises(ZeroDivisionError):
            mat_solve(A, b)
    else:
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
        assert mat_solve(A, b) == x


def test_normalized_det_at_origin():
    # nu = 2, x = 0, p = 1: det K = -3, the closed form's value
    assert normalized_det(Fraction(0), [Fraction(1), Fraction(1)]) == -3
    assert normalized_det_limit_form(Fraction(0), 2) == -3


def test_normalized_det_matches_closed_form():
    rng = random.Random(1)
    for nu in (2, 3):
        ones = [Fraction(1)] * nu
        for _ in range(20):
            x = Fraction(rng.randint(0, 40), 100)
            assert normalized_det(x, ones) == normalized_det_limit_form(x, nu)


def test_normalized_det_near_origin_bounded_away():
    # |det K| >= 1/2 on a grid x < r0, |p - 1| <= r0 (measured r0 = 1/8)
    r0 = Fraction(1, 8)
    for xn in range(0, 5):
        x = r0 * xn / 5
        for pn in range(0, 5):
            p = 1 - r0 * pn / 5
            val = normalized_det(x, [Fraction(1), p])
            assert abs(val) >= Fraction(1, 2)


def test_normalized_det_validation():
    with pytest.raises(ValueError):
        normalized_det(Fraction(-1, 10), [Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        normalized_det(Fraction(1, 10), [Fraction(1), Fraction(3, 2)])


def test_frequency_map_exact():
    S = TangentialSet.make([6, 7])
    td = twist_matrix(S)
    assert frequency_map(S, [0, 0], Fraction(1, 100)) == td.omega_bar
    # S+ = {6,7}, xi = (1,1), eps = 1e-2: alpha - omega_bar = 1e-4 A (1,1)^T
    alpha = frequency_map(S, [1, 1], Fraction(1, 100))
    for i in range(2):
        assert alpha[i] - td.omega_bar[i] == Fraction(1, 10**4) * (
            td.A[i][0] + td.A[i][1]
        )


def test_inverse_frequency_map_roundtrip():
    S = TangentialSet.make([6, 7])
    rng = random.Random(2)
    for _ in range(5):
        xi = [1 + Fraction(rng.randint(0, 100), 100) for _ in range(2)]
        omega = frequency_map(S, xi, Fraction(1, 50))
        back = inverse_frequency_map(S, omega, Fraction(1, 50))
        assert back == xi
    with pytest.raises(ValueError):
        bad = [w + 1 for w in twist_matrix(S).omega_bar]
        inverse_frequency_map(S, bad, Fraction(1, 50))


def test_frequency_map_rejects_floats():
    S = TangentialSet.make([6, 7])
    with pytest.raises(TypeError):
        frequency_map(S, [1.5, 1.5], Fraction(1, 100))
    with pytest.raises(TypeError):
        frequency_map(S, [1, 1], 0.01)
    omega = frequency_map(S, [1, 1], Fraction(1, 100))
    with pytest.raises(TypeError):
        inverse_frequency_map(S, [float(w) for w in omega], Fraction(1, 100))
    with pytest.raises(TypeError):
        inverse_frequency_map(S, omega, 0.01)


def test_frequency_map_jacobian_affine():
    S = TangentialSet.make([6, 7])
    td = twist_matrix(S)
    e2 = Fraction(1, 10**4)
    a1 = frequency_map(S, [1, 1], Fraction(1, 100))
    a2 = frequency_map(S, [2, 1], Fraction(1, 100))
    assert [x - y for x, y in zip(a2, a1)] == [e2 * td.A[0][0], e2 * td.A[1][0]]


def test_corto100_rank_one_identity():
    # |det(I - A^{-T} v wb^T)| equals |1 - A^{-T} v . wb| (rank-one update)
    for sites in ([6, 7], [20, 21, 22]):
        S = TangentialSet.make(sites)
        td = twist_matrix(S)
        At = mat_transpose(td.A)
        y = mat_solve(At, v_vec(S))
        nu = S.nu
        M = [[Fraction(int(r == c)) - y[r] * td.omega_bar[c] for c in range(nu)]
             for r in range(nu)]
        assert mat_det(M) == 1 - sum(a * b for a, b in zip(y, td.omega_bar))


def test_corto100_rank_one_value_for_large_packets():
    # A^{-T} v . omega_bar, the value corto100_rank_one_det reads, tends to
    # 3 nu / (2 nu - 1) as the sites grow together, so |1 - value| < 1/2
    for sites, limit in (([1000, 1001], Fraction(2)), ([1000, 1001, 1002], Fraction(9, 5))):
        S = TangentialSet.make(sites)
        td = twist_matrix(S)
        y = mat_solve(mat_transpose(td.A), v_vec(S))
        value = sum(a * b for a, b in zip(y, td.omega_bar))
        assert abs(value - limit) < Fraction(1, 10**4)


def test_nondegeneracy_report():
    S = TangentialSet.make([6, 7])
    rep = nondegeneracy_report(S, j_bound=30)
    by_name = {r["check"]: r for r in rep}
    # the |l| = 1 sums are 6/37 and 7/50; the minimum is 7/50
    assert by_name["ell_condition_norm_1"]["value"] == pytest.approx(7 / 50)
    assert by_name["corto100_rank_one_det"]["pass"]
    assert by_name["corto100_rank_one_det"]["value"] >= 1.0
    assert all(r["pass"] for r in rep)
    assert all(list(r) == ["check", "value", "threshold", "witness", "pass"] for r in rep)


def _brute_force_scans(S, j_bound, ell_bound=3):
    """Pair and single scan minima and the w-decay constant, with witnesses,
    one candidate at a time: (I - y wb^T) x = A^{-T} u is solved on the full
    matrix for every pair and mode."""
    td = twist_matrix(S)
    At = mat_transpose(td.A)
    y = mat_solve(At, v_vec(S))
    nu = S.nu
    IM = [[Fraction(int(r == c)) - y[r] * td.omega_bar[c] for c in range(nu)] for r in range(nu)]
    ells = [ell for n in range(1, ell_bound + 1) for ell in signed_ell_vectors(nu, n)]

    def scan(u, best, label):
        x = [float(v) for v in mat_solve(IM, mat_solve(At, u))]
        for ell in ells:
            val = math.sqrt(sum((e - xi) * (e - xi) for e, xi in zip(ell, x))) / sum(map(abs, ell))
            if best is None or val < best[0]:
                best = (val, f"ell={ell}, {label}")
        return best

    normal = [j for j in range(-j_bound, j_bound + 1) if S.in_sc(j)]
    single = pair = None
    decay = (0.0, "")
    for j in normal:
        single = scan(w_vec(S, j), single, f"j={j}")
    for a, j in enumerate(normal):
        for k in normal[a + 1:]:
            diff = [p - q for p, q in zip(w_vec(S, j), w_vec(S, k))]
            pair = scan(diff, pair, f"j={j}, k={k}")
            ratio = max(abs(float(d)) for d in diff) / (
                abs(j - k) * (1.0 / j**2 + 1.0 / abs(j * k)))
            if ratio > decay[0]:
                decay = (ratio, f"j={j}, k={k}")
    return pair, single, decay


SCANNED = ("corto_pair_scan", "cortissimo_single_scan", "w_decay_fitted_constant")


@pytest.mark.parametrize("splus,j_bound", [((6, 7), 20), ((20, 21, 22), 12)])
def test_nondegeneracy_scans_match_brute_force(splus, j_bound):
    S = TangentialSet.make(splus)
    by_name = {r["check"]: r for r in nondegeneracy_report(S, j_bound=j_bound)}
    for name, (value, witness) in zip(SCANNED, _brute_force_scans(S, j_bound)):
        assert (by_name[name]["value"], by_name[name]["witness"]) == (value, witness), name


# (value, witness) of the three scans, recorded from the scan that formed one
# Fraction and one float vector per candidate
SCAN_RECORDS = {
    ((6, 7), 60): [
        (0.12644610002365153, "ell=(-1, -1), j=-5, k=5"),
        (0.40080090360144954, "ell=(-1, -1), j=-4"),
        (609.7280318043772, "j=-60, k=-8"),
    ],
    ((6, 7), 240): [
        (0.12644610002365153, "ell=(-1, -1), j=-5, k=5"),
        (0.40080090360144954, "ell=(-1, -1), j=-4"),
        (612.5565677744148, "j=-240, k=-8"),
    ],
    ((6, 7, 8), 60): [
        (0.2355621159563246, "ell=(-1, -1, -1), j=-5, k=5"),
        (0.4003492730579837, "ell=(-1, -1, -1), j=-5"),
        (1012.8249303342212, "j=-38, k=-9"),
    ],
}


@pytest.mark.parametrize("splus,j_bound", list(SCAN_RECORDS))
def test_nondegeneracy_scans_keep_recorded_values(splus, j_bound):
    by_name = {r["check"]: r for r in
               nondegeneracy_report(TangentialSet.make(splus), j_bound=j_bound)}
    assert ([(by_name[n]["value"], by_name[n]["witness"]) for n in SCANNED]
            == SCAN_RECORDS[splus, j_bound])


def test_nearest_ell_reports_python_float_distances():
    # a scan reports the first minimum of `_distance` in (row, ell) order, one
    # row at a time or in blocks
    ells = ell_vectors_up_to(2, NONDEG_ELL_BOUND)
    rng = random.Random(5)
    rows = [[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(3000)]
    candidates = [(_distance(ell, x), f"ell={ell}, r={r}") for r, x in enumerate(rows)
                  for ell in ells]
    for r, x in enumerate(rows):
        one = _NearestEll(ells)
        one.scan(np.array([x]), lambda _: f"r={r}")
        assert (one.value, one.witness) == min(candidates[r * len(ells):(r + 1) * len(ells)],
                                               key=lambda p: p[0])
    blocks = _NearestEll(ells)
    for lo, hi in ((0, 1000), (1000, 3000)):
        blocks.scan(np.array(rows[lo:hi]), lambda r: f"r={lo + r}")
    assert (blocks.value, blocks.witness) == min(candidates, key=lambda p: p[0])


def test_nondegeneracy_report_needs_a_normal_site():
    with pytest.raises(ValueError, match="no normal site"):
        nondegeneracy_report(TangentialSet.make([1, 2]), j_bound=2)


def test_w_vec_odd_in_j():
    S = TangentialSet.make([6, 7])
    w10 = w_vec(S, 10)
    w_m10 = w_vec(S, -10)
    assert [a + b for a, b in zip(w10, w_m10)] == [0, 0]
    with pytest.raises(ValueError):
        w_vec(S, 6)
