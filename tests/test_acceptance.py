"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all;
failures surface the line regardless).  Two sub-checks assert what the
paper's bounds make true rather than what they state literally:

- 7c: the stated window bound b_n <= 4.5n of the decomposition behind the
  Bernstein-type constant holds for n <= 36 and fails from n = 37 on (a
  factor-2 slip in the window estimate); every failure carries an exact
  rational witness, and the corrected bound 5n - 4 holds throughout.
- 9b: the stated slope windows are asymptotic; they are checked on the
  geometric ns at which the Voronovskaya estimate certifies them, and the
  slopes at ns = {4,...,64} are checked against the interval that estimate
  certifies there.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gsops.analysis import (
    BERNSTEIN_CONSTANT,
    CONVERSE_CONSTANT,
    CONVERSE_SCALE_FACTOR,
    DEFAULT_GRID,
    PASS_ATOL,
    PASS_RTOL,
    SQRT3,
    Sweep,
    _moment_bruteforce_dev,
    bernstein_probe_max_ratio,
    check_bernstein_inequality,
    check_bn_decomposition,
    check_converse,
    check_jackson,
    check_voronovskaya,
    kfunctional_sandwich,
    lebesgue_bound,
    loglog_slope,
    sup_norm,
)
from gsops.basis import bernstein_matrix, phi_big, tail_sums
from gsops.catalog import CATALOG, get_function
from gsops.errors import PreconditionError
from gsops.exactpoly import (
    RationalPoly,
    apply_Utilde_exact,
    commute_check_exact,
    telescope_check_exact,
)
from gsops.operators import utilde_from_u

from helpers import distance, sweep_U

EXACT_POLYS = {
    "t2": RationalPoly([0, 0, 1]),
    "t3": RationalPoly([0, 0, 0, 1]),
    "t5mt2": RationalPoly([0, 0, -1, 0, 0, 1]),
}


def announce(tag: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def within(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + PASS_RTOL) + PASS_ATOL


# -- 1. exact identity suite ---------------------------------------------------


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    for name, f in EXACT_POLYS.items():
        for n in range(2, 9):
            apply_Utilde_exact(f, n)  # route identity (two-way construction)
            for m in range(2, 9):
                report = commute_check_exact(f, n, m)
                assert all(v == 0 for v in report.values()), (name, n, m)
            assert telescope_check_exact(f, n) == 0, (name, n)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    announce("1 exact identities", ok, f"all discrepancies exactly 0; {elapsed:.1f}s < 30s")
    assert ok


# -- 2. Phi identity -------------------------------------------------------------


def test_criterion_2_phi_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(2, 201):
        xs = rng.uniform(1e-6, 1.0 - 1e-6, size=100)
        closed_minus_alpha2 = 2.0 - 2.0 / n
        for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0, math.pi):
            dev = np.max(np.abs(phi_big(alpha, n, xs) - (alpha**2 + closed_minus_alpha2)))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    announce("2 Phi identity", ok, f"max dev {worst:.2e} <= 1e-9; {elapsed:.1f}s < 10s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# -- 3. eigen-relation and moments -----------------------------------------------


def test_criterion_3_eigen_and_moments():
    worst_eig = 0.0
    worst_mom = 0.0
    for n in range(2, 101):
        xs = np.linspace(0.017, 0.983, 21)
        B = bernstein_matrix(n, xs)
        B2 = bernstein_matrix(n - 2, xs)
        # brute-force moments against the closed forms
        worst_mom = max(worst_mom, _moment_bruteforce_dev(n, xs))
        # phi P'' (degree-lowered second difference) against T * P, relative
        # to the absolute-term magnitude of T times P
        k = np.arange(n + 1, dtype=float)
        for kk in range(n + 1):
            acc = np.zeros_like(xs)
            if kk >= 2:
                acc += B2[:, kk - 2]
            if 1 <= kk <= n - 1:
                acc -= 2 * B2[:, kk - 1]
            if kk <= n - 2:
                acc += B2[:, kk]
            lhs = xs * (1 - xs) * n * (n - 1) * acc
            t = (
                kk * (kk - 1) * (1 - xs) / xs
                - 2.0 * kk * (n - kk)
                + (n - kk) * (n - kk - 1) * xs / (1 - xs)
            )
            tbar = (
                kk * (kk - 1) * (1 - xs) / xs
                + 2.0 * kk * (n - kk)
                + (n - kk) * (n - kk - 1) * xs / (1 - xs)
            )
            mask = B[:, kk] > 1e-30
            dev = np.abs(lhs - t * B[:, kk])[mask] / (tbar * B[:, kk])[mask]
            if dev.size:
                worst_eig = max(worst_eig, float(np.max(dev)))
    ok = worst_eig <= 1e-10 and worst_mom <= 1e-12
    announce(
        "3 eigen-relation + moments", ok,
        f"eigen rel dev {worst_eig:.2e} <= 1e-10, moment abs dev {worst_mom:.2e} <= 1e-12",
    )
    assert ok


# -- 4. norm bound of the modified operator ---------------------------------------


def test_criterion_4_lebesgue_bound():
    worst_hi = -math.inf
    worst_lo = math.inf
    for n in range(2, 129):
        val = lebesgue_bound(n).value
        worst_hi = max(worst_hi, val - (math.sqrt(3.0 - 2.0 / n) + 1e-9))
        worst_lo = min(worst_lo, val - (1.0 - 1e-12))
    ok = worst_hi <= 0.0 and worst_lo >= 0.0
    announce(
        "4 norm bound", ok,
        f"sup Lebesgue function within [1, sqrt(3-2/n)] for n=2..128 "
        f"(max overshoot {worst_hi:.2e})",
    )
    assert ok


# -- 5. Jackson-type inequality ----------------------------------------------------


def test_criterion_5_jackson():
    eligible = [f for f in CATALOG.values() if f.smoothness.w20 and f.smoothness.dtilde_w2]
    assert {f.name for f in eligible} == {"one", "t", "t2", "t3", "t5mt2", "exp", "sinpi"}
    all_pass = True
    for f in eligible:
        sweep = Sweep(DEFAULT_GRID)
        for n in (2, 4, 8, 16, 32, 64):
            rep = check_jackson(f, n, sweep)
            all_pass &= rep.passed
            if f.name == "t2":
                assert abs(rep.lhs - 1.0 / (2 * n * (n + 1))) <= 1e-10
    announce("5 Jackson inequality", all_pass, "7 eligible functions x n in {2..64}; "
             "t2 error matches 1/(2n(n+1)) to 1e-10")
    assert all_pass


# -- 6. Voronovskaya-type inequality -------------------------------------------------


def test_criterion_6_voronovskaya():
    all_pass = True
    for name in ("t2", "t3", "exp"):
        f = get_function(name)
        sweep = Sweep(DEFAULT_GRID)
        for n in (2, 4, 8, 16, 32):
            all_pass &= check_voronovskaya(f, n, sweep).passed
    t2 = get_function("t2")
    rep = check_voronovskaya(t2, 2, Sweep(DEFAULT_GRID))
    lam2 = math.pi**2 / 6.0 - 1.5  # high-precision tail-sum oracle
    th2 = math.pi**2 / 3.0 - 3.25
    lhs_ok = abs(rep.lhs - abs(1.0 / 3.0 - 4.0 * lam2) / 4.0) <= 1e-9
    rhs_ok = abs(rep.rhs - 2.0 * th2) <= 1e-9
    ok = all_pass and lhs_ok and rhs_ok
    announce("6 Voronovskaya inequality", ok,
             f"t2/t3/exp x n in {{2..32}}; n=2 values lhs={rep.lhs:.6f}, rhs={rep.rhs:.6f}")
    assert ok


# -- 7. Bernstein-type inequality and its decomposition -------------------------------


def test_criterion_7a_bernstein_bound_catalog_and_probes():
    all_pass = True
    for f in CATALOG.values():
        sweep = Sweep(DEFAULT_GRID)
        for n in range(2, 65):
            all_pass &= check_bernstein_inequality(f, n, sweep).passed
    worst_ratio = 0.0
    probes_per_n = 159  # 159 * 63 = 10017 seeded probes
    for n in range(2, 65):
        rng = np.random.default_rng([20240801, n])
        worst_ratio = max(worst_ratio, bernstein_probe_max_ratio(n, probes_per_n, rng))
    probes_ok = worst_ratio <= BERNSTEIN_CONSTANT
    ok = all_pass and probes_ok
    announce("7a Bernstein bound (catalog + 10^4 probes)", ok,
             f"worst probe ratio {worst_ratio:.4f} <= {BERNSTEIN_CONSTANT:.4f}")
    assert ok


def test_criterion_7b_decomposition_a_c_plateau():
    all_pass = True
    for n in range(2, 65):
        reports = {r.name: r for r in check_bn_decomposition(n)}
        all_pass &= reports["a_n_identity"].passed
        all_pass &= reports["c_n_bound"].passed
        all_pass &= reports["b_n_plateau"].passed
    announce("7b decomposition a_n == 2(n-1), c_n <= sqrt(6) n, plateau", all_pass,
             "n in {2..64} on 2001-point grids")
    assert all_pass


def _b_n(n: int, x):
    """The cross part b_n(x) = (2 phi(x)/n) sum_k |T'_{n,k}(x) P'_{n,k}(x)|.

    Written from the definition, independently of check_bn_decomposition:
    T'_{n,k}(x) = -k(k-1)/x^2 + (n-k)(n-k-1)/(1-x)^2 and
    P'_{n,k}(x) = C(n,k) x^(k-1) (1-x)^(n-k-1) (k - n x).  ``x`` is either a
    float array of interior points or a Fraction, evaluated exactly.
    """
    total = 0
    for k in range(n + 1):
        t_prime = -k * (k - 1) / x**2 + (n - k) * (n - k - 1) / (1 - x) ** 2
        p_prime = math.comb(n, k) * x ** (k - 1) * (1 - x) ** (n - k - 1) * (k - n * x)
        total = total + abs(t_prime * p_prime)
    return 2 * x * (1 - x) / n * total


B_N_STATED_HOLDS_UP_TO = 36
B_N_WITNESS_GRID = 10_000


def test_criterion_7c_decomposition_b_bound_as_stated():
    """The stated window bound b_n <= 4.5n, checked in both directions.

    Off the sign-change windows (xi_k, k/n) and their mirror images the
    absolute sum equals the signed one, b_n = 4(n-1).  Inside a window one
    term t_k flips sign, and since the signed sum is still 4(n-1), the
    absolute sum is 4(n-1) + 2|t_k|: the flipped term counts twice, where the
    stated window estimate counts it once.  With |t_k| <= n/2 on the window
    this gives the corrected bound b_n <= 5n - 4; the stated 4.5n holds only
    up to n = 36.

    So the row must pass for n <= 36 and fail for n = 37..64, each failure
    backed by an exact rational witness x with b_n(x) > 9n/2 (x = i/N is the
    argmax of b_n on this test's own uniform grid, then evaluated in Fraction
    arithmetic), and b_n <= 5n - 4 must hold for every n.
    """
    xs = np.arange(1, B_N_WITNESS_GRID) / B_N_WITNESS_GRID
    wrong_verdicts = []
    witnesses = {}
    corrected_ok = True
    for n in range(2, 65):
        rep = {r.name: r for r in check_bn_decomposition(n)}["b_n_bound"]
        assert rep.rhs == 4.5 * n, (n, rep.rhs)
        if rep.passed != (n <= B_N_STATED_HOLDS_UP_TO):
            wrong_verdicts.append(n)
        b_grid = _b_n(n, xs)
        corrected_ok &= rep.lhs <= 5 * n - 4 and float(np.max(b_grid)) <= 5 * n - 4
        if n > B_N_STATED_HOLDS_UP_TO:
            x = Fraction(int(np.argmax(b_grid)) + 1, B_N_WITNESS_GRID)
            witnesses[n] = (x, _b_n(n, x))
    missing = [n for n, (_, b) in witnesses.items() if not b > Fraction(9 * n, 2)]
    ok = not wrong_verdicts and not missing and corrected_ok
    worst_n = max(witnesses, key=lambda n: witnesses[n][1] / n)
    detail = (
        f"row passes for n <= {B_N_STATED_HOLDS_UP_TO} and fails for "
        f"n in {{{B_N_STATED_HOLDS_UP_TO + 1}..64}}; exact witnesses b_n(x) > 9n/2, "
        f"max b_{worst_n}({witnesses[worst_n][0]})/{worst_n} = "
        f"{float(witnesses[worst_n][1] / worst_n):.5f}; b_n <= 5n-4 holds: {corrected_ok}"
    )
    if wrong_verdicts:
        detail += f"; wrong verdict at n = {wrong_verdicts}"
    if missing:
        detail += f"; no exact witness at n = {missing}"
    announce("7c decomposition b_n <= 4.5n as stated", ok, detail)
    assert ok, detail


# -- 8. tail sums ----------------------------------------------------------------------


def test_criterion_8_tail_sums():
    strict = True
    for n in range(2, 10_001):
        ts = tail_sums(n)
        strict &= 1.0 / (2 * n * n) < ts.lam < 1.0 / (n * n)
        strict &= ts.theta < 4.0 / (9 * n**3)
    ts2 = tail_sums(2)
    lam_ok = abs(ts2.lam - (math.pi**2 / 6.0 - 1.5)) <= 1e-14 * ts2.lam
    th_ok = abs(ts2.theta - (math.pi**2 / 3.0 - 3.25)) <= 1e-14 * ts2.theta
    ok = strict and lam_ok and th_ok
    announce("8 tail sums", ok,
             "strict bounds for n=2..10^4; lambda(2), theta(2) at 1e-14 relative")
    assert ok


# -- 9. rate separation ------------------------------------------------------------------


NS_STATED = (4, 8, 16, 32, 64)


def rate_fit(f, ns, operator):
    """Slope of log ||Op_n f - f|| against log n, and the (n, error) rows."""
    op = sweep_U if operator == "U" else (lambda f, n: utilde_from_u(sweep_U(f, n)))
    rows = [(n, distance(op(f, n), f)) for n in ns]
    return loglog_slope(f.name, rows), rows


@pytest.fixture(scope="module")
def criterion_9_slopes():
    start = time.perf_counter()
    slopes = {}
    for name in ("t2", "exp", "sinpi"):
        f = get_function(name)
        slopes[name] = {
            "Utilde": rate_fit(f, NS_STATED, "Utilde")[0],
            "U": rate_fit(f, NS_STATED, "U")[0],
        }
    elapsed = time.perf_counter() - start
    return slopes, elapsed


def test_criterion_9a_rate_separation_attainable(criterion_9_slopes):
    slopes, elapsed = criterion_9_slopes
    ok = (
        -2.1 <= slopes["t2"]["Utilde"] <= -1.9
        and -1.1 <= slopes["t2"]["U"] <= -0.9
        and -1.1 <= slopes["exp"]["U"] <= -0.9
        and elapsed < 60.0
    )
    announce("9a rate windows (t2 both, exp U-side)", ok,
             f"t2: {slopes['t2']['Utilde']:.3f}/{slopes['t2']['U']:.3f}, "
             f"exp U: {slopes['exp']['U']:.3f}; {elapsed:.1f}s < 60s")
    assert ok
    # the criterion's titular separation holds for every function: the
    # modified operator is decisively n^-2 against n^-1
    for name in ("t2", "exp", "sinpi"):
        assert slopes[name]["Utilde"] < slopes[name]["U"] - 0.75


UTILDE_WINDOW = (-2.1, -1.9)
U_WINDOW = (-1.1, -0.9)


def _voronovskaya_slope_interval(d2: float, d3: float, ns) -> tuple[float, float] | None:
    """Slope interval for log ||Utilde_n f - f|| against log n that the
    Voronovskaya estimate certifies over ``ns``, or None where it certifies none.

    The estimate ||Utilde_n f - f + lambda(n) Dtilde^2 f|| <= theta(n) ||Dtilde^3 f||
    and the triangle inequality give err(n) = lambda(n) ||Dtilde^2 f|| (1 + e_n)
    with |e_n| <= rho(n) = theta(n) d3 / (lambda(n) d2).  The least-squares slope
    is linear in the log errors with weights w_i = (x_i - xbar) / sum (x_j - xbar)^2,
    x = log n, which sum to zero, so the constant log d2 drops out and the slope
    is s_lambda + sum w_i delta_i with delta_i in [log(1 - rho_i), log(1 + rho_i)].
    If some rho_i >= 1 the error may vanish there and no interval exists.

    ``d2`` and ``d3`` are the sup norms of Dtilde^2 f and Dtilde^3 f; the callers
    pass Sweep.dtilde_norm values, which are grid estimates (refined maxima over
    a Chebyshev grid), so the interval is certified up to those estimates.
    """
    x = np.log(np.asarray(ns, dtype=float))
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    ts = [tail_sums(int(n)) for n in ns]
    lam = np.array([t.lam for t in ts])
    rho = np.array([t.theta for t in ts]) * d3 / (lam * d2)
    if np.any(rho >= 1.0):
        return None
    s_lam = float(np.sum(w * np.log(lam)))
    low, high = np.log1p(-rho), np.log1p(rho)
    return (
        s_lam + float(np.sum(np.where(w > 0, w * low, w * high))),
        s_lam + float(np.sum(np.where(w > 0, w * high, w * low))),
    )


def _certified_ns(d2: float, d3: float):
    """(n0, 2n0, 4n0, 8n0) for the smallest power of two n0 <= 256 whose
    certified Utilde slope interval lies inside UTILDE_WINDOW, with that interval."""
    for n0 in (2, 4, 8, 16, 32, 64, 128, 256):
        ns = (n0, 2 * n0, 4 * n0, 8 * n0)
        interval = _voronovskaya_slope_interval(d2, d3, ns)
        if interval is not None and UTILDE_WINDOW[0] <= interval[0] and interval[1] <= UTILDE_WINDOW[1]:
            return ns, interval
    raise AssertionError(f"no n0 <= 256 certifies the window {UTILDE_WINDOW}")


def test_criterion_9b_rate_windows_as_stated(criterion_9_slopes):
    """The stated slope windows, checked where the paper's estimates certify them.

    The rates n^-2 (Utilde) and n^-1 (U) are asymptotic.  At ns = {4,...,64}
    the second-order Voronovskaya term theta(n) ||Dtilde^3 f|| is not small
    against the main term lambda(n) ||Dtilde^2 f||: their ratio rho(4) is 0.30
    for t2, 0.65 for exp and 1.52 for sinpi, so there the estimate certifies
    only [-2.24, -1.64] for exp and nothing for sinpi.  Even the closed-form
    t2 error 1/(2n(n+1)) fits a slope of -1.93 there.

    So the windows stay as stated and the ns are chosen by the same estimate:
    for each function the first geometric run (n0, ..., 8 n0) with n0 a power
    of two whose certified Utilde interval lies inside [-2.1, -1.9].  There
    the fitted Utilde slope must lie in its window and in the certified
    interval, and the U slope in [-1.1, -0.9].  At the stated ns, every
    Utilde slope must lie in the certified interval wherever one exists.
    """
    slopes, _ = criterion_9_slopes
    failures = []
    details = []
    stated_certified = set()
    for name in ("t2", "exp", "sinpi"):
        f = get_function(name)
        sweep = Sweep(DEFAULT_GRID)
        d2, d3 = sweep.dtilde_norm(f, 2), sweep.dtilde_norm(f, 3)

        stated = _voronovskaya_slope_interval(d2, d3, NS_STATED)
        if stated is not None:
            stated_certified.add(name)
            if not stated[0] <= slopes[name]["Utilde"] <= stated[1]:
                failures.append(f"{name} Utilde {slopes[name]['Utilde']:.4f} at stated ns "
                                f"outside certified [{stated[0]:.4f}, {stated[1]:.4f}]")

        ns, (lo, hi) = _certified_ns(d2, d3)
        s_ut = rate_fit(f, ns, "Utilde")[0]
        s_u = rate_fit(f, ns, "U")[0]
        details.append(f"{name} n0={ns[0]}: {s_ut:.4f}/{s_u:.4f}")
        if not (UTILDE_WINDOW[0] <= s_ut <= UTILDE_WINDOW[1] and lo <= s_ut <= hi):
            failures.append(f"{name} Utilde {s_ut:.4f} at ns={ns} outside window or "
                            f"certified [{lo:.4f}, {hi:.4f}]")
        if not U_WINDOW[0] <= s_u <= U_WINDOW[1]:
            failures.append(f"{name} U {s_u:.4f} at ns={ns} outside window")
    if stated_certified != {"t2", "exp"}:
        failures.append(f"certified at stated ns for {sorted(stated_certified)}, "
                        "expected t2 and exp")
    ok = not failures
    detail = "; ".join(details) + (" -- " + ", ".join(failures) if failures else "")
    announce("9b rate windows at Voronovskaya-certified ns", ok, detail)
    assert ok, detail


# -- 10. K-functional sandwich, direct and converse ----------------------------------------


def test_criterion_10_sandwich_direct_converse():
    all_ok = True
    worst = ""
    for name in sorted(CATALOG):
        f = get_function(name)
        sweep = Sweep(DEFAULT_GRID)
        for n in (2, 4, 8):
            sw = kfunctional_sandwich(f, n, sweep)
            err_n = sup_norm(lambda x, p=utilde_from_u(sweep_U(f, n)): p.eval(x) - f.eval(x)).value
            sandwich_ok = within(sw.lower, sw.upper)
            direct_ok = within(err_n, (1.0 + SQRT3) * sw.upper)
            main, iterate = check_converse(f, n, 16 * n, sweep)
            if not (sandwich_ok and direct_ok and main.passed and iterate.passed):
                all_ok = False
                worst = f"{name} n={n}"
    # the scale threshold is enforced: ell = 15 n < ceil(L n) must be rejected
    with pytest.raises(PreconditionError):
        check_converse(get_function("t2"), 4, 15 * 4, Sweep(DEFAULT_GRID))
    assert math.ceil(CONVERSE_SCALE_FACTOR * 4) <= 64  # ell = 16n passes the gate
    assert CONVERSE_CONSTANT == pytest.approx(4.0 + SQRT3 + BERNSTEIN_CONSTANT**2)
    announce("10 sandwich + direct + converse", all_ok,
             "catalog x n in {2,4,8}, ell = 16n, C = 4+sqrt(3)+(6.5+sqrt(6))^2"
             + ("" if all_ok else f"; first failure {worst}"))
    assert all_ok
