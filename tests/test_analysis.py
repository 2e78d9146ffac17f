"""Tests for norms, inequality checks, the K-functional sandwich and rates."""

import math

import numpy as np
import pytest

import gsops.analysis
from gsops.analysis import (
    BERNSTEIN_CONSTANT,
    CONVERSE_CONSTANT,
    CONVERSE_SCALE_FACTOR,
    DEFAULT_GRID,
    InequalityReport,
    SQRT3,
    StrictReport,
    Sweep,
    bernstein_probe_max_ratio,
    check_bernstein_inequality,
    check_bernstein_probes,
    check_bn_decomposition,
    check_contraction_U,
    check_converse,
    check_direct,
    check_float_identities,
    check_interpolation,
    check_jackson,
    check_voronovskaya,
    distance,
    kfunctional_sandwich,
    lebesgue_bound,
    loglog_slope,
    rate_errors,
    sup_norm,
)
from gsops.basis import tail_sums
from gsops.catalog import catalog_names, get_function, polynomial_function
from gsops.errors import PreconditionError
from gsops.exactpoly import ExactBernsteinForm, RationalPoly, dtilde_exact
from gsops.operators import (
    BernsteinForm,
    apply_Utilde_to_form,
    dtilde_form,
    u_coefficient_matrix,
    utilde_from_u,
)

from helpers import sweep_U

T2 = RationalPoly([0, 0, 1])
T3 = RationalPoly([0, 0, 0, 1])


def fresh_sweep(*fs) -> Sweep:
    """A Sweep of fs alone, on the CLI's default grid and tolerance."""
    return Sweep(fs, DEFAULT_GRID, 1e-10)


def bernstein_form_from_poly(q: RationalPoly, n: int) -> BernsteinForm:
    """The exact degree-n Bernstein representation of q, rounded to floats."""
    return BernsteinForm(n, np.array([float(c) for c in ExactBernsteinForm.from_poly(q, n).coeffs]))


# -- constants -----------------------------------------------------------------


def test_constants():
    assert BERNSTEIN_CONSTANT == pytest.approx(8.949489742783178, abs=1e-15)
    assert CONVERSE_SCALE_FACTOR == pytest.approx(15.910203987170094, abs=1e-12)
    assert CONVERSE_CONSTANT == pytest.approx(85.82541746375019, abs=1e-11)


# -- sup_norm ------------------------------------------------------------------


def test_sup_norm_parabola():
    est = sup_norm(lambda x: 2.0 * np.asarray(x) * (1.0 - np.asarray(x)))
    assert est.value == pytest.approx(0.5, abs=1e-14)
    assert est.argmax == pytest.approx(0.5, abs=1e-6)


def test_sup_norm_operator_error_closed_form():
    # Utilde_3 t^2 - t^2 = phi/6, sup = 1/24
    f = get_function("t2")
    p = utilde_from_u(sweep_U(f, 3))
    est = sup_norm(lambda x: p.eval(x) - f.eval(x))
    assert est.value == pytest.approx(1.0 / 24.0, abs=1e-13)


def test_sup_norm_zero_and_form_input():
    assert sup_norm(lambda x: np.zeros_like(np.asarray(x))).value == 0.0
    form = BernsteinForm(3, [0.0, 1.0, -1.0, 0.0])
    direct = sup_norm(form)
    assert direct.value == pytest.approx(sup_norm(form.eval).value, abs=0.0)


def test_sup_norm_validation():
    with pytest.raises(ValueError):
        sup_norm(lambda x: np.asarray(x), grid_size=32)
    with pytest.raises(ValueError):
        sup_norm(lambda x: np.full_like(np.asarray(x), np.nan))


def test_sup_norm_refinement_only_increases():
    # skewed quartic with an off-grid peak
    fn = lambda x: np.asarray(x) ** 3 * (1.0 - np.asarray(x))
    coarse = sup_norm(fn, grid_size=64)
    assert coarse.value >= 27.0 / 256.0 - 1e-9
    assert coarse.value <= 27.0 / 256.0 + 1e-15


# -- lebesgue bound --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 10, 32, 128])
def test_lebesgue_bound_within_proof_bound(n):
    est = lebesgue_bound(n)
    assert est.value <= math.sqrt(3.0 - 2.0 / n) + 1e-9
    assert est.value >= 1.0 - 1e-12


def test_lebesgue_bound_n10_window():
    val = lebesgue_bound(10).value
    assert 1.0 <= val <= math.sqrt(2.8)


def test_lebesgue_function_endpoint_collapse():
    # at x = 0 only the k = 0 functional survives and the value is exactly 1
    from gsops.analysis import _ptilde_abs_sums

    for n in (2, 5, 12):
        assert _ptilde_abs_sums(n, np.array([0.0, 1.0])) == pytest.approx([1.0, 1.0], abs=0.0)


def test_lebesgue_bound_domain():
    with pytest.raises(ValueError):
        lebesgue_bound(1)


# -- contraction (U_n) ------------------------------------------------------------


@pytest.mark.parametrize("name", ["t2", "t3", "t5mt2", "exp", "sinpi"])
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_contraction_U(name, n):
    f = get_function(name)
    rep = check_contraction_U(f, n, fresh_sweep(f))
    assert rep.passed


# -- Jackson ----------------------------------------------------------------------


def test_jackson_t2_n4_closed_values():
    f = get_function("t2")
    rep = check_jackson(f, 4, fresh_sweep(f))
    assert rep.lhs == pytest.approx(0.025, abs=1e-12)  # 1/(2*4*5)
    assert rep.rhs == pytest.approx(0.0625, abs=1e-12)  # (1/16) * ||-4 phi||
    assert rep.passed


def test_jackson_linear_trivial():
    f = get_function("t")
    rep = check_jackson(f, 8, fresh_sweep(f))
    assert rep.lhs <= 1e-13 and rep.passed


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_jackson_t3_sweep(n):
    f = get_function("t3")
    assert check_jackson(f, n, fresh_sweep(f)).passed


def test_jackson_rejects_rough_function():
    with pytest.raises(PreconditionError):
        check_jackson(get_function("abs52"), 4, fresh_sweep())


# -- Voronovskaya ------------------------------------------------------------------


def test_voronovskaya_t2_n2_oracle_values():
    ts = tail_sums(2)
    f = get_function("t2")
    rep = check_voronovskaya(f, 2, fresh_sweep(f))
    assert rep.lhs == pytest.approx(abs(1.0 / 3.0 - 4.0 * ts.lam) / 4.0, abs=1e-9)
    assert rep.rhs == pytest.approx(2.0 * ts.theta, abs=1e-9)
    assert rep.passed


def test_voronovskaya_linear_trivial():
    f = get_function("t")
    rep = check_voronovskaya(f, 4, fresh_sweep(f))
    assert rep.lhs <= 1e-13 and rep.passed


@pytest.mark.parametrize("name", ["t2", "t3", "exp"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_voronovskaya_sweep(name, n):
    f = get_function(name)
    assert check_voronovskaya(f, n, fresh_sweep(f)).passed


def test_voronovskaya_rejects_rough_function():
    with pytest.raises(PreconditionError):
        check_voronovskaya(get_function("abs52"), 4, fresh_sweep())


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_voronovskaya_sharpened_residual_t2(n):
    # signed residual Utilde_n t^2 - t^2 + lambda(n) Dtilde^2 t^2 equals
    # (2/(n(n+1)) - 4 lambda(n)) phi
    f = get_function("t2")
    ts = tail_sums(n)
    p = utilde_from_u(sweep_U(f, n))
    coeff = 2.0 / (n * (n + 1)) - 4.0 * ts.lam
    xs = np.linspace(0.0, 1.0, 4001)
    residual = p.eval(xs) - xs**2 + ts.lam * (-4.0 * xs * (1 - xs))
    assert float(np.max(np.abs(residual - coeff * xs * (1 - xs)))) <= 1e-9


# -- Bernstein-type inequality -------------------------------------------------------


def test_bernstein_constant_function():
    f = get_function("one")
    rep = check_bernstein_inequality(f, 4, fresh_sweep(f))
    assert rep.lhs <= 1e-14 and rep.passed


def test_bernstein_t2_n4_margin():
    f = get_function("t2")
    rep = check_bernstein_inequality(f, 4, fresh_sweep(f))
    # Dtilde(x^2 + phi/10) = 1.8 phi, sup 0.45
    assert rep.lhs == pytest.approx(0.45, abs=1e-12)
    assert rep.rhs - rep.lhs > 30.0  # ||f|| = 1


@pytest.mark.parametrize("name", sorted(catalog_names()))
@pytest.mark.parametrize("n", [2, 7, 33])
def test_bernstein_catalog_sweep(name, n):
    f = get_function(name)
    assert check_bernstein_inequality(f, n, fresh_sweep(f)).passed


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_bernstein_probes_stay_below_constant(n):
    rng = np.random.default_rng([42, n])
    ratio = bernstein_probe_max_ratio(n, 300, rng)
    assert ratio <= BERNSTEIN_CONSTANT


# -- decomposition checks --------------------------------------------------------------


def test_bn_decomposition_n6():
    reports = {r.name: r for r in check_bn_decomposition(6)}
    assert reports["a_n_identity"].lhs <= 1e-8  # a_n == 2(n-1) = 10
    assert reports["b_n_bound"].passed and reports["b_n_bound"].rhs == 27.0
    assert reports["c_n_bound"].passed
    assert reports["b_n_plateau"].passed


def test_bn_plateau_value_n6():
    # b_6 equals 4(n-1) = 20 on [(n-2)/(2n), (n+2)/(2n)] = [1/3, 2/3]
    from gsops.basis import bernstein_matrix

    xs = np.linspace(1.0 / 3.0 + 1e-9, 2.0 / 3.0 - 1e-9, 101)
    n = 6
    phi = xs * (1 - xs)
    B1 = bernstein_matrix(n - 1, xs)
    k = np.arange(n + 1, dtype=float)
    Pp = np.zeros((xs.size, n + 1))
    Pp[:, 0] = -n * B1[:, 0]
    Pp[:, n] = n * B1[:, n - 1]
    Pp[:, 1:n] = n * (B1[:, : n - 1] - B1[:, 1:n])
    Tp = -np.outer(1.0 / xs**2, k * (k - 1)) + np.outer(1.0 / (1 - xs) ** 2, (n - k) * (n - k - 1))
    b = (2 * phi / n) * np.sum(np.abs(Tp * Pp), axis=1)
    assert np.max(np.abs(b - 20.0)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 9, 17, 30, 36])
def test_bn_decomposition_sweep(n):
    for rep in check_bn_decomposition(n):
        assert rep.passed, rep


@pytest.mark.parametrize("n", [40, 64])
def test_bn_stated_bound_fails_beyond_36_but_corrected_bound_holds(n):
    # Inside a sign-change window the absolute sum is 4(n-1) + 2 s_k (the
    # flipped term counts twice against the signed sum), so the stated 4.5n
    # comparison genuinely fails from n = 37 on; the corrected chain from the
    # same window maxima gives b_n <= 4(n-1) + 2(n/2) = 5n - 4, and the joint
    # sum behind the operator bound stays far below (6.5 + sqrt 6) n.
    reports = {r.name: r for r in check_bn_decomposition(n)}
    assert reports["a_n_identity"].passed
    assert reports["c_n_bound"].passed
    assert reports["b_n_plateau"].passed
    assert not reports["b_n_bound"].passed
    assert reports["b_n_bound"].lhs <= 5 * n - 4


def test_c_bound_value_n9():
    reports = {r.name: r for r in check_bn_decomposition(9)}
    assert reports["c_n_bound"].rhs == pytest.approx(math.sqrt(6.0) * 9.0, abs=1e-12)
    assert reports["c_n_bound"].lhs <= math.sqrt(6.0) * 9.0


# -- K-functional sandwich -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_sandwich_t2_upper_at_most_smooth_candidate(n):
    f = get_function("t2")
    sw = kfunctional_sandwich(f, n, fresh_sweep(f))
    # candidate g = f gives ||Dtilde^2 t^2|| / n^2 = 1/n^2
    assert sw.upper <= 1.0 / n**2 * (1 + 1e-9) + 1e-12
    assert sw.t == pytest.approx(1.0 / n**2, abs=0.0)


def test_sandwich_t2_n2_exact_tie_at_one_quarter():
    # Utilde_m reproduces t^2 up to rounding, so at t = 1/4 the candidates
    # Utilde_2^3 f, Utilde_4^3 f and f itself all cost ||Dtilde^2 t^2|| / 4 = 1/4
    # in exact arithmetic; the last bit picks the winner shown in the note
    f = get_function("t2")
    t = 0.25
    costs = {}
    sweep = fresh_sweep(f)
    for m in (2, 4):
        costs[f"utilde3_m{m}"] = sweep.iterate_distance(f, m) + t * sweep.iterate_d2_norm(f, m)
    costs["f_itself"] = t * sweep.dtilde_norm(f, 2)
    for cost in costs.values():
        assert abs(cost - 0.25) <= 4 * np.spacing(0.25)
    sw = kfunctional_sandwich(f, 2, fresh_sweep(f))
    assert sw.upper == min(costs.values()) and costs[sw.candidate_id] == sw.upper
    assert sw.candidate_id == "utilde3_m4"


@pytest.mark.parametrize("name", ["t2", "exp", "abs52"])
def test_sandwich_memo_shared_across_n_changes_nothing(name):
    # a run hands one Sweep to every check of every f and n; each check must
    # report what it reports with a fresh Sweep of f alone, bit for bit,
    # whichever function of the run misses first and so fills the Sweep for
    # its siblings
    f = get_function(name)
    siblings = [get_function(other) for other in ("t2", "exp", "abs52") if other != name]
    shared = Sweep([f, *siblings], DEFAULT_GRID, 1e-10)

    def outcome(check, g, *args, sweep):
        try:
            return repr(check(g, *args, sweep))
        except PreconditionError as exc:
            return f"skip: {exc}"

    checks = [
        (check_converse, 32), (check_direct, None), (kfunctional_sandwich, None), (rate_errors, None),
        (check_interpolation, None), (check_contraction_U, None), (check_jackson, None),
        (check_voronovskaya, None), (check_bernstein_inequality, None),
    ]
    for g, ns in ((f, (2, 4)), *((sibling, (2,)) for sibling in siblings)):
        for n in ns:
            for check, ell_mult in checks:
                args = (n,) if ell_mult is None else (n, ell_mult * n)
                assert outcome(check, g, *args, sweep=shared) == outcome(check, g, *args, sweep=fresh_sweep(g))
    for m in (2, 4, 8):
        # the stored candidate norms are those of Utilde_m^3 f built afresh
        g = apply_Utilde_to_form(apply_Utilde_to_form(utilde_from_u(sweep_U(f, m)), m), m)
        assert shared.Utilde3(f, m).coeffs.tobytes() == g.coeffs.tobytes()
        assert shared.iterate_distance(f, m) == distance(g, f)
        assert shared.iterate_d2_norm(f, m) == sup_norm(dtilde_form(dtilde_form(g))).value


def test_sandwich_pruning_changes_no_bit(monkeypatch):
    # a screened lower bound of 0 prunes nothing, so the loop then takes both
    # norms of every candidate; the pruned sandwich must report the same err,
    # upper and candidate, bit for bit, including the t2, n = 2 tie, while
    # taking fewer sup norms.  U_m f does not depend on the grid or the
    # pruning, so the four sweeps share it
    fs = [get_function(name) for name in catalog_names()]
    ns = (2, 3, 4, 8, 16, 32, 64)
    calls, operator_outputs = [], {}
    plain_norm, plain_U = gsops.analysis.sup_norm, Sweep.U

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plain_norm(*args, **kwargs)

    def shared_U(self, f, m):
        if (f, m) not in operator_outputs:
            operator_outputs[f, m] = plain_U(self, f, m)
        return operator_outputs[f, m]

    def sandwiches(grid_size):
        sweep = Sweep(fs, grid_size, 1e-10)
        calls.clear()
        return {(f.name, n): kfunctional_sandwich(f, n, sweep) for f in fs for n in ns}, len(calls)

    monkeypatch.setattr(gsops.analysis, "sup_norm", counting)
    monkeypatch.setattr(Sweep, "U", shared_U)
    for grid_size in (64, DEFAULT_GRID):
        pruned, pruned_calls = sandwiches(grid_size)
        with monkeypatch.context() as no_pruning:
            no_pruning.setattr(gsops.analysis, "_screened_lower_bound", lambda fn, grid_size: 0.0)
            unpruned, unpruned_calls = sandwiches(grid_size)
        assert repr(pruned) == repr(unpruned)
        assert pruned["t2", 2].candidate_id == "utilde3_m4"
        # Utilde_2^3 one and one itself both cost exactly 0: the tie goes to the first
        assert (pruned["one", 2].upper, pruned["one", 2].candidate_id) == (0.0, "utilde3_m2")
        assert pruned_calls < unpruned_calls


def test_iterate_lower_bound_reads_a_distance_taken_by_another_route(monkeypatch):
    # Utilde_2^3 one and Utilde_2 one hold the same bits, so once
    # ||Utilde_2 one - one|| is taken it is the candidate's distance and its
    # lower bound; only ||Dtilde^2 g|| is left to screen
    f = get_function("one")
    sweep = fresh_sweep(f)
    assert sweep.Utilde3(f, 2).coeffs.tobytes() == sweep.Utilde(f, 2).coeffs.tobytes()
    err = sweep.error(f, 2)
    screened = []
    monkeypatch.setattr(gsops.analysis, "_screened_lower_bound", lambda fn, grid_size: screened.append(fn) or -1.0)
    monkeypatch.setattr(gsops.analysis, "sup_norm", None)  # no norm is taken again
    assert sweep.iterate_lower_bounds(f, 2) == (err, -1.0)
    assert [fn.p for fn in screened] == [sweep.D2Utilde3(f, 2)]
    assert sweep.iterate_distance(f, 2) == err


def test_sandwich_memo_keeps_specs_with_one_name_apart():
    # a Sweep is keyed by the function spec, so two specs that share a name
    # never read each other's operator outputs or norms
    square = polynomial_function("q", [0, 0, 1])
    cube = polynomial_function("q", [0, 0, 0, 1])
    shared = fresh_sweep(square, cube)
    assert check_direct(square, 4, shared) == check_direct(square, 4, fresh_sweep(square))
    assert check_direct(cube, 4, shared) == check_direct(cube, 4, fresh_sweep(cube))
    assert check_converse(cube, 4, 128, shared) == check_converse(cube, 4, 128, fresh_sweep(cube))


def test_sandwich_t2_n4_lower_value():
    f = get_function("t2")
    sw = kfunctional_sandwich(f, 4, fresh_sweep(f))
    assert sw.lower == pytest.approx((1.0 / 40.0) / (1.0 + SQRT3), abs=1e-12)


@pytest.mark.parametrize("name", sorted(catalog_names()))
@pytest.mark.parametrize("n", [2, 8, 64])
def test_sandwich_consistent(name, n):
    f = get_function(name)
    sw = kfunctional_sandwich(f, n, fresh_sweep(f))
    assert sw.lower <= sw.upper * (1 + 1e-9) + 1e-12
    assert sw.candidate_id


def test_direct_inequality():
    for name in ("t2", "exp", "abs52"):
        f = get_function(name)
        sandwich, direct = check_direct(f, 4, fresh_sweep(f))
        assert (sandwich.name, direct.name) == ("kf_sandwich", "direct")
        assert sandwich.passed and direct.passed
        # one sandwich: the direct row's lhs is its error, the sandwich's lhs its lower bound
        sw = kfunctional_sandwich(f, 4, fresh_sweep(f))
        assert direct.lhs == sw.err == distance(utilde_from_u(sweep_U(f, 4)), f)
        assert sandwich.lhs == sw.lower == sw.err / (1.0 + SQRT3)
        assert (sandwich.rhs, direct.rhs) == (sw.upper, (1.0 + SQRT3) * sw.upper)


# -- converse ---------------------------------------------------------------------


def test_converse_uses_the_sandwich_error():
    f = get_function("exp")
    main, iterate = check_converse(f, 2, 32, fresh_sweep(f))
    sw = kfunctional_sandwich(f, 2, fresh_sweep(f))
    err_ell = distance(utilde_from_u(sweep_U(f, 32)), f)
    assert main.lhs == sw.upper
    assert main.rhs == CONVERSE_CONSTANT * (32 / 2) ** 2 * (sw.err + err_ell)
    assert iterate.rhs == (4.0 + SQRT3) * sw.err


def test_converse_t2_n2_huge_margin():
    f = get_function("t2")
    main, iterate = check_converse(f, 2, 32, fresh_sweep(f))
    assert main.passed and iterate.passed
    assert main.lhs <= 0.25
    assert main.rhs > main.lhs * 10  # enormous margin
    assert main.ell == 32


def test_converse_linear_trivial():
    f = get_function("t")
    main, iterate = check_converse(f, 2, 32, fresh_sweep(f))
    assert main.passed and iterate.passed
    assert main.lhs <= 1e-12


def test_converse_rough_function():
    f = get_function("abs52")
    main, iterate = check_converse(f, 4, 64, fresh_sweep(f))
    assert main.passed and iterate.passed


def test_converse_threshold_enforced():
    with pytest.raises(PreconditionError, match="ceil"):
        check_converse(get_function("t2"), 4, 32, fresh_sweep())  # needs ell >= 64


# -- rates -------------------------------------------------------------------------


NS = (4, 8, 16, 32, 64)


def rate_fit(f, ns, operator="Utilde"):
    """Slope of log ||Op_n f - f|| against log n, and the (n, error) rows."""
    op = sweep_U if operator == "U" else (lambda f, n: utilde_from_u(sweep_U(f, n)))
    rows = [(n, distance(op(f, n), f)) for n in ns]
    return loglog_slope(f.name, rows), rows


def test_rate_t2_slopes():
    slope_ut, rows = rate_fit(get_function("t2"), NS, "Utilde")
    assert -2.1 <= slope_ut <= -1.9
    # per-n errors follow the closed form 1/(2n(n+1))
    for n, err in rows:
        assert err == pytest.approx(1.0 / (2 * n * (n + 1)), abs=1e-10)
    slope_u, _ = rate_fit(get_function("t2"), NS, "U")
    assert -1.1 <= slope_u <= -0.9


def test_rate_separation_transcendental():
    # at ns = 4..64 the first fit point is still pre-asymptotic (the
    # second-order Voronovskaya term is comparable to the main term at n=4),
    # so the modified-operator slopes sit above -1.9 for exp/sinpi; the n^-2
    # vs n^-1 separation between the two operators is still unmistakable
    for name, lo in (("exp", -1.95), ("sinpi", -1.78)):
        slope_ut, _ = rate_fit(get_function(name), NS, "Utilde")
        slope_u, _ = rate_fit(get_function(name), NS, "U")
        assert lo <= slope_ut <= -1.65
        assert -1.05 <= slope_u <= -0.85
        assert slope_ut < slope_u - 0.75


def test_rate_exp_asymptotic_window():
    slope, _ = rate_fit(get_function("exp"), (16, 32, 64, 128, 256), "Utilde")
    assert -2.1 <= slope <= -1.9


def test_rate_linear_rejected():
    with pytest.raises(ValueError, match="rounding floor"):
        rate_fit(get_function("t"), NS)


def test_rate_validation():
    with pytest.raises(ValueError):
        rate_fit(get_function("t2"), (4, 8, 16))  # too short
    with pytest.raises(ValueError):
        rate_fit(get_function("t2"), (4, 6, 9, 14))  # not geometric


# -- series representation (float pipeline) -------------------------------------------


def test_series_representation_float_pipeline():
    # partial sums of -sum Dtilde U_{k+1} Dtilde f / (k^2(k+1)) converge to
    # Utilde_n f - f with remainder <= ||Dtilde^2 f|| * lambda(N+1)
    f = get_function("t3")
    n, N = 3, 60
    df = dtilde_exact(T3)
    df_form = bernstein_form_from_poly(df, max(df.degree, 1))
    xs = np.linspace(0.0, 1.0, 2001)
    acc = np.zeros_like(xs)
    for k in range(n, N + 1):
        term = dtilde_form(BernsteinForm(k + 1, u_coefficient_matrix(k + 1, df_form.n) @ df_form.coeffs))
        acc += term.eval(xs) / (k * k * (k + 1))
    p = utilde_from_u(sweep_U(f, n))
    resid = p.eval(xs) - f.eval(xs) + acc
    d2_sup = fresh_sweep(f).dtilde_norm(f, 2)
    assert float(np.max(np.abs(resid))) <= d2_sup * tail_sums(N + 1).lam


# -- report plumbing -----------------------------------------------------------------


def test_report_pass_rule():
    assert InequalityReport("x", "f", 2, 1.0, 2.0).passed
    assert InequalityReport("x", "f", 2, 2e-12, 0.0).passed is False
    assert InequalityReport("x", "f", 2, 1.0 + 1e-8, 1.0).passed is False
    assert InequalityReport("x", "f", 2, 1e-13, 0.0).passed  # absolute slack
    assert InequalityReport("x", "f", 2, 2.0, 2.0 * (1 + 1e-10)).passed  # relative slack


def test_strict_report_has_no_slack():
    assert StrictReport("x", "f", 2, 1.0, 1.0).passed
    assert StrictReport("x", "f", 2, 1e-13, 0.0).passed is False
    assert StrictReport("x", "f", 2, 2.0, 2.0 * (1 + 1e-10)).passed


# -- the printed identity and probe rows ------------------------------------------------


def test_float_identities_rows():
    reports = check_float_identities(16, np.random.default_rng(3), grid_size=257)
    assert [r.name for r in reports] == [
        "partition_unity",
        "moment_closed_forms",
        "eigen_relation",
        "phi_identity",
        "tail_lambda_lower",
        "tail_lambda_upper",
        "tail_theta_upper",
        "lebesgue_bound",
    ]
    assert all(r.passed and r.n == 16 for r in reports)
    # the partition of unity is held to 8 n eps with no rounding allowance
    assert type(reports[0]) is StrictReport and reports[0].rhs == 8 * 16 * np.finfo(float).eps
    assert reports[-1].note.startswith("argmax=")
    # the phi_identity draws come from the given generator alone
    again = check_float_identities(16, np.random.default_rng(3), grid_size=257)
    assert [r.lhs for r in again] == [r.lhs for r in reports]


@pytest.mark.parametrize(("name", "rows"), [("t", 2), ("one", 2), ("t2", 1), ("abs52", 1)])
def test_check_interpolation_rows(name, rows):
    f = get_function(name)
    reports = check_interpolation(f, 5, fresh_sweep(f))
    assert [r.name for r in reports] == ["endpoint_interp", "linear_reproduction"][:rows]
    assert all(r.passed for r in reports)


def test_check_bernstein_probes_scales_the_ratio():
    ratio = bernstein_probe_max_ratio(8, 20, np.random.default_rng(5))
    rep = check_bernstein_probes(8, 20, np.random.default_rng(5))
    assert (rep.name, rep.f, rep.note) == ("bernstein_probes", "random", "trials=20")
    assert rep.lhs == ratio * 8 and rep.rhs == BERNSTEIN_CONSTANT * 8 and rep.passed
