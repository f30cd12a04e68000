import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from pcqa import annotate as ann


# ---------------------------------------------------------------------------
# PLCC / SROCC
# ---------------------------------------------------------------------------


def test_plcc_identity_and_sign_flip():
    p = [1.0, 2.0, 5.0, 3.0]
    assert ann.plcc(p, p) == pytest.approx(1.0)
    assert ann.plcc(p, [-x for x in p]) == pytest.approx(-1.0)


def test_plcc_direct_case():
    assert ann.plcc([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_plcc_constant_raises():
    with pytest.raises(ann.DegenerateCorrelationError, match="undefined correlation"):
        ann.plcc([1, 1, 1], [1, 2, 3])


def test_srocc_strictly_increasing():
    assert ann.srocc([1, 2, 3, 9], [0.1, 5, 6, 7]) == pytest.approx(1.0)


def test_srocc_closed_form_case():
    # 1 - 6*2/(4*15) = 0.8
    assert ann.srocc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_srocc_all_tied_raises():
    with pytest.raises(ann.DegenerateCorrelationError):
        ann.srocc([2, 2, 2], [1, 2, 3])


def test_srocc_monotone_invariance():
    p = [0.3, 1.2, 5.0, 2.2, 0.9]
    q = [10.0, 3.0, 7.7, 2.0, 5.0]
    base = ann.srocc(p, q)
    assert ann.srocc(p, list(np.exp(q))) == pytest.approx(base, abs=1e-12)
    assert ann.srocc(list(3 * np.asarray(p) + 1), q) == pytest.approx(base, abs=1e-12)


def test_fractional_ranks_average_ties():
    ranks = ann.fractional_ranks([10, 20, 20, 30])
    np.testing.assert_array_equal(ranks, [1.0, 2.5, 2.5, 4.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.integers(0, 10_000), st.booleans())
def test_correlations_match_scipy(n, seed, quantize):
    r = np.random.default_rng(seed)
    p = r.normal(size=n)
    q = r.normal(size=n)
    if quantize:  # force ties
        p = np.round(p)
        q = np.round(q)
    if len(np.unique(p)) < 2 or len(np.unique(q)) < 2:
        with pytest.raises(ann.DegenerateCorrelationError):
            ann.srocc(p, q)
        return
    assert ann.plcc(p, q) == pytest.approx(scipy.stats.pearsonr(p, q)[0], abs=1e-9)
    assert ann.srocc(p, q) == pytest.approx(scipy.stats.spearmanr(p, q)[0], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10_000))
def test_srocc_is_plcc_of_ranks(n, seed):
    r = np.random.default_rng(seed)
    p = np.round(r.normal(size=n), 1)
    q = r.normal(size=n)
    if len(np.unique(p)) < 2:
        return
    want = ann.plcc(ann.fractional_ranks(p), ann.fractional_ranks(q))
    assert ann.srocc(p, q) == want


def test_plcc_affine_invariance():
    p = [0.5, 2.0, 1.1, 4.0]
    q = [1.0, 0.2, 3.3, 2.8]
    base = ann.plcc(p, q)
    assert ann.plcc(list(2.5 * np.asarray(p) + 7), q) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("p, q, want", [
    ([1e160, 2e160, 3e160], [1, 2, 3], 1.0),  # the sum of squares overflows
    ([1e-200, 2e-200, 3e-200], [1, 2, 3], 1.0),  # ... or underflows to 0
    ([1e-160, 2e-160, 3e-160], [1e-160, 2e-160, 4e-160], math.sqrt(27 / 28)),  # product 0
    ([1, 2, 3, 1e200], [1, 2, 3, 4], math.sqrt(0.6)),
    ([1e308, 1e308, -1e308], [1, 2, 3], -math.sqrt(0.75)),  # the mean overflows
])
def test_plcc_of_sums_outside_the_normal_floats(p, q, want):
    assert ann.plcc(p, q) == pytest.approx(want, rel=1e-12)
    assert ann.plcc(q, p) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [[1e-200] * 3, [1e300] * 3, [-1e308] * 3, [0.1] * 3])
def test_plcc_constant_raises_at_any_magnitude(p):
    # [0.1] * 3 has the mean 0.10000000000000002, so its centred values are not 0
    with pytest.raises(ann.DegenerateCorrelationError, match="undefined correlation"):
        ann.plcc(p, [1, 2, 3])
    with pytest.raises(ann.DegenerateCorrelationError, match="undefined correlation"):
        ann.plcc([1, 2, 3], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plcc_rejects_non_finite_input(bad):
    for p, q in (([1, bad, 3], [1, 2, 3]), ([1, 2, 3], [1, 2, bad])):
        with pytest.raises(ValueError, match="inputs must be finite"):
            ann.plcc(p, q)


def _frozen_plcc(p, q):
    """`plcc` before it handled sums of squares outside the normal floats, on
    inputs whose two sums of squares and their product are normal; None on
    any other input."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    pc = p - p.mean()
    qc = q - q.mean()
    ssp = float((pc * pc).sum())
    ssq = float((qc * qc).sum())
    if not all(np.finfo(np.float64).tiny <= v < math.inf for v in (ssp, ssq, ssp * ssq)):
        return None
    r = float((pc * qc).sum()) / math.sqrt(ssp * ssq)
    return min(1.0, max(-1.0, r))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, 1.0, 40.0, 1e6]), st.integers(-150, 150), st.integers(-150, 150))
def test_plcc_keeps_its_bits_where_the_sums_stay_normal(n, seed, quantize, offset, ep, eq):
    # the metric selection's PLCC tie-break and selection.csv's digits read these bits
    r = np.random.default_rng(seed)
    p, q = r.normal(size=n) * 3, r.normal(size=n) * 3
    if quantize:  # ties, as in rank vectors
        p, q = np.round(p), np.round(q)
    p, q = (offset + p) * 10.0 ** ep, q * 10.0 ** eq
    assume(p.min() < p.max() and q.min() < q.max())  # a constant vector raises
    with np.errstate(all="ignore"):
        want = _frozen_plcc(p, q)
    assume(want is not None)
    assert _bits(ann.plcc(p, q)) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1),
       st.integers(-300, 299), st.integers(-300, 299),
       st.floats(1.0, 9.99), st.floats(1.0, 9.99), st.booleans(), st.booleans())
def test_plcc_is_scale_free_from_1e_300_to_1e300(n, seed, ep, eq, mp, mq, flip_p, flip_q):
    r = np.random.default_rng(seed)
    p = r.integers(-100, 101, n).astype(np.float64)
    q = r.integers(-100, 101, n).astype(np.float64)
    assume(p.min() < p.max() and q.min() < q.max())
    a = (-1.0 if flip_p else 1.0) * mp * 10.0 ** ep
    b = (-1.0 if flip_q else 1.0) * mq * 10.0 ** eq
    want = ann.plcc(p, q) * (-1.0 if flip_p != flip_q else 1.0)
    assert ann.plcc(a * p, b * q) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Subject screening
# ---------------------------------------------------------------------------


def _matrix(rows):
    return ann.RatingMatrix([ann.Rating(s, subj, v) for s, subj, v in rows])


def test_kurtosis_discrete_uniform_rejected():
    # equal counts over {1..5}: beta2 = 1.7 < 2
    scores = [1, 2, 3, 4, 5] * 4
    assert ann.subject_kurtosis(np.array(scores, dtype=float)) == pytest.approx(1.7)
    ratings = _matrix([(f"s{i}", "uniform", v) for i, v in enumerate(scores)])
    result = ann.screen_subjects(ratings)
    assert result.kept == []
    assert "uniform" in result.rejected
    assert result.rejected["uniform"].startswith("beta2=")


def test_near_gaussian_subject_kept():
    r = np.random.default_rng(5)
    scores = np.clip(3.0 + 0.6 * r.normal(size=200), 1, 5)
    assert 2.0 <= ann.subject_kurtosis(scores) <= 4.0  # sample-kurtosis oracle
    assert ann.subject_kurtosis(scores) == pytest.approx(
        scipy.stats.kurtosis(scores, fisher=False, bias=True))
    ratings = _matrix([(f"s{i}", "gauss", v) for i, v in enumerate(scores)])
    assert ann.screen_subjects(ratings).kept == ["gauss"]


def test_constant_subject_rejected_degenerate():
    ratings = _matrix([(f"s{i}", "const", 3.0) for i in range(10)])
    result = ann.screen_subjects(ratings)
    assert result.rejected == {"const": "degenerate"}


def test_screening_requires_4_scores():
    ratings = _matrix([("s1", "few", 3.0), ("s2", "few", 4.0)])
    with pytest.raises(ValueError, match="fewer than 4"):
        ann.screen_subjects(ratings)


def test_rating_range_enforced():
    with pytest.raises(ValueError):
        ann.Rating("s", "x", 5.5)


# ---------------------------------------------------------------------------
# MOS
# ---------------------------------------------------------------------------


def test_mos_simple_mean():
    ratings = _matrix([("a", f"u{i}", v) for i, v in enumerate((3.0, 4.0, 5.0))])
    mos = ann.compute_mos(ratings, [f"u{i}" for i in range(3)])
    assert mos["a"] == pytest.approx(4.0)


def test_mos_single_score_warns(caplog):
    ratings = _matrix([("a", "u0", 2.0)])
    with caplog.at_level("WARNING"):
        mos = ann.compute_mos(ratings, ["u0"])
    assert mos["a"] == 2.0
    assert "fewer than 16" in caplog.text


def test_mos_zero_kept_scores_errors():
    ratings = _matrix([("a", "u0", 2.0), ("b", "u1", 3.0)])
    with pytest.raises(ValueError, match="zero kept scores"):
        ann.compute_mos(ratings, ["u0"])


def test_mos_matches_independent_mean(rng):
    stimuli = [f"s{i}" for i in range(10)]
    subjects = [f"u{j}" for j in range(8)]
    rows = []
    table = {}
    for s in stimuli:
        vals = rng.uniform(1, 5, len(subjects))
        table[s] = vals.mean()
        rows += [(s, subj, v) for subj, v in zip(subjects, vals)]
    mos = ann.compute_mos(_matrix(rows), subjects)
    for s in stimuli:
        assert mos[s] == pytest.approx(table[s])


# ---------------------------------------------------------------------------
# Metric selection
# ---------------------------------------------------------------------------


def test_select_best_metric_paper_style():
    # candidates mirror a Gaussian-noise row: the 0.9508-correlating metric wins
    r = np.random.default_rng(11)
    mos = np.linspace(1, 5, 30)
    noisy = lambda sd: mos + r.normal(0, sd, len(mos))
    scores = {7: {"PSNRyuv": list(noisy(0.55)), "PCQM": list(noisy(0.12)),
                  "GraphSIM": list(noisy(1.8))}}
    sel = ann.select_best_metric(scores, {7: list(mos)})
    assert sel == {7: "PCQM"}


def test_select_single_candidate():
    sel = ann.select_best_metric({3: {"PSNRyuv": [1.0, 2.0, 3.0]}}, {3: [1.0, 2.0, 2.5]})
    assert sel == {3: "PSNRyuv"}


def test_select_montecarlo_planted_metric(rng):
    wins = 0
    trials = 20
    for t in range(trials):
        r = np.random.default_rng(1000 + t)
        mos = np.sort(r.uniform(1, 5, 25))
        scores = {1: {"good": list(mos + r.normal(0, 0.15, 25)),
                      "rand": list(r.uniform(0, 1, 25))}}
        sel = ann.select_best_metric(scores, {1: list(mos)})
        wins += sel[1] == "good"
    assert wins >= 19


def test_select_invariant_under_monotone_rescale():
    r = np.random.default_rng(12)
    mos = np.sort(r.uniform(1, 5, 20))
    a = mos + r.normal(0, 0.1, 20)
    b = r.uniform(0, 1, 20)
    base = ann.select_best_metric({1: {"a": list(a), "b": list(b)}}, {1: list(mos)})
    rescaled = ann.select_best_metric(
        {1: {"a": list(np.exp(a / 2)), "b": list(b)}}, {1: list(mos)})
    assert base == rescaled == {1: "a"}


def test_select_no_applicable_metric_errors():
    with pytest.raises(ValueError, match="no applicable metric"):
        ann.select_best_metric({4: {"m": [1.0, 1.0, 1.0]}}, {4: [1.0, 2.0, 3.0]})


# ---------------------------------------------------------------------------
# Regression fitting
# ---------------------------------------------------------------------------


def test_cubic_exact_recovery():
    r = np.random.default_rng(21)
    qs = np.sort(r.uniform(-2, 2, 40))
    truth = (0.3, -0.5, 1.1, 2.0)
    targets = ann.eval_regression(
        ann.RegressionModel("cubic4", truth, 0.0, 0, True), qs)
    model = ann.fit_regression("cubic4", qs, targets)
    np.testing.assert_allclose(model.params, truth, atol=1e-6)
    assert model.rmse < 1e-8


def test_cubic_overflowing_scores_raise_instead_of_hanging():
    # an inf Vandermonde matrix made np.linalg.lstsq spin without returning,
    # so the fit runs in a child process that the timeout ends
    code = ("import numpy as np\n"
            "from pcqa import annotate as ann\n"
            "ann.fit_regression('cubic4', np.linspace(0, 1, 8) * 1e150, np.linspace(1, 5, 8))\n")
    src = str(Path(ann.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1
    assert done.stderr.strip().splitlines()[-1] == (
        "ValueError: cubic4: the largest |score| 1e+150 overflows float64 when cubed")
    # scores whose cube is still finite fit as before
    model = ann.fit_regression("cubic4", np.linspace(0, 1, 8) * 5e102, np.linspace(1, 5, 8))
    assert model.converged


def test_cubic_eval_direct():
    model = ann.RegressionModel("cubic4", (0.0, 0.0, 2.0, 1.0), 0.0, 0, True)
    assert ann.eval_regression(model, 3.0) == pytest.approx(7.0)


def test_logistic5_identity_representable():
    qs = np.linspace(1, 5, 30)
    model = ann.fit_regression("logistic5", qs, qs)
    assert model.rmse <= 1e-6


def test_logistic5_eval_forms():
    ident = ann.RegressionModel("logistic5", (0.0, 1.0, 0.0, 1.0, 0.0), 0.0, 0, True)
    np.testing.assert_allclose(ann.eval_regression(ident, np.array([0.3, 2.0])), [0.3, 2.0])
    const = ann.RegressionModel("logistic5", (0.0, 1.0, 0.0, 0.0, 4.2), 0.0, 0, True)
    np.testing.assert_allclose(ann.eval_regression(const, np.array([1.0, 9.9])), 4.2)


def test_logistic4_noisy_recovery():
    r = np.random.default_rng(22)
    qs = np.sort(r.uniform(20, 70, 50))
    truth = ann.RegressionModel("logistic4", (4.8, 1.2, 45.0, 6.0), 0.0, 0, True)
    targets = ann.eval_regression(truth, qs) + r.normal(0, 0.01, 50)
    model = ann.fit_regression("logistic4", qs, targets)
    curve_rmse = float(np.sqrt(np.mean(
        (np.asarray(ann.eval_regression(model, qs)) - ann.eval_regression(truth, qs)) ** 2)))
    assert curve_rmse <= 0.05


def test_fit_diagnostics_reproducible():
    r = np.random.default_rng(23)
    qs = np.sort(r.uniform(0, 10, 30))
    targets = 2.0 + 0.3 * qs + r.normal(0, 0.05, 30)
    model = ann.fit_regression("logistic5", qs, targets)
    pred = np.asarray(ann.eval_regression(model, qs))
    rmse = float(np.sqrt(np.mean((pred - targets) ** 2)))
    assert rmse == pytest.approx(model.rmse, abs=1e-12)


def test_fit_rejects_short_input():
    with pytest.raises(ValueError, match="at least"):
        ann.fit_regression("logistic5", [1, 2, 3], [1, 2, 3])


def test_fit_rejects_unknown_kind():
    # the same message RegressionModel gives, before any input is looked at
    with pytest.raises(ValueError, match="^unknown regression kind 'logistic3'$"):
        ann.fit_regression("logistic3", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_regression_model_validation():
    with pytest.raises(ValueError):
        ann.RegressionModel("logistic5", (1.0, 2.0), 0.0, 0, True)
    with pytest.raises(ValueError):
        ann.RegressionModel("cubic4", (1.0, 2.0, 3.0, float("nan")), 0.0, 0, True)


def test_nelder_mead_quadratic_bowl():
    f = lambda x: float((x[0] - 3) ** 2 + 2 * (x[1] + 1) ** 2)
    x, fx, it, conv = ann.nelder_mead(f, np.array([0.0, 0.0]))
    assert conv
    np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-6)


# ---------------------------------------------------------------------------
# Pseudo-MOS
# ---------------------------------------------------------------------------


def _linear_fit_for(qs, mos):
    return ann.fit_regression("logistic5", qs, mos)


def test_pseudo_mos_clamped():
    model = ann.RegressionModel("logistic5", (0.0, 1.0, 0.0, 1.0, 0.0), 0.0, 0, True)
    assert ann.generate_pseudo_mos(model, 80.0) == 5.0  # identity map -> 80
    assert ann.generate_pseudo_mos(model, -3.0) == 1.0


def test_pseudo_mos_fit_residuals_small(rng):
    qs = np.sort(rng.uniform(20, 60, 40))
    mos = np.clip(1 + 4 * (qs - 20) / 40 + rng.normal(0, 0.1, 40), 1, 5)
    model = _linear_fit_for(qs, mos)
    pseudo = [ann.generate_pseudo_mos(model, q) for q in qs]
    errors = mos - np.array(pseudo)
    assert np.sqrt(np.mean(errors**2)) < 0.25
    assert all(1.0 <= p <= 5.0 for p in pseudo)


def test_pseudo_mos_end_to_end_monotone_metric(rng):
    # planted monotone metric: SROCC(pseudo, mos) stays high
    levels = np.repeat(np.arange(1, 8), 6)
    mos = 5.0 - 0.55 * levels + rng.normal(0, 0.08, len(levels))
    metric = 80 - 9 * levels + rng.normal(0, 0.6, len(levels))
    labels = np.clip(mos, 1, 5)
    model = _linear_fit_for(metric, labels)
    pseudo = [ann.generate_pseudo_mos(model, m) for m in metric]
    assert ann.srocc(labels, pseudo) >= 0.9


# ---------------------------------------------------------------------------
# Error statistics
# ---------------------------------------------------------------------------


def test_error_stats_hand_case():
    stats = ann.annotation_error_stats([0.1, -0.1])
    assert stats.mean == pytest.approx(0.0)
    assert stats.stddev == pytest.approx(0.1)  # population formula


def test_error_stats_all_zero():
    stats = ann.annotation_error_stats([0.0] * 5)
    assert stats.mean == 0.0
    assert stats.stddev == 0.0
    assert stats.q95_abs == 0.0


def test_error_stats_histogram_shape():
    stats = ann.annotation_error_stats([-0.3, -0.1, 0.0, 0.1, 0.3, 0.6])
    assert len(stats.hist_counts) == 20  # 0.25-wide bins over [-2.5, 2.5]
    assert sum(stats.hist_counts) == 6


def test_error_stats_histogram_follows_the_label_scale():
    # on [0, 100] the 20 bins span +-62.5
    stats = ann.annotation_error_stats([-12.0, -3.0, 0.5, 7.0, 20.0], scale=(0.0, 100.0))
    assert (stats.hist_edges[0], stats.hist_edges[-1]) == (-62.5, 62.5)
    assert sum(stats.hist_counts) == 5
    # errors past the outer edges count in the outer bins
    stats = ann.annotation_error_stats([-3.0, 0.0, 3.0])
    assert stats.hist_edges == tuple(np.arange(-2.5, 2.5 + 0.25 / 2, 0.25))
    assert (stats.hist_counts[0], stats.hist_counts[-1], sum(stats.hist_counts)) == (1, 1, 3)


def test_error_stats_q95_absolute(rng):
    errs = rng.normal(0, 0.5, 400)
    clipped = np.clip(errs, -1.9, 1.9)
    stats = ann.annotation_error_stats(clipped)
    assert stats.q95_abs == pytest.approx(np.quantile(np.abs(clipped), 0.95))


def test_error_stats_requires_two():
    with pytest.raises(ValueError):
        ann.annotation_error_stats([0.1])


def test_nelder_mead_iteration_cap_flags_nonconvergence():
    f = lambda x: float((x[0] - 100.0) ** 2)
    x, fx, it, conv = ann.nelder_mead(f, np.array([0.0]), max_iter=3)
    assert not conv
    assert it == 3
    assert np.isfinite(fx)  # best-so-far still returned


def test_fit_best_of_starts_never_worse_than_linear():
    r = np.random.default_rng(31)
    qs = np.sort(r.uniform(0, 10, 40))
    targets = 1.5 + 0.3 * qs + r.normal(0, 0.2, 40)
    model = ann.fit_regression("logistic5", qs, targets)
    design = np.stack([qs, np.ones_like(qs)], axis=1)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    linear_rmse = float(np.sqrt(np.mean((design @ coef - targets) ** 2)))
    assert model.rmse <= linear_rmse + 1e-12


def test_rating_csv_errors(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("stimulus_id,score\na,3\n")
    with pytest.raises(ValueError, match="missing columns: subject_id"):
        ann.RatingMatrix.from_csv(p)
    p.write_text("stimulus_id,subject_id,score\na,s,3.2\n")
    ratings = ann.RatingMatrix.from_csv(p)
    assert ratings.ratings[0].score == 3.2


# ---------------------------------------------------------------------------
# Nelder-Mead: bit-identity with the NumPy array formulation
# ---------------------------------------------------------------------------


def _reference_nelder_mead(f, x0, max_iter=10_000, xatol=1e-10, fatol=1e-12, stats=None):
    """The simplex search written on NumPy arrays; `ann.nelder_mead` must
    reproduce it bit for bit. `stats` counts the shrink steps taken."""
    x0 = np.asarray(x0, dtype=np.float64)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for i in range(n):
        y = x0.copy()
        y[i] = y[i] * 1.05 if y[i] != 0.0 else 0.00025
        sim[i + 1] = y
    fsim = np.array([f(s) for s in sim])

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    it = 0
    converged = False
    while it < max_iter:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[1:] - fsim[0])) <= fatol):
            converged = True
            break
        it += 1
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - sim[-1])
        fr = f(xr)
        if fr < fsim[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + rho * (xr - centroid)
            else:
                xc = centroid + rho * (sim[-1] - centroid)
            fc = f(xc)
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                if stats is not None:
                    stats["shrinks"] = stats.get("shrinks", 0) + 1
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = [f(s) for s in sim[1:]]
    best = int(np.argmin(fsim))
    return sim[best], float(fsim[best]), it, converged


def _recorded(f):
    """`f` plus the list of the exact bytes of every point handed to it."""
    calls = []

    def g(x):
        calls.append(np.asarray(x, dtype=np.float64).tobytes())
        return f(x)
    return g, calls


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _assert_same_search(f, x0, stats=None, **kwargs):
    g_new, calls_new = _recorded(f)
    g_ref, calls_ref = _recorded(f)
    with np.errstate(all="ignore"):
        x, fx, it, conv = ann.nelder_mead(g_new, x0, **kwargs)
        rx, rfx, rit, rconv = _reference_nelder_mead(g_ref, x0, stats=stats, **kwargs)
    assert isinstance(x, np.ndarray) and x.dtype == np.float64
    assert x.tobytes() == rx.tobytes()
    assert _bits(fx) == _bits(rfx)
    assert (it, conv) == (rit, rconv)
    assert calls_new == calls_ref
    return it, conv


_coords = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_coords, min_size=n, max_size=n),
    st.lists(_coords, min_size=n, max_size=n),
    st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))),
    st.integers(0, 400))
def test_nelder_mead_matches_array_form_quadratic(case, max_iter):
    x0, center, weights = (np.array(v) for v in case)

    def f(x):
        return float(np.sum(weights * (x - center) ** 2))
    _assert_same_search(f, x0, max_iter=max_iter)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 20), st.integers(0, 7))
def test_nelder_mead_matches_array_form_logistic5(seed, n_samples, start):
    r = np.random.default_rng(seed)
    qs = np.sort(r.uniform(0, 100, n_samples))
    targets = np.clip(4.5 - 0.035 * qs + r.normal(0, 0.3, n_samples), 1, 5)
    x0 = ann._start_points("logistic5", qs, targets)[start]
    _assert_same_search(_reference_rmse("logistic5", qs, targets), x0, max_iter=3000)


def test_nelder_mead_matches_array_form_on_shrink_and_cap():
    # a staircase: ties on its plateaus make contractions fail, so the
    # search shrinks; the cap then stops it mid-search
    def f(x):
        return float(np.floor(np.sum(np.abs(x - 1.0)) * 4.0))
    stats = {}
    it, conv = _assert_same_search(f, np.array([1.0, 0.0, -2.0]), stats=stats)
    assert stats["shrinks"] > 0 and conv
    it, conv = _assert_same_search(f, np.array([1.0, 0.0, -2.0]), max_iter=20)
    assert (it, conv) == (20, False)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(_coords, min_size=n, max_size=n)),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.integers(0, 300))
def test_nelder_mead_matches_array_form_inf_nan_regions(x0, nan_above, inf_below, max_iter):
    # NaN must sort last (np.argsort) and win np.argmin, as the array form does
    def f(x):
        if x[0] > nan_above:
            return float("nan")
        if x[-1] < inf_below:
            return float("inf")
        return float(np.sum((x - 1.0) ** 2))
    _assert_same_search(f, np.array(x0), max_iter=max_iter)


def test_nelder_mead_nan_start_point():
    f = lambda x: float("nan") if x[0] == 1.0 else float((x[0] - 0.5) ** 2 + x[1] ** 2)
    _assert_same_search(f, np.array([1.0, 1.0]), max_iter=50)


@pytest.mark.parametrize("x0", [np.array([]), np.zeros((2, 2)), np.float64(1.0)],
                         ids=["empty", "2-D", "scalar"])
def test_nelder_mead_rejects_an_empty_or_non_vector_start(x0):
    with pytest.raises(ValueError, match=r"^x0 must be a non-empty 1-D vector, got shape"):
        ann.nelder_mead(lambda x: 0.0, x0)


@pytest.mark.parametrize("x0s", [np.zeros((3, 0)), np.zeros(3), np.zeros((2, 2, 2))],
                         ids=["no-dims", "1-D", "3-D"])
def test_simplex_batch_rejects_starts_that_are_not_rows(x0s):
    with pytest.raises(ValueError, match=r"^starts must be an \(R, n\) array with n >= 1"):
        ann._simplex_batch(x0s, lambda rows, points: np.zeros(len(rows)))


def _objective(spec):
    """A scalar test objective: a weighted bowl, a staircase whose plateaus
    make the search shrink, or a bowl with NaN and inf regions."""
    kind, a, b = spec
    if kind == "bowl":
        center, weights = np.array(a), np.array(b)
        return lambda x: float(np.sum(weights * (x - center) ** 2))
    if kind == "stairs":
        return lambda x: float(np.floor(np.sum(np.abs(x - a)) * 4.0))

    def regions(x):
        if x[0] > a:
            return float("nan")
        if x[-1] < b:
            return float("inf")
        return float(np.sum((x - 1.0) ** 2))
    return regions


def _search_specs(n):
    # starts near the NaN and inf thresholds, so that simplices straddle them
    vector = st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)
    objective = st.one_of(
        st.tuples(st.just("bowl"), vector, st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
        st.tuples(st.just("stairs"), st.floats(-5.0, 5.0), st.none()),
        st.tuples(st.just("regions"), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    return st.lists(st.tuples(vector, objective), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(_search_specs), st.integers(0, 120))
# a contraction is taken against Python's min(fr, NaN) = fr
@example([([4.2, 2.5, -3.6, 1.6], ("regions", 4.3, -3.4)),
          ([1.0, -1.5, -4.6, 0.3], ("stairs", 0.5, None))], 35)
# the cap stops a search whose simplex holds a NaN vertex, which np.argmin returns
@example([([4.8, -0.4, -4.9], ("regions", 4.8, 3.2)),
          ([0.9, -1.7, -3.3], ("stairs", -2.4, None))], 5)
def test_simplex_batch_matches_each_search_run_alone(specs, max_iter):
    # R searches in one call, each against the array form run on its own:
    # the same result and the same points handed to its objective, in order
    x0s = np.array([x0 for x0, _ in specs])
    objectives = [_objective(spec) for _, spec in specs]
    calls = [[] for _ in specs]

    def score(rows, points):
        assert np.all(np.diff(rows) >= 0)
        for r, x in zip(rows, points):
            calls[r].append(x.tobytes())
        return np.array([objectives[r](x) for r, x in zip(rows, points)])

    with np.errstate(all="ignore"):
        results = ann._simplex_batch(x0s, score, max_iter)
        for x0, f, got, got_calls in zip(x0s, objectives, results, calls):
            g, want_calls = _recorded(f)
            rx, rfx, rit, rconv = _reference_nelder_mead(g, x0, max_iter=max_iter)
            x, fx, it, conv = got
            assert (x.tobytes(), _bits(fx), it, conv) == (rx.tobytes(), _bits(rfx), rit, rconv)
            assert got_calls == want_calls


def _reference_eval_kind(kind, params, qs):
    if kind == "logistic4":
        b1, b2, b3, b4 = params
        z = np.clip(-(qs - b3) / np.abs(b4), -700.0, 700.0)
        return (b1 - b2) / (1.0 + np.exp(z)) + b2
    if kind == "logistic5":
        b1, b2, b3, b4, b5 = params
        z = np.clip(b2 * (qs - b3), -700.0, 700.0)
        return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * qs + b5
    a, b, c, d = params
    return a * qs**3 + b * qs**2 + c * qs + d


def _reference_rmse(kind, qs, targets):
    """The scalar RMSE objective of one problem; a non-finite RMSE reads as +inf."""
    def objective(params):
        rmse = float(np.sqrt(np.mean((_reference_eval_kind(kind, params, qs) - targets) ** 2)))
        return rmse if math.isfinite(rmse) else math.inf
    return objective


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["logistic4", "logistic5", "cubic4"]), st.integers(0, 2**32 - 1),
       st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e200, 1e200),
                          st.sampled_from([0.0, -0.0, 700.0, 1e-300])),
                min_size=5, max_size=5))
def test_rmse_objective_matches_array_form(kind, seed, raw):
    r = np.random.default_rng(seed)
    qs = r.uniform(0, 100, 14)
    targets = r.uniform(1, 5, 14)
    params = np.array(raw[:ann._PARAM_COUNT[kind]])
    with np.errstate(all="ignore"):
        [got] = ann._rmse_rows(kind, params[None], qs[None], targets[None])
        want = _reference_rmse(kind, qs, targets)(params)
    assert _bits(got) == _bits(want)


_KINDS = ("logistic4", "logistic5", "cubic4")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1), st.integers(4, 20),
       st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e200, 1e200),
                                   st.sampled_from([0.0, -0.0, 700.0, 1e-300])),
                         min_size=5, max_size=5),
                min_size=1, max_size=8))
def test_rmse_rows_match_the_scalar_objective(kind, seed, n, raw):
    # each row of a stack scored against its own problem's samples
    r = np.random.default_rng(seed)
    qs = r.uniform(0, 100, (3, n))
    targets = r.uniform(1, 5, (3, n))
    params = np.array([row[:ann._PARAM_COUNT[kind]] for row in raw])
    owner = r.integers(0, 3, len(params))
    with np.errstate(all="ignore"):
        got = ann._rmse_rows(kind, params, qs[owner], targets[owner])
        want = [_reference_rmse(kind, qs[o], targets[o])(x) for x, o in zip(params, owner)]
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


# ---------------------------------------------------------------------------
# fit_regressions: every start of every problem searched in lockstep
# ---------------------------------------------------------------------------


def _fit_problem(seed, n, scale):
    """n sorted scores in [0, 100) times `scale`, against noisy falling MOS."""
    r = np.random.default_rng(seed)
    qs = np.sort(r.uniform(0, 100, n)) * scale
    targets = np.clip(4.5 - 0.035 * qs / scale + r.normal(0, 0.3, n), 1, 5)
    return qs, targets


def _one_start_at_a_time(kind, qs, targets):
    """The best of the starts, each run alone through `nelder_mead` on the
    scalar objective, as (params bytes, rmse bytes, summed iterations,
    converged); None when every start diverged."""
    objective = _reference_rmse(kind, qs, targets)
    best, total = None, 0
    for x0 in ann._start_points(kind, qs, targets):
        with np.errstate(all="ignore"):
            x, fx, it, conv = ann.nelder_mead(objective, x0)
        total += it
        if np.all(np.isfinite(x)) and (best is None or fx < best[1]):
            best = (x, fx, conv)
    return None if best is None else (best[0].tobytes(), _bits(best[1]), total, best[2])


# Pinned cases that reach the iteration cap (logistic4: 5 of 8 starts;
# logistic5: 1 of 8), the shrink step and, at scores near 1e100, overflowing
# and NaN curves; `test_pinned_fit_cases_reach_cap_shrink_and_non_finite`
# checks that they do.
_PINNED_FITS = [
    (("logistic4", 1.0), [(101, 5), (102, 6)]),
    (("logistic5", 1.0), [(103, 5), (104, 6)]),
    (("cubic4", 1e100), [(0, 5), (0, 7), (1, 5)]),
]
_fit_case = st.tuples(
    st.sampled_from([("cubic4", 1.0), ("cubic4", 1e100), ("logistic5", 1.0), ("logistic4", 1.0)]),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(5, 8)), min_size=2, max_size=3)
    .filter(lambda specs: len({n for _, n in specs}) > 1))


@settings(max_examples=6, deadline=None)
@example(_PINNED_FITS[0])
@example(_PINNED_FITS[1])
@example(_PINNED_FITS[2])
@given(_fit_case)
def test_fit_regressions_matches_one_start_at_a_time(case):
    (kind, scale), specs = case
    problems = [_fit_problem(seed, n, scale) for seed, n in specs]
    want = [_one_start_at_a_time(kind, qs, targets) for qs, targets in problems]
    if None in want:
        with pytest.raises(RuntimeError, match="all regression starts diverged"):
            ann.fit_regressions(kind, problems)
        return
    got = [(np.array(m.params).tobytes(), _bits(m.rmse), m.iterations, m.converged)
           for m in ann.fit_regressions(kind, problems)]
    assert got == want


@pytest.mark.parametrize("case", _PINNED_FITS, ids=[kind for (kind, _), _ in _PINNED_FITS])
def test_pinned_fit_cases_reach_cap_shrink_and_non_finite(monkeypatch, case):
    (kind, scale), specs = case
    seen = {"shrink": 0, "inf": 0}
    simplex_batch = ann._simplex_batch

    def watched(x0s, score, *args):
        def watched_score(rows, points):
            values = score(rows, points)
            seen["inf"] += math.inf in values
            # a shrink scores n points of one search, the start n + 1, the rest 1
            seen["shrink"] += np.unique(rows, return_counts=True)[1].max() == x0s.shape[1]
            return values
        return simplex_batch(x0s, watched_score, *args)

    monkeypatch.setattr(ann, "_simplex_batch", watched)
    models = ann.fit_regressions(kind, [_fit_problem(seed, n, scale) for seed, n in specs])
    assert seen["shrink"] > 0
    if kind == "cubic4":
        assert seen["inf"] > 0
    else:
        assert not all(flag for m in models for flag in m.starts_converged)


def test_rating_scale_defaults_to_1_5_and_follows_from_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("stimulus_id,subject_id,score\ns,x,7.5\n")
    with pytest.raises(ValueError, match=r"outside \[1.0, 5.0\]"):
        ann.RatingMatrix.from_csv(path)
    [rating] = ann.RatingMatrix.from_csv(path, (1.0, 10.0)).ratings
    assert (rating.stimulus_id, rating.subject_id, rating.score) == ("s", "x", 7.5)
    with pytest.raises(ValueError, match=r"outside \[0.0, 1.0\]"):
        ann.RatingMatrix.from_csv(path, (0.0, 1.0))
