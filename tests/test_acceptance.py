"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full suite
takes on the order of ten minutes on one core; the heavy entries are
the two 2000-trial scenario reproductions and the trend-null study.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    enumerated,
    grid_maximize_penalized,
    maximize_gain_numerically,
    standardized_gain,
)

from randmcp.contrasts import optimal_contrast
from randmcp.data import TrialDataset
from randmcp.dose_response import (
    CandidateModel,
    CandidateSet,
    DoseGrid,
    default_candidate_set,
    wide_range_candidate_set,
)
from randmcp.glm import covariate_design, fit_firth
from randmcp.inference import (
    TestMethod,
    exact_randomization_pvalue,
    randomization_test,
)
from randmcp.presets import load_preset
from randmcp.randomization import RandomizationSpec, count_sequences
from randmcp.rng import substream
from randmcp.simulate import (
    _BinaryTrials,
    generate_binary_trial,
    run_power_study,
    simulate_from_potential_outcomes,
    synthetic_potential_table,
)

GRID4 = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
GRID2 = DoseGrid(doses=(0.0, 100.0))
LINEAR_ONLY = CandidateSet(models=(CandidateModel(shape="linear", name="linear"),))


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def three_mcse(rate: float, n: int) -> float:
    return 3.0 * math.sqrt(rate * (1.0 - rate) / n)


# ---------------------------------------------------------------------------
# Criterion 1: desk-scale reproduction of the primary scenario block
# ---------------------------------------------------------------------------

def test_criterion_1_trial_scenario_reproduction():
    n_sim = 2000
    config = replace(
        load_preset("n49_pbd_notrend"),
        n_sim=n_sim, n_rand=1000, seed=101,
        methods=(TestMethod(id="population"), TestMethod(id="residual_firth", n_rand=1000)),
    )
    null = run_power_study(replace(config, pk=config.p0, name="c1_null"))
    alt = run_power_study(replace(config, name="c1_alt"))

    targets = {
        ("population", "type1"): 3.03,
        ("population", "power"): 76.75,
        ("residual_firth", "type1"): 9.99,
        ("residual_firth", "power"): 90.06,
    }
    parts, ok = [], True
    for (mid, kind), target in targets.items():
        study = null if kind == "type1" else alt
        rate = 100.0 * study.summary(mid).rejection_rate
        tol = 100.0 * three_mcse(target / 100.0, n_sim)
        good = abs(rate - target) <= tol
        ok &= good
        parts.append(f"{mid}/{kind}={rate:.2f} (target {target:.2f} +-{tol:.2f})")
    check(1, ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# Criterion 2: separation frequencies of the null scenarios
# ---------------------------------------------------------------------------

def test_criterion_2_separation_frequencies():
    n_sim = 10_000
    observed = {}
    complete = {}
    nonexistent = {}
    for preset_name, n in (("n49_pbd_notrend", 49), ("n98_pbd_notrend", 98),
                           ("n490_pbd_notrend", 490)):
        config = replace(load_preset(preset_name), pk=0.2, seed=77)
        placebo = 0
        comp = 0
        quasi = 0
        trials = _BinaryTrials(config)
        for trial in range(n_sim):
            flags = trials(trial)[1]
            placebo += flags["placebo_degenerate"]
            comp += flags["complete"]
            quasi += flags["quasicomplete"]
        observed[n] = 100.0 * placebo / n_sim
        complete[n] = 100.0 * comp / n_sim
        nonexistent[n] = 100.0 * (comp + quasi) / n_sim

    ok = abs(observed[49] - 18.02) <= 1.5
    ok &= abs(observed[98] - 3.36) <= 1.5
    ok &= observed[490] == 0.0 and complete[490] == 0.0
    detail = (
        f"placebo-degenerate rates {observed[49]:.2f}/{observed[98]:.2f}/"
        f"{observed[490]:.2f} (targets 18.02/3.36/0 +-1.5); "
        f"strict-complete rates {complete[49]:.2f}/{complete[98]:.2f}/{complete[490]:.2f}; "
        f"MLE-nonexistent rates {nonexistent[49]:.2f}/{nonexistent[98]:.2f}/"
        f"{nonexistent[490]:.2f}"
    )
    check(2, ok, detail)


# ---------------------------------------------------------------------------
# Criterion 3: reference-set combinatorics
# ---------------------------------------------------------------------------

def test_criterion_3_reference_set_counts():
    pbd = RandomizationSpec(procedure="pbd", grid=GRID4, n=49, block=(1, 2, 2, 2))
    ra = RandomizationSpec(procedure="ra", grid=GRID4, n=49, targets=(7, 14, 14, 14))
    cr = RandomizationSpec(procedure="cr", grid=GRID4, n=49, weights=(1, 2, 2, 2))
    expected_ra = math.factorial(49) // (math.factorial(7) * math.factorial(14) ** 3)
    ok = count_sequences(pbd)[0] == 630 ** 7
    ok &= count_sequences(ra)[0] == expected_ra
    ok &= count_sequences(cr)[0] == 7 ** 49
    check(3, ok, f"pbd=630^7, ra=49!/(7!*14!^3), cr=7^49 (log10 "
                 f"{count_sequences(pbd)[1]:.2f}/{count_sequences(ra)[1]:.2f}/"
                 f"{count_sequences(cr)[1]:.2f})")


# ---------------------------------------------------------------------------
# Criterion 4: Monte Carlo matches enumeration; exact test is valid
# ---------------------------------------------------------------------------

def _toy_cases():
    grid3 = DoseGrid(doses=(0.0, 50.0, 100.0))
    rng = substream(404, 0)
    cases = []
    spec = RandomizationSpec(procedure="ra", grid=GRID2, n=6, targets=(3, 3))
    cases.append(("ra_3+3 residual", spec, LINEAR_ONLY, "residual_firth",
                  np.array([0, 1, 0, 1, 0, 1]), np.array([0.0, 1, 0, 1, 1, 0])))
    spec = RandomizationSpec(procedure="pbd", grid=GRID2, n=6, block=(1, 1))
    cases.append(("pbd_3x(1:1) residual", spec, LINEAR_ONLY, "residual_firth",
                  np.array([0, 1, 1, 0, 0, 1]), np.array([1.0, 1, 0, 0, 1, 0])))
    spec = RandomizationSpec(procedure="ra", grid=grid3, n=9, targets=(3, 3, 3))
    y = (rng.random(9) < 0.5).astype(float)
    cases.append(("ra_3x3 residual", spec, default_candidate_set(), "residual_firth",
                  np.repeat([0, 1, 2], 3), y))
    spec = RandomizationSpec(procedure="ra", grid=GRID2, n=8, targets=(4, 4))
    y = (rng.random(8) < 0.4).astype(float)
    cases.append(("ra_4+4 refit", spec, LINEAR_ONLY, "glm_firth",
                  np.tile([0, 1], 4), y))
    return cases


def test_criterion_4_exact_test_oracle():
    parts, ok = [], True
    n_rand = 100_000
    for label, spec, candidates, method_id, arms, y in _toy_cases():
        data = TrialDataset(arms=arms, outcomes=y, covariates=np.empty((spec.n, 0)),
                            grid=spec.grid)
        method = TestMethod(id=method_id, n_rand=n_rand)
        exact = exact_randomization_pvalue(data, spec, method, candidates)
        count = exact.diagnostics["reference_set_size"]
        assert count <= 10_000
        mc = randomization_test(data, spec, method, candidates, substream(404, 1))
        se = math.sqrt(max(exact.p_value * (1 - exact.p_value), 1e-12) / n_rand)
        good = abs(mc.p_value - exact.p_value) <= max(3 * se, 2e-4)
        ok &= good
        parts.append(f"{label}: |mc-exact|={abs(mc.p_value - exact.p_value):.5f}"
                     f" (3se={3 * se:.5f})")

    # Strong-null validity with exhaustive outcomes over two tiny designs.
    alphas = np.linspace(0.02, 1.0, 20)
    worst = 0.0
    for spec in (
        RandomizationSpec(procedure="ra", grid=GRID2, n=4, targets=(2, 2)),
        RandomizationSpec(procedure="pbd", grid=GRID2, n=4, block=(1, 1)),
    ):
        sequences, probs = enumerated(spec)
        method = TestMethod(id="residual_firth")
        for bits in range(2 ** spec.n):
            y = np.array([(bits >> i) & 1 for i in range(spec.n)], dtype=float)
            pvals = []
            for seq in sequences:
                data = TrialDataset(arms=seq, outcomes=y,
                                    covariates=np.empty((spec.n, 0)), grid=spec.grid)
                pvals.append(exact_randomization_pvalue(
                    data, spec, method, LINEAR_ONLY).p_value)
            pvals = np.array(pvals)
            weights = np.array(probs)
            for alpha in alphas:
                excess = float(np.sum(weights[pvals <= alpha])) - alpha
                worst = max(worst, excess)
                ok &= excess <= 1e-12
    parts.append(f"max P(p<=a)-a over designs/outcomes/levels = {worst:.2e}")
    check(4, ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# Criterion 5: Firth fits against the brute-force penalized oracle
# ---------------------------------------------------------------------------

def test_criterion_5_firth_oracle():
    rng = np.random.default_rng(55)
    worst_coef = 0.0
    worst_score = 0.0
    for case in range(100):
        if case % 2 == 0:
            n = int(rng.integers(4, 26))
            y = np.zeros(n) if rng.random() < 0.5 else np.ones(n)
            design = covariate_design(None, n=n)
        else:
            n = int(rng.integers(6, 26))
            x = np.sort(rng.normal(size=n))
            cut = int(rng.integers(1, n - 1))
            y = np.zeros(n)
            y[cut:] = 1.0  # threshold-separated on x
            design = covariate_design(x)
        fit = fit_firth(design, y)
        assert fit.converged
        oracle = grid_maximize_penalized(design.values, y)
        assert np.max(np.abs(oracle)) < 23.0  # optimum interior to the grid
        worst_coef = max(worst_coef, float(np.max(np.abs(fit.coefficients - oracle))))

        from scipy.special import expit
        xv = design.values
        pi = expit(xv @ fit.coefficients)
        w = pi * (1 - pi)
        xw = np.sqrt(w)[:, None] * xv
        info = xw.T @ xw
        hat = np.einsum("np,pn->n", xw, np.linalg.solve(info, xw.T))
        u_star = xv.T @ (y - pi + hat * (0.5 - pi))
        worst_score = max(worst_score, float(np.linalg.norm(u_star)))

    ok = worst_coef <= 1e-6 and worst_score < 1e-8
    check(5, ok, f"100 separated fits: max |coef - oracle| = {worst_coef:.2e} "
                 f"(tol 1e-6), max modified-score norm = {worst_score:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# Criterion 6: optimal contrasts against the constrained maximizer
# ---------------------------------------------------------------------------

def test_criterion_6_contrast_oracle():
    rng = np.random.default_rng(66)
    worst_vec = 0.0
    beaten = 0
    for case in range(100):
        k = int(rng.integers(3, 7))
        mu0 = rng.normal(size=k)
        while np.ptp(mu0) < 1e-3:
            mu0 = rng.normal(size=k)
        a = rng.normal(size=(k, k))
        S = a @ a.T + 0.3 * k * np.eye(k)
        c = optimal_contrast(mu0, S)
        gain = standardized_gain(c, mu0, S)

        draws = rng.normal(size=(10_000, k))
        draws -= draws.mean(axis=1, keepdims=True)
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        rival = (draws @ mu0) / np.sqrt(np.einsum("ik,kl,il->i", draws, S, draws))
        if gain < rival.max() - 1e-12:
            beaten += 1

        oracle, _ = maximize_gain_numerically(mu0, S, seed=case, starts=10)
        if oracle @ mu0 < 0:
            oracle = -oracle
        worst_vec = max(worst_vec, float(np.max(np.abs(c - oracle))))

    ok = beaten == 0 and worst_vec <= 1e-6
    check(6, ok, f"100 instances: beaten by random rivals {beaten} times, "
                 f"max |c - numerical maximizer| = {worst_vec:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 7: null calibration under the enrollment-time trend
# ---------------------------------------------------------------------------

def test_criterion_7_null_calibration_under_trend():
    n_sim = 600
    config = replace(
        load_preset("n49_pbd_trend"),
        pk=0.2, n_sim=n_sim, n_rand=1000, seed=202, name="c7_null",
    )
    study = run_power_study(config)
    band = 100.0 * three_mcse(0.10, n_sim)
    parts, ok = [], True
    for mid in ("glm_mle", "residual_mle", "glm_firth", "residual_firth"):
        rate = 100.0 * study.summary(mid).rejection_rate
        good = abs(rate - 10.0) <= band
        ok &= good
        parts.append(f"{mid}={rate:.2f}")
    pop = 100.0 * study.summary("population").rejection_rate
    ok &= pop < 10.0 - band
    parts.append(f"population={pop:.2f} (deflated, must be < {10.0 - band:.2f})")
    check(7, ok, f"randomization methods within 10 +-{band:.2f}: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Criterion 8: potential-outcomes mode calibration and covariate gain
# ---------------------------------------------------------------------------

def test_criterion_8_potential_outcomes_mode():
    grid5 = DoseGrid(doses=(0.0, 100.0, 200.0, 400.0, 1000.0))
    spec = RandomizationSpec(procedure="ra", grid=grid5, n=50, targets=(10,) * 5)
    candidates = wide_range_candidate_set(1000.0)

    table = synthetic_potential_table(50, grid5, substream(303, 0),
                                      constant_across_doses=True)
    n_sim = 2000
    res = simulate_from_potential_outcomes(
        table, spec, (TestMethod(id="residual_mle", n_rand=1000),), candidates,
        alpha=0.05, n_sim=n_sim, seed=303,
    )
    rate = res.summary("residual_mle").rejection_rate
    band = three_mcse(0.05, n_sim)
    ok = abs(rate - 0.05) <= band
    detail = f"constant-table type-I = {100 * rate:.2f} (target 5.00 +-{100 * band:.2f})"

    effect_table = synthetic_potential_table(50, grid5, substream(304, 0), effect=6.0,
                                             baseline_slope=1.2, noise_sd=2.0)
    kwargs = dict(alpha=0.05, n_sim=400, seed=305)
    with_cov = simulate_from_potential_outcomes(
        effect_table, spec, (TestMethod(id="residual_mle", n_rand=500),), candidates,
        include_baseline_covariate=True, **kwargs)
    without_cov = simulate_from_potential_outcomes(
        effect_table, spec, (TestMethod(id="residual_mle", n_rand=500),), candidates,
        include_baseline_covariate=False, **kwargs)
    gain = 100.0 * (with_cov.summary("residual_mle").rejection_rate
                    - without_cov.summary("residual_mle").rejection_rate)
    ok &= gain >= 5.0
    detail += f"; covariate power gain = {gain:.1f} points (need >= 5)"
    check(8, ok, detail)


# ---------------------------------------------------------------------------
# Criterion 9: residual statistic is at least 10x faster than refitting
# ---------------------------------------------------------------------------

def test_criterion_9_residual_speedup():
    config = load_preset("n49_pbd_notrend")
    data = generate_binary_trial(config, substream(404, 1))
    candidates = config.candidates
    spec = config.spec

    def run(method_id):
        return randomization_test(
            data, spec, TestMethod(id=method_id, n_rand=1000), candidates,
            substream(404, 2),
        )

    # Warm both methods, then time each five times, alternating, so that
    # a pause of a shared host lands on one run rather than one method.
    times = {"residual_firth": [], "glm_firth": []}
    for method_id in times:
        run(method_id)
    for _ in range(5):
        for method_id, runs in times.items():
            start = time.perf_counter()
            run(method_id)
            runs.append(time.perf_counter() - start)
    fast = float(np.median(times["residual_firth"]))
    slow = float(np.median(times["glm_firth"]))
    ratio = slow / fast
    check(9, ratio >= 10.0,
          f"refit {slow * 1e3:.0f} ms vs residual {fast * 1e3:.0f} ms per "
          f"1000-draw analysis: speedup {ratio:.1f}x (need >= 10x)")
