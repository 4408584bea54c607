"""Acceptance suite: every criterion runs its shipped config end to end
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Most criteria assert the config's own verdict.  Criterion 8 checks CLT1 in
the two halves the theorem has at desk scale: at fixed p = 5 the run's
statistic must match the standardized chi-square(5) law, and the gap D_p
from that law to N(0, 1) must vanish like 1 / (3 sqrt(pi p)) as p grows
(by quadrature).  Its config's own `ks-to-limit` check against N(0, 1)
reports FAIL by design, because D_5 = 0.0845 exceeds its 0.02 threshold.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conewalk.harness import default_workers, emit_outputs, run_experiment, validate_config
from conewalk.limit_lab import chi2_normal_gap

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs" / "acceptance"

_RECORDS = {}


def run_config(name, workers=None):
    # bytes do not depend on the worker count (criterion 13), so the
    # long criteria may use every CPU this process can run on
    key = (name, default_workers() if workers is None else workers)
    if key not in _RECORDS:
        raw = json.loads((CONFIG_DIR / name).read_text())
        cfg, warnings = validate_config(raw)
        _RECORDS[key] = run_experiment(cfg, workers=key[1], warnings=warnings)
    return _RECORDS[key]


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_01_exact_moment_identity():
    rec = run_config("c01_moment_identity.json")
    worst = max(r[7] for r in rec.rows)
    ok = report(1, "second moment of ||S_n||^2 - n*sigma2 matches the exact identity",
                rec.passed, f"max |diff|/se = {worst:.2f} over grid {[(r[0], r[1]) for r in rec.rows]}")
    assert ok, f"rows: {rec.rows}"


def test_criterion_02_m2_additivity():
    rec = run_config("c02_m2_additivity.json")
    worst = max(c["diff_over_se"] for c in rec.checks)
    ok = report(2, "E tr(S_n^2) = n m2 for index-mu walks over the (q, mu) grid",
                rec.passed, f"max |diff|/se = {worst:.2f} over 6 cells")
    assert ok, f"checks: {rec.checks}"


def test_criterion_03_group_oracle_equivalence():
    rec = run_config("c03_group_consistency.json")
    pvals = [c["pvalue"] for c in rec.checks]
    ok = report(3, "index p*d/2 walk matches the lifted matrix walk (two-sample KS)",
                rec.passed, f"p-values = {[f'{p:.3f}' for p in pvals]}")
    assert ok, f"checks: {rec.checks}"


def test_criterion_04_support_bound():
    rec = run_config("c04_support_bound.json")
    violations = sum(c["violations"] for c in rec.checks)
    ok = report(4, "convolution support bound ||t|| <= ||r|| + ||s|| over 1e6 draws",
                rec.passed, f"violations = {violations} across {len(rec.checks)} cells")
    assert ok, f"checks: {rec.checks}"


def test_criterion_05_character_multiplicativity():
    rec = run_config("c05_character.json")
    c = rec.checks[0]
    ok = report(5, "mean character over a convolution equals the product of characters",
                rec.passed, f"|diff|/se = {c['diff_over_se']:.2f}")
    assert ok, f"checks: {rec.checks}"


def test_criterion_06_clt2_desk_scale():
    rec = run_config("c06_clt2_group.json")
    ks = rec.aggregates["ks_distance"]
    ok = report(6, "normalized ||S_100||^2 is normal at index 1e5 (KS <= 0.02)",
                rec.passed, f"ks = {ks:.4f}, limit var = {rec.aggregates['limit_var']}")
    assert ok, f"ks = {ks}"


def test_criterion_07_large_index_covariance():
    rec = run_config("c07_cov_bessel.json")
    agg = rec.aggregates
    ok = report(7, "large-index walk covariance matches the squared-image covariance",
                rec.passed,
                f"max |diff|/se = {agg['max_diff_over_se']:.2f}, "
                f"mardia p = ({agg['mardia_skew_pvalue']:.3f}, {agg['mardia_kurt_pvalue']:.3f})")
    assert ok, f"aggregates: {agg}"


def test_criterion_08_clt1_desk_scale():
    rec = run_config("c08_clt1_group.json")
    ks = rec.aggregates["ks_distance"]
    sup_chi2 = rec.aggregates["sup_chi2_distance"]
    d5 = chi2_normal_gap(5)
    # (a) at fixed p the statistic tends to the standardized chi-square(p) law
    ok_fixed_p = sup_chi2 <= 0.02
    # (b) triangle inequality: |KS to N(0,1) - D_5| <= KS to chi-square(5)
    ok_gap = abs(ks - d5) <= sup_chi2
    # (c) the p -> infinity half: D_p ~ 1 / (3 sqrt(pi p)) -> 0
    ps = (5, 50, 500, 5000)
    gaps = [chi2_normal_gap(p) for p in ps]
    scaled = [g * math.sqrt(p) for p, g in zip(ps, gaps)]
    edgeworth = 1.0 / (3.0 * math.sqrt(math.pi))
    ok_decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok_rate = all(abs(v / edgeworth - 1.0) <= 0.01 for v in scaled)
    ok_limit = gaps[-1] < 0.003
    ok_warned = any("chi-square gap" in w for w in rec.warnings)
    ok = report(8, "CLT1 at p = 5: KS to chi2(5) <= 0.02, KS to N(0,1) = D_5 within it, "
                "D_p -> 0 like 1/(3 sqrt(pi p))",
                ok_fixed_p and ok_gap and ok_decreasing and ok_rate and ok_limit and ok_warned,
                f"ks chi2 = {sup_chi2:.4f}, ks normal = {ks:.4f}, D_5 = {d5:.4f}, "
                f"D_p sqrt(p) = {[round(v, 4) for v in scaled]}")
    assert ok_fixed_p, f"KS to standardized chi-square(5) is {sup_chi2:.4f} > 0.02"
    assert ok_gap, f"|KS to N(0,1) - D_5| = |{ks:.4f} - {d5:.4f}| > {sup_chi2:.4f}"
    assert ok_decreasing, f"D_p over p = {ps} is not strictly decreasing: {gaps}"
    assert ok_rate, f"D_p sqrt(p) = {scaled}, not within 1% of {edgeworth:.4f}"
    assert ok_limit, f"D_5000 = {gaps[-1]:.5f} >= 0.003"
    assert ok_warned, f"no chi-square gap warning in {rec.warnings}"


def test_criterion_09_wishart_route_covariance():
    rec = run_config("c09_clt3_group.json")
    agg = rec.aggregates
    ok = report(9, "Wishart-route statistic covariance matches 2 tr(B sigma2 B sigma2)",
                rec.passed, f"max |diff|/se = {agg['max_diff_over_se']:.2f}")
    assert ok, f"rows: {rec.rows}"


def test_criterion_10_distribution_function_rate():
    rec = run_config("c10_berry_esseen.json")
    slope = rec.aggregates["slope"]
    ok = report(10, "KS-to-chi2 distance decays with slope <= -0.35 at fixed p = 3",
                rec.passed,
                f"slope = {slope:.3f} +- {rec.aggregates['slope_se']:.3f}, "
                f"{rec.aggregates['included_points']} points above the noise floor")
    assert ok, f"aggregates: {rec.aggregates}"


def test_criterion_11_large_index_scaling():
    rec = run_config("c11_mu_scaling.json")
    c = rec.checks[0]
    ok = report(11, "composition gap shrinks like 1/sqrt(index): ratio in [1, 4]",
                rec.passed,
                f"gap({int(200)}) = {c['gap_mu']:.4f}, gap(800) = {c['gap_4mu']:.4f}, "
                f"ratio = {c['ratio']:.2f}")
    assert ok, f"checks: {rec.checks}"


def test_criterion_12_sampler_correctness():
    rec_k = run_config("c12a_kappa.json")
    rec_b = run_config("c12b_contraction_beta.json")
    ks = rec_b.checks[0]["ks"]
    worst = max(c["diff_over_se"] for c in rec_k.checks)
    ok = report(12, "normalization constant vs Hua's closed form; contraction law vs Beta CDF",
                rec_k.passed and rec_b.passed,
                f"kappa max |diff|/se = {worst:.2f}; beta KS = {ks:.4f} (<= 0.006)")
    assert ok, f"kappa: {rec_k.checks}, beta: {rec_b.checks}"


def test_criterion_13_determinism_across_workers(tmp_path):
    rec1 = run_config("c05_character.json", workers=1)
    rec16 = run_config("c05_character.json", workers=16)
    emit_outputs(rec1, tmp_path / "w1")
    emit_outputs(rec16, tmp_path / "w16")
    csv1 = (tmp_path / "w1" / "c05-character.csv").read_bytes()
    csv16 = (tmp_path / "w16" / "c05-character.csv").read_bytes()
    ok_csv = csv1 == csv16
    s1 = json.loads((tmp_path / "w1" / "c05-character.summary.json").read_text())
    s16 = json.loads((tmp_path / "w16" / "c05-character.summary.json").read_text())
    s1.pop("wall_time_s")
    s16.pop("wall_time_s")
    ok = report(13, "byte-identical outputs at worker counts 1 and 16",
                ok_csv and s1 == s16)
    assert ok


def test_acceptance_config_dir_is_complete():
    # one named, runnable config per criterion (12 covers two files)
    names = sorted(p.name for p in CONFIG_DIR.glob("*.json"))
    assert len(names) == 13
    for name in names:
        raw = json.loads((CONFIG_DIR / name).read_text())
        validate_config(raw)
