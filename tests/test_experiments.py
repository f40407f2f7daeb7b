import itertools

import pytest

from sparsecore import (
    ExperimentConfig,
    run_core_census,
    run_failure_probability,
    run_solver_validation,
    wilson_interval,
)
from sparsecore import experiments
from sparsecore.sampling import candidate_clauses


def test_wilson_interval_behaviour():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    mid = wilson_interval(5, 1000)
    assert mid[0] < 5 / 1000 < mid[1]
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_alpha_zero_never_fails():
    report = run_failure_probability(
        ExperimentConfig(kind="pl-fail", n=20, r=3, alpha=0.0, trials=500, seed=1))
    assert report.failures == 0 and report.rate == 0.0


def test_reports_identical_across_worker_counts():
    base = dict(kind="pl-fail", n=20, r=3, alpha=1.0, trials=3000, seed=11, batch_size=400)
    one = run_failure_probability(ExperimentConfig(**base, workers=1))
    two = run_failure_probability(ExperimentConfig(**base, workers=2))
    assert one.failures == two.failures
    assert one.rate == two.rate


def test_census_identical_across_worker_counts(full_catalog_r3):
    base = dict(kind="pl-fail", n=18, r=3, alpha=1.0, trials=2500, seed=23,
                batch_size=300, catalog=full_catalog_r3)
    one = run_core_census(ExperimentConfig(**base, workers=1))
    two = run_core_census(ExperimentConfig(**base, workers=2))
    assert one.census == two.census
    assert (one.other_count, one.large_core_count) == (two.other_count, two.large_core_count)
    assert one.failures > 0 and one.sanity_checks >= 1
    assert one.sanity_checks == two.sanity_checks


def test_failure_rate_monotone_in_alpha():
    counts = []
    for alpha in (0.5, 0.8, 1.1):
        report = run_failure_probability(
            ExperimentConfig(kind="pl-fail", n=25, r=3, alpha=alpha, trials=3000, seed=99))
        counts.append(report.failures)
    assert counts[0] <= counts[1] <= counts[2]


def test_census_counts_add_up(full_catalog_r3):
    config = ExperimentConfig(kind="pl-fail", n=25, r=3, alpha=1.1, trials=4000, seed=5,
                              catalog=full_catalog_r3)
    report = run_core_census(config)
    assert report.failures > 0
    total = sum(report.census.values()) + report.other_count + \
        report.large_core_count + report.census_excluded
    assert total == report.failures
    assert report.sanity_checks >= 1
    assert set(report.census) <= {e.iso_key.decode() for e in full_catalog_r3.entries}
    assert report.predicted_census is not None
    assert sum(report.predicted_census.values()) == pytest.approx(1.0)
    assert report.tv_distance is not None and 0 <= report.tv_distance <= 1


def test_census_exclusion_filter(full_catalog_r3):
    base = dict(kind="pl-fail", n=25, r=3, alpha=1.1, trials=4000, seed=5,
                catalog=full_catalog_r3)
    plain = run_core_census(ExperimentConfig(**base))
    filtered = run_core_census(ExperimentConfig(**base, exclude_below_excess=2))
    assert filtered.census_excluded > 0
    # excluded trials all contained the excess-1 class, so its census count drops
    key1 = [e for e in full_catalog_r3.entries if e.excess == 1][0].iso_key.decode()
    assert filtered.census.get(key1, 0) == 0
    assert plain.failures == filtered.failures


def test_kcore_census_matches_expectations(dense_catalog_k3):
    config = ExperimentConfig(kind="kcore", n=25, r=2, k=3, alpha=2.2, trials=6000,
                              seed=17, catalog=dense_catalog_k3)
    report = run_core_census(config)
    assert report.failures > 0
    k4_key = dense_catalog_k3.entries[0].iso_key.decode()
    assert report.census.get(k4_key, 0) > 0
    assert report.sanity_checks >= 1
    assert report.predicted is not None and report.ratio is not None


def test_unsat_kind_runs_solver_on_core():
    report = run_failure_probability(
        ExperimentConfig(kind="unsat", n=12, r=3, alpha=1.2, trials=2000, seed=13))
    # unsatisfiable instances are rarer than pure-literal failures
    plain = run_failure_probability(
        ExperimentConfig(kind="pl-fail", n=12, r=3, alpha=1.2, trials=2000, seed=13))
    assert report.failures <= plain.failures


def test_solver_validation_agrees(tmp_path):
    report = run_solver_validation(
        ExperimentConfig(kind="sat", n=9, r=3, alpha=1.0, trials=400, seed=3))
    assert report.agreement_rate == 1.0
    assert report.witness_failures == 0
    report = run_solver_validation(
        ExperimentConfig(kind="coloring", n=8, r=2, k=3, alpha=2.5, trials=300, seed=3))
    assert report.agreement_rate == 1.0
    assert report.witness_failures == 0


def test_zero_trials_is_an_empty_report():
    report = run_solver_validation(
        ExperimentConfig(kind="sat", n=9, r=3, alpha=1.0, trials=0, seed=3))
    assert report.trials == 0 and report.agreement_rate is None


def test_validation_size_caps():
    with pytest.raises(ValueError):
        run_solver_validation(
            ExperimentConfig(kind="sat", n=19, r=3, alpha=1.0, trials=10, seed=1))
    with pytest.raises(ValueError):
        run_solver_validation(
            ExperimentConfig(kind="coloring", n=14, r=2, k=3, alpha=1.0, trials=10, seed=1))


def test_report_serialization(full_catalog_r3, tmp_path):
    config = ExperimentConfig(kind="pl-fail", n=20, r=3, alpha=1.0, trials=500, seed=2,
                              catalog=full_catalog_r3)
    report = run_core_census(config)
    data = report.to_json_dict()
    assert data["format_version"] == 1
    assert "config" in data and data["config"]["n"] == 20
    assert data["sanity_checks"] == report.sanity_checks
    csv = report.to_csv()
    assert csv.startswith("config,statistic,value")
    assert "rate," in csv
    assert f"sanity_checks,{report.sanity_checks}" in csv


def test_key_memo_is_bounded():
    memo = experiments._memo_key
    cap = memo.cache_info().maxsize
    assert cap is not None and cap >= 1000  # room for every small core of a census process
    memo.cache_clear()
    for clauses in itertools.islice(itertools.combinations(candidate_clauses(4, 3), 3),
                                    cap + 50):
        memo("sat", 4, clauses)
    assert memo.cache_info().currsize == cap
