import pytest

from schurlab import run_suite
from schurlab.verify import SUITE_NAMES


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_clean_at_small_scale(suite):
    report = run_suite(suite, trials=25, seed=17)
    assert report.failures == [], [f.case for f in report.failures[:5]]
    assert report.cases > 0
    assert report.suite == suite


def test_all_runs_every_suite():
    individual = sum(run_suite(s, trials=5, seed=2).cases for s in SUITE_NAMES)
    combined = run_suite("all", trials=5, seed=2)
    assert combined.cases == individual
    assert combined.failures == []


def test_reports_are_reproducible():
    a = run_suite("thm21", trials=30, seed=4)
    b = run_suite("thm21", trials=30, seed=4)
    assert a.failures == b.failures
    assert a.cases == b.cases


def test_seed_changes_instances():
    # different seeds must draw different instances, same verdicts
    a = run_suite("completion", trials=10, seed=1)
    b = run_suite("completion", trials=10, seed=2)
    assert a.failures == b.failures == []


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", trials=1, seed=0)


def test_report_serialization():
    report = run_suite("extreme", trials=5, seed=0)
    payload = report.to_dict()
    assert set(payload) == {"suite", "trials", "seed", "cases", "failures", "timing"}
    assert payload["failures"] == []
