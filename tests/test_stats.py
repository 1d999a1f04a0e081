import pytest

from defectlab.stats import FailureEstimate, wilson_interval


@pytest.mark.parametrize("trials", [1, 2, 7, 100, 10_000])
def test_wilson_interval_holds_the_estimate_at_the_edges(trials):
    for successes in sorted({0, 1, trials - 1, trials}):
        est = FailureEstimate.from_counts(successes, trials)
        assert est.ci_low <= est.value <= est.ci_high
    assert wilson_interval(0, trials)[0] == 0.0
    assert wilson_interval(trials, trials)[1] == 1.0


def test_wilson_interval_is_open_inside():
    lo, hi = wilson_interval(1, 10_000)
    assert 0.0 < lo < 1e-4 < hi < 1.0
