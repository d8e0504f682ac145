import numpy as np
import pytest

from perfbench.stats import TooFewSamplesError, median, min_samples, percentile


def test_tail_needs_ten_samples_beyond_it():
    assert min_samples(50) == 1
    assert min_samples(95) == 200
    assert min_samples(99) == 1000
    assert min_samples(90) == 100


def test_p95_refuses_short_samples():
    with pytest.raises(TooFewSamplesError):
        percentile(range(199), 95)
    values = list(range(200))
    beyond = [v for v in values if v > percentile(values, 95)]
    assert len(beyond) == 10


def test_percentile_interpolates_like_numpy():
    values = np.random.default_rng(0).exponential(size=500).tolist()
    for p in (50, 90, 95):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_pooled_timings_rest_on_every_window(capsys):
    from perfbench.common import pooled_timings

    # Neither window alone has the 200 samples a p95 needs; together they do.
    windows = [
        {"ttft": [float(v) for v in range(150)]},
        {"ttft": [float(v) for v in range(150, 300)]},
    ]
    pooled = pooled_timings(windows)
    everything = [float(v) for v in range(300)]
    assert pooled == {
        "ttft_p50_ms": percentile(everything, 50),
        "ttft_p95_ms": percentile(everything, 95),
    }
    printed = capsys.readouterr().out
    assert "ttft_p50_ms" in printed and "ttft_p95_ms" not in printed
