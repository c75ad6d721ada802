import math

import numpy as np
import pytest
from scipy import stats

from swipt_relay.channel import (
    FadingParams,
    sample_channels,
    sample_gains,
    substream,
)


class TestRngDeterminism:
    def test_same_seed_same_sequence(self):
        a = substream(42).random(1000)
        b = substream(42).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(42).random(1000)
        b = substream(43).random(1000)
        assert np.any(a != b)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 63])
    def test_root_stream_is_pcg64_of_the_seed(self, seed):
        # with no index path, substream(seed) is the plain PCG64(SeedSequence(seed)) stream
        plain = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        np.testing.assert_array_equal(substream(seed).random(1000), plain.random(1000))

    def test_zero_seed_is_a_valid_stream(self):
        draws = substream(0).random(1000)
        assert np.all((draws >= 0) & (draws < 1))
        assert np.std(draws) > 0.1  # not degenerate


class TestSubstreams:
    def test_distinct_indices_distinct_streams(self):
        a = substream(7, 0).random(10)
        b = substream(7, 1).random(10)
        assert np.any(a != b)

    def test_same_index_reproducible(self):
        a = substream(7, 0).random(10)
        b = substream(7, 0).random(10)
        np.testing.assert_array_equal(a, b)

    def test_no_collisions_over_1025_substreams(self):
        firsts = [substream(7, k).random() for k in range(1025)]
        assert len(set(firsts)) == 1025

    def test_nested_keys_distinct(self):
        a = substream(7, 0, 1).random(10)
        b = substream(7, 1, 0).random(10)
        assert np.any(a != b)


class TestExponentialSampling:
    def test_sample_mean_h(self):
        rng = substream(1)
        fading = FadingParams(lambda_h=1.5, lambda_g=1.5)
        h_sq, _ = sample_channels(rng, fading, 10**6)
        assert abs(h_sq.mean() - 1.5) < 0.005

    def test_sample_mean_g(self):
        rng = substream(2)
        fading = FadingParams(lambda_h=1.5, lambda_g=1.5)
        _, g_sq = sample_channels(rng, fading, 10**6)
        assert abs(g_sq.mean() - 1.5) < 0.005

    def test_empirical_median(self):
        rng = substream(3)
        h_sq = sample_gains(rng, 1.5, 10**6)
        expected = 1.5 * math.log(2)
        assert np.median(h_sq) == pytest.approx(expected, rel=0.01)

    def test_samples_strictly_positive(self):
        rng = substream(4)
        h_sq = sample_gains(rng, 0.001, 10**6)
        assert np.all(h_sq > 0)

    @pytest.mark.parametrize("lam", [0.5, 1.5, 5.0])
    def test_ks_against_exponential(self, lam):
        rng = substream(5)
        n = 10**5
        samples = sample_gains(rng, lam, n)
        stat = stats.kstest(samples, "expon", args=(0, lam)).statistic
        critical_1pct = 1.628 / math.sqrt(n)
        assert stat < critical_1pct

    def test_h_g_uncorrelated(self):
        rng = substream(6)
        fading = FadingParams(lambda_h=1.5, lambda_g=2.5)
        h_sq, g_sq = sample_channels(rng, fading, 10**5)
        corr = np.corrcoef(h_sq, g_sq)[0, 1]
        assert abs(corr) < 0.01

    @pytest.mark.parametrize("n", [1, 8, 1001, 1024, 4093, 1 << 16])
    def test_in_place_draws_equal_the_literal_formula(self, n):
        lam = 1.7
        u = substream(5, 2, 1).random(n)
        assert np.array_equal(sample_gains(substream(5, 2, 1), lam, n), -lam * np.log1p(-u))

    @pytest.mark.parametrize("n", [1, 1001, 1 << 16])
    def test_draws_into_out_return_it_with_the_same_bits(self, n):
        buf = np.full(n + 3, np.nan)[:n]  # a view, as the kernel's workspace rows are
        assert sample_gains(substream(5, 2, 2), 1.7, n, out=buf) is buf
        assert buf.tobytes() == sample_gains(substream(5, 2, 2), 1.7, n).tobytes()
        rows = np.full((2, n + 3), np.nan)[:, :n]
        fading = FadingParams(lambda_h=1.5, lambda_g=2.5)
        h_sq, g_sq = sample_channels(substream(5, 2, 3), fading, n, out=(rows[0], rows[1]))
        assert np.shares_memory(h_sq, rows[0]) and np.shares_memory(g_sq, rows[1])
        assert rows.tobytes() == np.array(sample_channels(substream(5, 2, 3), fading, n)).tobytes()

    def test_bit_identical_reproducibility(self):
        fading = FadingParams(lambda_h=1.5, lambda_g=1.5)
        a = sample_channels(substream(9), fading, 1000)
        b = sample_channels(substream(9), fading, 1000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestTypes:
    @pytest.mark.parametrize("lh,lg", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                       (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_fading_params_validated(self, lh, lg):
        with pytest.raises(ValueError):
            FadingParams(lambda_h=lh, lambda_g=lg)
