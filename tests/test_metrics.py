import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singersep.errors import DegenerateInputError
from singersep.metrics import (
    SENTINEL_DB,
    improvement,
    pit_evaluate,
    sdr,
    si_snr,
)


class TestSiSnr:
    def test_exact_match_is_sentinel(self):
        x = np.array([0.3, -0.2, 0.5, -0.6])
        assert si_snr(x, x) == SENTINEL_DB

    def test_frozen_zero_db_case(self):
        # projection equals ref, residual energy equals target energy
        ref = np.array([1.0, 0.0, -1.0, 0.0])
        est = np.array([1.0, 1.0, -1.0, -1.0])
        assert si_snr(ref, est) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariant_by_construction(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(500)
        est = ref + 0.2 * rng.standard_normal(500)
        assert si_snr(ref, 5.0 * est) == pytest.approx(si_snr(ref, est), abs=1e-9)

    def test_zero_variance_reference(self):
        with pytest.raises(DegenerateInputError):
            si_snr(np.full(10, 0.5), np.arange(10.0))

    def test_zero_variance_estimate(self):
        with pytest.raises(DegenerateInputError):
            si_snr(np.arange(10.0), np.zeros(10))

    def test_length_mismatch(self):
        with pytest.raises(DegenerateInputError):
            si_snr(np.arange(4.0), np.arange(5.0))

    def test_one_sample_rejected(self):
        with pytest.raises(DegenerateInputError, match="at least 2 samples"):
            si_snr(np.array([0.5]), np.array([0.5]))

    def test_monotonic_in_noise(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal(2000)
        noise = rng.standard_normal(2000)
        values = [si_snr(ref, ref + sigma * noise) for sigma in (0.01, 0.1, 1.0)]
        assert values[0] > values[1] > values[2]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(0, 2 ** 31 - 1))
    def test_scale_invariance_property(self, alpha, seed):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(64)
        est = rng.standard_normal(64)
        assert abs(si_snr(ref, alpha * est) - si_snr(ref, est)) <= 1e-6


class TestSdr:
    def test_exact_match_is_sentinel(self):
        x = np.array([0.1, 0.2, 0.3])
        assert sdr(x, x) == SENTINEL_DB

    def test_zero_estimate_gives_zero_db(self):
        ref = np.array([0.5, -0.25, 0.125])
        assert sdr(ref, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_energy_ratio(self):
        # ||ref||^2 / ||ref-est||^2 = 2/1
        assert sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            10 * np.log10(2.0), abs=1e-12)

    def test_zero_reference(self):
        with pytest.raises(DegenerateInputError):
            sdr(np.zeros(5), np.ones(5))


class TestImprovement:
    def test_estimate_equals_mixture_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(200)
        mix = ref + rng.standard_normal(200)
        assert improvement(si_snr, ref, mix, mix) == 0.0
        assert improvement(sdr, ref, mix, mix) == 0.0

    def test_estimate_equals_reference_is_sentinel(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(200)
        mix = ref + rng.standard_normal(200)
        assert improvement(si_snr, ref, ref, mix) == SENTINEL_DB

    def test_oracle_plus_noise_improves(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000)
        mix = a + b
        est = a + 0.1 * rng.standard_normal(4000)  # ~20 dB estimate
        assert improvement(si_snr, a, est, mix) > 0
        assert improvement(sdr, a, est, mix) > 0


class TestPitEvaluate:
    def test_swapped_estimates_recovered(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        result = pit_evaluate((a, b), (b, a), a + b)
        assert result.mean.permutation == {0: 1, 1: 0}
        assert result.mean.si_snr_db == SENTINEL_DB

    def test_in_order_estimates_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        result = pit_evaluate((a, b), (a, b), a + b)
        assert result.mean.permutation == {0: 0, 1: 1}

    def test_permutation_is_brute_force_max(self):
        # independent re-evaluation of both assignments
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal(256)
            b = rng.standard_normal(256)
            mix = a + b
            e0 = mix + 0.3 * rng.standard_normal(256)
            e1 = mix + 0.3 * rng.standard_normal(256)
            result = pit_evaluate((a, b), (e0, e1), mix)
            ident = (si_snr(a, e0) + si_snr(b, e1)) / 2
            swap = (si_snr(b, e0) + si_snr(a, e1)) / 2
            expected = max(ident, swap)
            assert result.mean.si_snr_db == pytest.approx(expected, abs=1e-9)

    def test_improvements_present_per_source(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        mix = a + b
        result = pit_evaluate((a, b), (a + 0.05 * rng.standard_normal(500),
                                       b + 0.05 * rng.standard_normal(500)), mix)
        for rep in result.per_source:
            assert rep.si_snri_db > 0
            assert rep.sdri_db > 0
