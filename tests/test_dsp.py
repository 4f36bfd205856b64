import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from conftest import random_stable_model, separated_stable_model, two_formant_voice
from rhythmkit import dsp
from rhythmkit.errors import ShapeMismatchError, TooShortError, UnstableFrameError
from rhythmkit.features import FeatureConfig
from rhythmkit.glottal import IaifConfig


class TestFraming:
    def test_frame_count(self):
        frames = dsp.frame_signal(np.zeros(480), dsp.FrameSpec(320, 160))
        assert frames.shape == (2, 320)

    @pytest.mark.parametrize("spec", [
        IaifConfig().frame_spec(16000),
        FeatureConfig().frame,
        dsp.FrameSpec(800, 200),  # a non-default Griffin-Lim frame
    ], ids=["iaif", "features", "griffin-lim"])
    def test_frames_are_read_only_raw_views(self, spec):
        x = np.arange(3.0 * spec.win_length)
        frames = dsp.frame_signal(x, spec)
        assert np.shares_memory(frames, x)
        assert not frames.flags.writeable
        for i, frame in enumerate(frames):
            start = i * spec.hop_length
            assert np.array_equal(frame, x[start : start + spec.win_length])

    def test_too_short(self):
        with pytest.raises(TooShortError):
            dsp.frame_signal(np.zeros(319), dsp.FrameSpec(320, 160))

    def test_trailing_samples_dropped(self):
        frames = dsp.frame_signal(np.zeros(480 + 159), dsp.FrameSpec(320, 160))
        assert frames.shape[0] == 2

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            dsp.FrameSpec(320, 0)
        with pytest.raises(ValueError):
            dsp.FrameSpec(320, 321)


class TestOverlapAdd:
    def test_single_frame_round_trips(self):
        spec = dsp.FrameSpec(64, 32)
        x = np.linspace(-1, 1, 64)
        out = dsp.overlap_add(dsp.frame_signal(x, spec) * spec.window_array(), spec)
        assert out[0] == 0.0  # the window's zero meets the envelope floor
        assert np.allclose(out[1:], x[1:], rtol=1e-12, atol=1e-12)

    def test_cola_round_trip_interior(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        spec = dsp.FrameSpec(512, 256)
        out = dsp.overlap_add(dsp.frame_signal(x, spec) * spec.window_array(), spec)
        interior = slice(512, len(out) - 512)
        err = np.abs(out[interior] - x[interior]) / np.max(np.abs(x))
        assert err.max() < 1e-10

    def test_output_length(self):
        spec = dsp.FrameSpec(320, 160)
        out = dsp.overlap_add(np.zeros((5, 320)), spec)
        assert len(out) == 4 * 160 + 320

    @pytest.mark.parametrize("win,hop", [(8, 8), (10, 3), (64, 16), (7, 1)])
    def test_matches_per_frame_loop(self, win, hop):
        rng = np.random.default_rng(win * hop)
        spec = dsp.FrameSpec(win, hop)
        frames = rng.standard_normal((9, win))
        out = np.zeros((9 - 1) * hop + win)
        env = np.zeros_like(out)
        for i, frame in enumerate(frames):  # reference: one add per frame
            out[i * hop : i * hop + win] += frame
            env[i * hop : i * hop + win] += spec.window_array()
        ref = out / np.maximum(env, dsp.OLA_ENVELOPE_FLOOR)
        assert np.allclose(dsp.overlap_add(frames, spec), ref, rtol=1e-12, atol=1e-12)
        # Block-wise accumulation at frame offsets sums to the same signal.
        blocks = np.zeros_like(out)
        for start in range(0, 9, 4):
            dsp.ola_accumulate(blocks[start * hop :], frames[start : start + 4], hop)
        assert np.allclose(blocks, out, rtol=1e-12, atol=1e-12)

    def test_mixed_lengths_rejected(self):
        spec = dsp.FrameSpec(4, 2)
        with pytest.raises(ShapeMismatchError):
            dsp.overlap_add(np.array([np.zeros(4), np.zeros(3)], dtype=object), spec)
        with pytest.raises(ShapeMismatchError):
            dsp.overlap_add(np.zeros((2, 5)), spec)


class TestAutocorrelation:
    def test_unit_impulse(self):
        x = np.zeros(16)
        x[0] = 1.0
        r = dsp.autocorrelation(x, 5)
        assert r[0] == pytest.approx(1.0)
        assert np.all(r[1:] == 0.0)

    def test_zeros(self):
        assert np.all(dsp.autocorrelation(np.zeros(16), 5) == 0.0)

    def test_sine_period_peak(self):
        n = np.arange(320)
        x = np.sin(2 * np.pi * 100.0 * n / 16000.0)
        r = dsp.autocorrelation(x, 240)
        assert 80 + np.argmax(r[80:241]) == 160

    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        r = dsp.autocorrelation(x, 10)
        expect = [sum(x[i] * x[i + k] for i in range(64 - k)) for k in range(11)]
        assert np.allclose(r, expect, rtol=1e-12)

    def test_lag_too_large(self):
        with pytest.raises(ShapeMismatchError, match="max_lag=16 must be below frame length 16"):
            dsp.autocorrelation(np.zeros(16), 16)


class TestLevinsonDurbin:
    def test_white_process(self):
        model = dsp.levinson_durbin(np.array([1.0, 0, 0, 0, 0]), 4)
        assert np.allclose(model.coeffs, 0.0)
        assert model.gain == pytest.approx(1.0, abs=1e-5)
        assert np.all(np.abs(model.reflections) < 1.0)

    def test_ar1_closed_form(self):
        model = dsp.levinson_durbin(np.array([1.0, 0.9]), 1)
        assert model.coeffs[0] == pytest.approx(-0.9, rel=1e-4)
        assert model.gain**2 == pytest.approx(0.19, rel=1e-3)

    def test_ar8_recovery(self):
        # Oracle: the known synthesis filter the signal was generated with.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            truth = separated_stable_model(rng, 4)
            x = dsp.allpole_filter(rng.standard_normal(16000), truth)
            model = dsp.levinson_durbin(dsp.autocorrelation(x, 8), 8)
            assert np.max(np.abs(model.coeffs - truth.coeffs)) < 0.05

    def test_unstable_input_raises(self):
        with pytest.raises(UnstableFrameError):
            dsp.levinson_durbin(np.array([1.0, 1.2]), 1)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            dsp.levinson_durbin(np.zeros(3), 2)

    def test_too_few_lags_rejected(self):
        with pytest.raises(ShapeMismatchError, match="need 5 autocorrelation lags per row"):
            dsp.levinson_durbin(np.array([1.0, 0.5]), 4)
        with pytest.raises(ShapeMismatchError, match="need 3 autocorrelation lags per row"):
            dsp.levinson_durbin(np.array([]), 2)

    def test_minimum_phase_on_random_frames(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(256) * rng.uniform(1e-6, 10.0)
            model = dsp.levinson_durbin(dsp.autocorrelation(x, 12), 12)
            assert np.all(np.abs(model.reflections) < 1.0)


class TestFilters:
    def test_order0_inverse_is_identity(self):
        x = np.linspace(-1, 1, 32)
        identity = dsp.LpcModel(coeffs=np.zeros(0), gain=0.0)
        assert np.array_equal(dsp.inverse_filter(x, identity), x)

    def test_model_is_its_coefficients(self):
        names = [f.name for f in dataclasses.fields(dsp.LpcModel)]
        assert names == ["coeffs", "gain", "reflections"]
        with pytest.raises(ValueError, match="1-D"):
            dsp.LpcModel(coeffs=np.zeros((2, 2)), gain=1.0)

    def test_allpole_then_inverse_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            order = rng.integers(1, 13)
            model = random_stable_model(rng, int(order))
            x = rng.standard_normal(400)
            y = dsp.inverse_filter(dsp.allpole_filter(x, model), model)
            z = dsp.allpole_filter(dsp.inverse_filter(x, model), model)
            scale = np.max(np.abs(x))
            assert np.max(np.abs(y - x)) / scale < 1e-9
            assert np.max(np.abs(z - x)) / scale < 1e-9

    def test_ar1_impulse_response(self):
        model = dsp.LpcModel(coeffs=np.array([-0.9]), gain=1.0)
        e = np.zeros(20)
        e[0] = 1.0
        assert np.allclose(dsp.allpole_filter(e, model), 0.9 ** np.arange(20))

    def test_inverse_filter_definition(self):
        model = dsp.LpcModel(coeffs=np.array([-0.9]), gain=1.0)
        x = np.zeros(4)
        x[0] = 1.0
        assert np.allclose(dsp.inverse_filter(x, model), [1.0, -0.9, 0.0, 0.0])

    def test_zero_input_zero_output(self):
        model = dsp.LpcModel(coeffs=np.array([-0.5, 0.06]), gain=1.0)
        assert np.all(dsp.allpole_filter(np.zeros(16), model) == 0.0)


class TestLeakyIntegrate:
    def test_inverts_differentiator(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = rng.uniform(0.5, 0.999)
            x = rng.standard_normal(300)
            diff = x - d * np.concatenate([[0.0], x[:-1]])
            back = dsp.leaky_integrate(diff, d)
            assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9

    def test_impulse_response(self):
        x = np.zeros(50)
        x[0] = 1.0
        assert np.allclose(dsp.leaky_integrate(x, 0.99), 0.99 ** np.arange(50))

    def test_zero_input(self):
        assert np.all(dsp.leaky_integrate(np.zeros(10), 0.9) == 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            dsp.leaky_integrate(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            dsp.leaky_integrate(np.zeros(4), 1.5)


def _resample_oracle(x, factor):
    """Brute-force per-position linear interpolation, scalar python arithmetic."""
    length = len(x)
    out_len = max(1, int(np.floor(length * factor + 0.5)))
    if out_len == 1:
        return [float(x[0])]
    out = []
    for i in range(out_len):
        if length == 1:
            out.append(float(x[0]))
            continue
        pos = i * (length - 1) / (out_len - 1)
        lo = min(int(pos), length - 2)
        frac = pos - lo
        out.append(float(x[lo] + frac * (x[lo + 1] - x[lo])))
    return out


@pytest.mark.parametrize("call, error, message", [
    (lambda: dsp.LpcModel(coeffs=np.array([np.nan]), gain=1.0), ValueError,
     "LPC coefficients must be finite"),
    (lambda: dsp.LpcModel(coeffs=np.zeros(2), gain=-1.0), ValueError,
     "gain must be finite and nonnegative, got -1.0"),
    (lambda: dsp.overlap_add(np.zeros((0, 4)), dsp.FrameSpec(4, 2)), ShapeMismatchError,
     "overlap_add needs a non-empty 2-D frame stack"),
    (lambda: dsp.inverse_filter_rows(np.zeros((3, 10)), np.zeros((2, 4))), ValueError,
     "2 coefficient rows do not match padded rows of shape (3, 10)"),
    (lambda: dsp.linear_resample(np.zeros((2, 2, 2)), 1.5), ValueError,
     "expected 1-D or 2-D input, got ndim=3"),
    (lambda: dsp.linear_resample(np.zeros(0), 1.5), ValueError,
     "cannot resample an empty sequence"),
], ids=["nan-coeffs", "negative-gain", "overlap-add-no-frames", "inverse-filter-row-count",
        "resample-3-d", "resample-empty"])
def test_bad_input_rejected(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestLinearResample:
    def test_identity_factor_bit_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(33)
        x[5] = -0.0
        assert dsp.linear_resample(x, 1.0).tobytes() == x.tobytes()
        m = rng.standard_normal((17, 4))
        m[3, 2] = -0.0
        assert dsp.linear_resample(m, 1.0).tobytes() == m.tobytes()

    def test_two_point_stretch(self):
        assert np.allclose(dsp.linear_resample(np.array([0.0, 1.0]), 1.5), [0.0, 0.5, 1.0])

    def test_downsample_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20)
        out = dsp.linear_resample(x, 0.5)
        assert len(out) == 10
        assert np.allclose(out, _resample_oracle(x, 0.5), rtol=1e-12, atol=1e-12)
        assert out.min() >= x.min() and out.max() <= x.max()

    def test_random_factors_match_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            factor = float(rng.uniform(0.2, 3.0))
            x = rng.standard_normal(n)
            out = dsp.linear_resample(x, factor)
            assert np.allclose(out, _resample_oracle(x, factor), rtol=1e-12, atol=1e-12)
            assert out.min() >= x.min() - 0.0 and out.max() <= x.max() + 0.0

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(11)
        for factor in (0.3, 0.77, 1.9):
            out = dsp.linear_resample(x, factor)
            assert out[0] == x[0]
            assert out[-1] == x[-1]

    @pytest.mark.parametrize("rows, factor", [(9, 1.4), (1, 3.0), (5, 0.1), (7, 1.0)],
                             ids=["stretch", "grow-from-one-row", "collapse-to-one-row",
                                  "identity"])
    def test_columns_resampled_independently(self, rows, factor):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((rows, 3))
        out = dsp.linear_resample(m, factor)
        for col in range(3):
            column = dsp.linear_resample(m[:, col], factor)
            assert out.shape == (len(column), 3)
            assert out[:, col].tobytes() == column.tobytes()

    def test_collapse_and_expand_edges(self):
        x = np.array([3.0, -1.0, 5.0])
        assert np.array_equal(dsp.linear_resample(x, 0.2), [3.0])
        assert np.array_equal(dsp.linear_resample(np.array([2.5]), 4.0), [2.5] * 4)

    def test_length_rule_half_away_from_zero(self):
        assert dsp.resampled_length(3, 0.5) == 2  # 1.5 rounds away from zero
        assert dsp.resampled_length(1, 0.2) == 1  # floor at 1
        assert dsp.resampled_length(20, 0.5) == 10
        assert dsp.resampled_length(5, 1.1) == 6  # 5.5 -> 6

    def test_length_past_float_range_overflows(self):
        # L*r is inf: no buffer that long could be allocated, so no length is returned.
        for length, factor in ((3, 1e308), (2, np.finfo(float).max)):
            with pytest.raises(OverflowError):
                dsp.resampled_length(length, factor)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.inf, np.nan])
    def test_length_rule_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError, match="resampling factor must be positive and finite"):
            dsp.resampled_length(10, factor)


# -- frame-batched kernels against the 1-D calls and the loop references ------

def _autocorrelation_loop(frame, max_lag):
    """Reference: one dot product per lag."""
    n = len(frame)
    return np.array([np.dot(frame[: n - k], frame[k:]) for k in range(max_lag + 1)])


def _levinson_loop(r, order):
    """Reference: scalar Levinson-Durbin; (coeffs, reflections) or None when unstable."""
    a = np.zeros(order)
    ks = np.zeros(order)
    err = r[0] * (1.0 + dsp.AUTOCORR_REG)
    for i in range(1, order + 1):
        k = -(r[i] + np.dot(a[: i - 1], r[i - 1 : 0 : -1])) / err
        if not abs(k) < 1.0:
            return None
        ks[i - 1] = k
        head = a[: i - 1].copy()
        a[: i - 1] = head + k * head[::-1]
        a[i - 1] = k
        err *= 1.0 - k * k
    return a, ks


@st.composite
def frame_stacks(draw, min_len=8, max_len=64):
    """(rows, n) float stacks whose rows span many scales, some rows all zero."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(min_len, max_len))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 2, size=(rows, 1))
    x = rng.standard_normal((rows, n)) * scale
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    x[np.array(zero)] = 0.0
    return x


def _close(a, b, scale):
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * scale)


class TestBatchedRows:
    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(), st.integers(0, 7))
    def test_autocorrelation_rows(self, x, max_lag):
        r = dsp.autocorrelation(x, max_lag)
        assert r.shape == (x.shape[0], max_lag + 1)
        for i, row in enumerate(x):
            scale = max(np.dot(row, row), 1e-300)
            _close(r[i], dsp.autocorrelation(row, max_lag), scale)
            _close(r[i], _autocorrelation_loop(row, max_lag), scale)

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(min_len=20), st.integers(1, 12))
    def test_levinson_rows_on_frames(self, x, order):
        self._check_levinson(dsp.autocorrelation(x, order), order)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
    def test_levinson_rows_on_arbitrary_lags(self, seed, rows, order):
        # Arbitrary lag vectors, often not positive definite: exercises the
        # unstable mask next to silent (r[0] <= 0) rows.
        rng = np.random.default_rng(seed)
        r = rng.uniform(-1.0, 1.0, size=(rows, order + 1))
        r[:, 0] = rng.choice([0.0, -0.5, 1.0, 3.0], size=rows)
        self._check_levinson(r, order)

    def _check_levinson(self, r, order):
        batch = dsp.levinson_rows(r, order)
        assert batch.coeffs.shape == batch.reflections.shape == (len(r), order)
        # Row-major, as inverse_filter_rows reads each row's taps.
        assert batch.coeffs.flags.c_contiguous and batch.reflections.flags.c_contiguous
        for i, row in enumerate(r):
            if not row[0] > 0.0:
                assert not batch.unstable[i]
                assert np.all(batch.coeffs[i] == 0.0) and batch.gain[i] == 0.0
                with pytest.raises(ValueError):
                    dsp.levinson_durbin(row, order)
                continue
            ref = _levinson_loop(row, order)
            if ref is None or batch.unstable[i]:
                assert ref is None and batch.unstable[i]
                assert np.all(batch.coeffs[i] == 0.0)
                with pytest.raises(UnstableFrameError):
                    dsp.levinson_durbin(row, order)
                continue
            model = dsp.levinson_durbin(row, order)
            assert np.array_equal(batch.coeffs[i], model.coeffs)
            assert np.array_equal(batch.reflections[i], model.reflections)
            assert batch.gain[i] == model.gain
            np.testing.assert_allclose(batch.coeffs[i], ref[0], rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(batch.reflections[i], ref[1], rtol=1e-7, atol=1e-9)

    @staticmethod
    def _lags(ks, tail):
        """Lags whose recursion meets the reflections ks in turn (the step-up
        recursion, err as levinson_rows keeps it), then the lags in tail."""
        err = 1.0 + dsp.AUTOCORR_REG
        r, a = [1.0], np.zeros(0)
        for k in ks:
            r.append(-k * err - np.dot(a, r[:0:-1]))
            a = np.append(a + k * a[::-1], k)
            err *= 1.0 - k * k
        return np.array(r + list(tail))

    @pytest.mark.parametrize("order", [1, 8, 18])
    def test_levinson_rows_on_adversarial_stacks(self, order):
        # |k| = 1 exactly (err reaches 0, then 0/0 and x/0), |k| > 1 and a k
        # whose square overflows, each at the first, middle and last order
        # step, beside stable and silent rows; exact k = +-1 needs the steps
        # before it to be k = 0.
        rng = np.random.default_rng(order)
        steps = sorted({1, (order + 1) // 2, order})
        stable = [self._lags(rng.uniform(-0.9, 0.9, order), []) for _ in range(2)]
        silent = [np.r_[0.0, rng.uniform(-1, 1, order)], np.r_[-0.5, rng.uniform(-1, 1, order)]]
        cases = []  # (lags, step of the first bad k, that k or None where inexact)
        for m in steps:
            tail = rng.uniform(-1.0, 1.0, order - m)
            for k in (1.0, -1.0):
                cases.append((self._lags([0.0] * (m - 1) + [k], tail), m, k))
            for k in (1.5, -3.0, 1e200):
                cases.append((self._lags(list(rng.uniform(-0.9, 0.9, m - 1)) + [k], tail), m, None))
        nan_lag = np.r_[1.0, np.zeros(order)]
        nan_lag[steps[-1]] = np.nan
        cases.append((nan_lag, steps[-1], np.nan))
        r = np.array(stable[:1] + silent[:1] + [c[0] for c in cases] + silent[1:] + stable[1:])
        with np.errstate(over="warn", divide="warn", invalid="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = dsp.levinson_rows(r, order)

        for i in (0, len(r) - 1):
            model = dsp.levinson_durbin(r[i], order)
            assert not batch.unstable[i]
            assert np.array_equal(batch.coeffs[i], model.coeffs)
            assert np.array_equal(batch.reflections[i], model.reflections)
            assert batch.gain[i] == model.gain
        for i in (1, len(r) - 2):
            assert not batch.unstable[i] and batch.gain[i] == 0.0
            for field in (batch.coeffs[i], batch.reflections[i]):
                assert np.all(field == 0.0) and not np.signbit(field).any()
        for i, (_, m, k) in enumerate(cases, start=2):
            assert batch.unstable[i]
            assert np.all(batch.coeffs[i] == 0.0) and batch.gain[i] == 0.0
            ks = batch.reflections[i]
            if m > 1:  # the steps before the first bad k are a stable model
                prefix = dsp.levinson_durbin(r[i, :m], m - 1).reflections
                assert np.array_equal(ks[: m - 1], prefix)
            if k is None:
                assert not abs(ks[m - 1]) < 1.0
            else:
                assert np.array_equal(ks[m - 1], k, equal_nan=True)
            assert np.all(ks[m:] == 0.0) and not np.signbit(ks[m:]).any()

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_inverse_filter_rows(self, x, order, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, size=(x.shape[0], order))
        e = dsp.inverse_filter_rows(np.pad(x, ((0, 0), (order, 0))), coeffs)
        assert e.shape == x.shape
        for i, row in enumerate(x):
            model = dsp.LpcModel(coeffs=coeffs[i], gain=1.0)
            scale = max(np.max(np.abs(row)), 1e-300) * (1.0 + np.sum(np.abs(coeffs[i])))
            _close(e[i], dsp.inverse_filter(row, model), scale)
            _close(e[i], lfilter(np.concatenate(([1.0], coeffs[i])), [1.0], row), scale)

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(), st.integers(1, 18), st.integers(0, 2**32 - 1))
    def test_one_coefficient_matches_einsum_bitwise(self, x, history, seed):
        # IAIF's tilt stage filters a strided column slice of a block padded
        # for the vocal tract; its two-term form must be the einsum's sum.
        coeffs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(x.shape[0], 1))
        padded = np.pad(x, ((0, 0), (history, 0)))[:, history - 1 :]
        taps = np.concatenate([coeffs, np.ones_like(coeffs)], axis=1)
        einsum = np.einsum("jnm,jm->jn", sliding_window_view(padded, 2, axis=1), taps)
        assert np.array_equal(dsp.inverse_filter_rows(padded, coeffs), einsum)

    @settings(max_examples=60, deadline=None)
    @given(
        frame_stacks(),
        st.integers(0, 18),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 2**32 - 1),
    )
    def test_integration_commutes_with_inverse_filter(self, x, order, d, seed):
        # IAIF integrates each block once and inverse-filters the integral,
        # which rests on the two zero-state filters commuting.
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, size=(x.shape[0], order))
        padded = np.pad(x, ((0, 0), (order, 0)))
        filter_first = dsp.leaky_integrate(dsp.inverse_filter_rows(padded, coeffs), d)
        integrate_first = dsp.inverse_filter_rows(dsp.leaky_integrate(padded, d), coeffs)
        for i, row in enumerate(x):
            # |integral| <= max|row| / (1 - d), and each tap adds |a_k| of it.
            gain = (1.0 + np.sum(np.abs(coeffs[i]))) / (1.0 - d)
            scale = max(np.max(np.abs(row)), 1e-300) * gain
            _close(integrate_first[i], filter_first[i], scale)

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(), st.integers(0, 18), st.floats(0.01, 1.0))
    def test_integration_keeps_zero_history_zero(self, x, pad, d):
        y = dsp.leaky_integrate(np.pad(x, ((0, 0), (pad, 0))), d)
        assert np.all(y[:, :pad] == 0.0)
        assert np.array_equal(y[:, pad:], dsp.leaky_integrate(x, d))


class TestDotPathAtProductionShapes:
    """The autocorrelation and Levinson dot products on the stacks the
    pipeline feeds them: an IAIF block and F0's frames of a 3 s voice."""

    @staticmethod
    def iaif_block():
        x = two_formant_voice(seconds=3.0)[0].samples
        spec = dsp.FrameSpec(400, 80)
        return dsp.frame_signal(x, spec)[:256] * spec.window_array()

    @staticmethod
    def f0_frames():
        x = two_formant_voice(seconds=3.0)[0].samples
        return dsp.frame_signal(x, dsp.FrameSpec(1024, 256))

    @pytest.mark.parametrize("stack, max_lag", [("iaif_block", 18), ("f0_frames", 320)])
    def test_against_per_lag_dot(self, stack, max_lag):
        x = getattr(self, stack)()
        r = dsp.autocorrelation(x, max_lag)
        assert r.shape == (len(x), max_lag + 1)
        for row, got in zip(x, r):
            ref = _autocorrelation_loop(row, max_lag)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * ref[0])

    @pytest.mark.parametrize("stack, max_lag", [("iaif_block", 18), ("f0_frames", 320)])
    def test_zero_rows_are_exactly_zero(self, stack, max_lag):
        # F0's voicing test is r[:, 0] > 0.0, so silence must give exact zeros.
        x = np.array(getattr(self, stack)())
        x[[0, 5, -1]] = 0.0
        r = dsp.autocorrelation(x, max_lag)
        assert np.all(r[[0, 5, -1]] == 0.0)
        assert np.all(r[1:5, 0] > 0.0)

    def test_strided_view_matches_contiguous_copy_bitwise(self):
        # Output bytes must not depend on --jobs or on how a stack is laid out.
        view = self.f0_frames()
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        assert np.array_equal(dsp.autocorrelation(view, 320), dsp.autocorrelation(copy, 320))

    def test_levinson_rows_at_tract_order(self):
        r = dsp.autocorrelation(self.iaif_block(), 18)
        batch = dsp.levinson_rows(r, 18)
        assert not batch.unstable.any()
        # Voiced frames' normal equations are conditioned only by AUTOCORR_REG,
        # so a different summation order moves coefficients by ~3e-10 of their scale.
        for i, row in enumerate(r):
            coeffs, ks = _levinson_loop(row, 18)
            scale = np.abs(coeffs).max()
            np.testing.assert_allclose(batch.coeffs[i], coeffs, rtol=0, atol=1e-8 * scale)
            np.testing.assert_allclose(batch.reflections[i], ks, rtol=0, atol=1e-8)

    def test_min_lag_skips_only_the_lags_below_it(self):
        x = self.f0_frames()
        full = dsp.autocorrelation(x, 320)
        r = dsp.autocorrelation(x, 320, min_lag=32)
        assert np.all(np.isnan(r[:, 1:32]))
        assert np.array_equal(r[:, 0], full[:, 0])
        assert np.array_equal(r[:, 32:], full[:, 32:])
