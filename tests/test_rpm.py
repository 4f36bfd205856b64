import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FS, sine
from rhythmkit import dsp
from rhythmkit.errors import PlanMismatchError
from rhythmkit.features import FeatureBundle
from rhythmkit.rpm import (
    RpmConfig,
    Segment,
    SegmentPlan,
    SplitMix64,
    apply_plan,
    fnv1a64,
    rhythm_perturb,
    rng_for_utterance,
    sample_segment_plan,
    speed_perturb,
)


def make_bundle(n_frames, n_mels=8, f0_value=200.0, seed=None):
    if seed is None:
        i = np.arange(n_frames)[:, None]
        j = np.arange(n_mels)[None, :]
        mel = np.sin(0.37 * i + 1.3 * j) - 2.0
        f0 = np.full(n_frames, f0_value)
    else:
        rng = np.random.default_rng(seed)
        mel = rng.uniform(-23.0, 3.0, (n_frames, n_mels))
        f0 = np.where(rng.random(n_frames) < 0.3, 0.0, rng.uniform(50.0, 400.0, n_frames))
    return FeatureBundle(mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024)


@pytest.mark.parametrize("call, message", [
    (lambda: SplitMix64(0).next_int(3, 2), "empty range [3, 2]"),
    (lambda: sample_segment_plan(0, RpmConfig(), SplitMix64(0)), "total_frames must be >= 1, got 0"),
], ids=["next-int-empty-range", "plan-for-no-frames"])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestSplitMix64:
    def test_reference_stream(self):
        # Published splitmix64 outputs for seed 0.
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_float_mapping_uses_high_53_bits(self):
        a, b = SplitMix64(1234), SplitMix64(1234)
        for _ in range(100):
            u = a.next_u64()
            f = b.next_float()
            assert f == (u >> 11) * 2.0**-53
            assert 0.0 <= f < 1.0

    def test_int_range_inclusive(self):
        g = SplitMix64(7)
        draws = [g.next_int(19, 32) for _ in range(5000)]
        assert min(draws) == 19 and max(draws) == 32

    def test_seed_masking(self):
        assert SplitMix64(-1).state == (1 << 64) - 1


class TestFnv1a64:
    def test_empty_is_offset_basis(self):
        assert fnv1a64("") == 0xCBF29CE484222325

    def test_known_vector(self):
        assert fnv1a64("hello") == 0xA430D84680AABD0B

    def test_distinct_ids_distinct_hashes(self):
        ids = [f"LA_T_{i:07d}" for i in range(1000)]
        assert len({fnv1a64(u) for u in ids}) == 1000


class TestSamplePlan:
    def test_short_timeline_single_segment(self):
        rng = SplitMix64(1)
        plan = sample_segment_plan(10, RpmConfig(), rng)
        assert len(plan.segments) == 1
        seg = plan.segments[0]
        assert (plan.starts(), seg.length) == ([0], 10)
        assert RpmConfig().factor_lo <= seg.factor <= RpmConfig().factor_hi

    def test_fixed_seed_reproducible(self):
        p1 = sample_segment_plan(64, RpmConfig(), SplitMix64(99))
        p2 = sample_segment_plan(64, RpmConfig(), SplitMix64(99))
        assert p1 == p2

    def test_tiling_and_bounds(self):
        cfg = RpmConfig()
        rng = SplitMix64(5)
        pick = SplitMix64(77)
        for _ in range(500):
            total = pick.next_int(1, 800)
            plan = sample_segment_plan(total, cfg, rng)
            assert plan.tiles(total)
            for seg in plan.segments[:-1]:
                assert cfg.seg_min <= seg.length <= cfg.seg_max
            assert 1 <= plan.segments[-1].length <= cfg.seg_max
            assert all(cfg.factor_lo <= s.factor <= cfg.factor_hi for s in plan.segments)

    def test_length_distribution_mean(self):
        g = SplitMix64(2024)
        lengths = [g.next_int(19, 32) for _ in range(10000)]
        assert abs(np.mean(lengths) - 25.5) <= 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RpmConfig(seg_min=0)
        with pytest.raises(ValueError):
            RpmConfig(seg_min=20, seg_max=19)
        # A non-finite factor must fail here: rhythm_perturb would overflow on it.
        for lo, hi in [(0.0, 1.5), (0.5, np.inf), (np.inf, np.inf), (np.nan, 1.5), (0.5, np.nan)]:
            with pytest.raises(ValueError, match=r"need 0 < factor_lo <= factor_hi|factor_(lo|hi) must be finite"):
                RpmConfig(factor_lo=lo, factor_hi=hi)


@st.composite
def rpm_configs(draw):
    """Any valid RpmConfig: segment bounds from 1 up, factors down to where a
    segment resamples to a single frame."""
    seg_min = draw(st.integers(1, 40))
    seg_max = seg_min + draw(st.integers(0, 20))
    factor_lo = draw(st.floats(1e-3, 4.0))
    factor_hi = factor_lo + draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return RpmConfig(seg_min=seg_min, seg_max=seg_max, factor_lo=factor_lo,
                     factor_hi=factor_hi, seed=draw(st.integers(0, 2**64 - 1)))


class TestPlanProperties:
    """Tiling and the length law for random configs; the default config is
    covered by TestSamplePlan and TestApplyPlan."""

    @settings(max_examples=60, deadline=None)
    @given(rpm_configs(), st.integers(1, 400))
    @example(RpmConfig(seg_min=7, seg_max=7), 50)
    @example(RpmConfig(seg_min=1, seg_max=1), 9)
    @example(RpmConfig(seg_min=1, seg_max=3, factor_lo=0.8, factor_hi=0.8), 40)
    @example(RpmConfig(seg_min=2, seg_max=5, factor_lo=0.01, factor_hi=0.01), 30)
    def test_tiling_and_length_law(self, cfg, total):
        plan = sample_segment_plan(total, cfg, SplitMix64(cfg.seed))
        assert plan.tiles(total)
        for seg in plan.segments[:-1]:
            assert cfg.seg_min <= seg.length <= cfg.seg_max
        assert 1 <= plan.segments[-1].length <= cfg.seg_max
        assert all(cfg.factor_lo <= s.factor <= cfg.factor_hi for s in plan.segments)
        out = apply_plan(make_bundle(total, n_mels=3, seed=cfg.seed), plan)
        expect = sum(max(1, int(np.floor(s.length * s.factor + 0.5))) for s in plan.segments)
        assert out.n_frames == expect == plan.output_frames()


class TestApplyPlan:
    def test_identity_factors_bit_exact(self):
        bundle = make_bundle(64, seed=3)
        plan = sample_segment_plan(64, RpmConfig(factor_lo=1.0, factor_hi=1.0), SplitMix64(1))
        out = apply_plan(bundle, plan)
        assert out == bundle

    def test_single_segment_stretch(self):
        bundle = make_bundle(20, seed=4)
        plan = SegmentPlan(segments=(Segment(20, 1.5),))
        out = apply_plan(bundle, plan)
        assert out.n_frames == 30
        for band in range(bundle.mel.shape[1]):
            col_in = bundle.mel[:, band]
            col_out = out.mel[:, band]
            assert col_out.min() >= col_in.min() and col_out.max() <= col_in.max()

    def test_constant_f0_untouched(self):
        bundle = make_bundle(100, f0_value=200.0)
        out, _ = rhythm_perturb(bundle, RpmConfig(seed=8), "utt")
        assert np.all(out.f0 == 200.0)

    def test_f0_snap_below_floor(self):
        f0 = np.concatenate([np.zeros(10), np.full(10, 120.0)])
        mel = np.zeros((20, 4))
        bundle = FeatureBundle(mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024)
        plan = SegmentPlan(segments=(Segment(20, 1.5),))
        out = apply_plan(bundle, plan, f0_floor=50.0)
        assert np.all((out.f0 == 0.0) | (out.f0 >= 50.0))
        assert np.any(out.f0 == 0.0) and np.any(out.f0 >= 50.0)

    def test_length_law_exact(self):
        cfg = RpmConfig()
        pick = SplitMix64(31337)
        for trial in range(200):
            total = pick.next_int(1, 300)
            bundle = make_bundle(total, n_mels=4, seed=trial)
            plan = sample_segment_plan(total, cfg, SplitMix64(trial))
            out = apply_plan(bundle, plan)
            expect = sum(
                max(1, int(np.floor(s.length * s.factor + 0.5))) for s in plan.segments
            )
            assert out.n_frames == expect
            assert out.mel.shape[1] == bundle.mel.shape[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_separate_resampling_bit_for_bit(self, seed):
        # Factor-1.0 segments, 1-frame segments and a 5-frame segment squeezed to 1 frame.
        plan = SegmentPlan(segments=(
            Segment(7, 1.0), Segment(1, 2.3), Segment(5, 0.1), Segment(9, 1.37),
            Segment(1, 1.0), Segment(12, 0.61), Segment(4, 2.0),
        ))
        rng = np.random.default_rng(seed)
        mel = rng.uniform(-23.0, 3.0, (plan.total_frames, 6))
        mel[rng.random(mel.shape) < 0.2] = -0.0
        f0 = rng.choice([0.0, 50.0, 50.0, 49.999, 120.0, 310.5], plan.total_frames)
        bundle = FeatureBundle(mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024)
        mel_parts, f0_parts, start = [], [], 0
        for seg in plan.segments:  # reference: mel and F0 as two timelines, snapped per segment
            stop = start + seg.length
            mel_parts.append(dsp.linear_resample(mel[start:stop], seg.factor))
            f0_seg = dsp.linear_resample(f0[start:stop], seg.factor)
            f0_seg[f0_seg < 50.0] = 0.0
            f0_parts.append(f0_seg)
            start = stop
        out = apply_plan(bundle, plan, f0_floor=50.0)

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        assert np.array_equal(bits(out.mel), bits(np.concatenate(mel_parts)))
        assert np.array_equal(bits(out.f0), bits(np.concatenate(f0_parts)))
        assert np.any(np.signbit(out.mel) & (out.mel == 0.0))
        assert np.any(out.f0 == 50.0) and np.any(out.f0 == 0.0)

    def test_plan_mismatch(self):
        bundle = make_bundle(30)
        plan = SegmentPlan(segments=(Segment(20, 1.0),))
        with pytest.raises(PlanMismatchError, match="plan covers 20 frames, bundle has 30"):
            apply_plan(bundle, plan)

    def test_segment_is_length_and_factor(self):
        assert [f.name for f in dataclasses.fields(Segment)] == ["length", "factor"]
        for length in (0, -3):
            with pytest.raises(ValueError, match="segment length"):
                Segment(length, 1.0)

    def test_plan_holds_a_segment(self):
        with pytest.raises(ValueError, match="at least one segment"):
            SegmentPlan(())
        empty = make_bundle(0)
        with pytest.raises(PlanMismatchError, match="plan covers 1 frames, bundle has 0"):
            apply_plan(empty, SegmentPlan((Segment(1, 1.0),)))

    def test_metadata_copied(self):
        bundle = make_bundle(40, seed=5)
        out, _ = rhythm_perturb(bundle, RpmConfig(seed=2), "u1")
        assert out.sample_rate == bundle.sample_rate
        assert out.hop_length == bundle.hop_length
        assert out.win_length == bundle.win_length


class TestRhythmPerturb:
    def test_deterministic(self):
        bundle = make_bundle(80, seed=6)
        a, pa = rhythm_perturb(bundle, RpmConfig(seed=42), "LA_T_1")
        b, pb = rhythm_perturb(bundle, RpmConfig(seed=42), "LA_T_1")
        assert pa == pb
        assert a == b

    def test_utt_id_splits_stream(self):
        bundle = make_bundle(80, seed=7)
        _, pa = rhythm_perturb(bundle, RpmConfig(seed=42), "LA_T_1")
        _, pb = rhythm_perturb(bundle, RpmConfig(seed=42), "LA_T_2")
        assert pa != pb

    def test_rng_seeding_convention(self):
        rng = rng_for_utterance(42, "LA_T_1")
        assert rng.state == (42 ^ fnv1a64("LA_T_1")) & ((1 << 64) - 1)

    def test_golden_triple(self):
        # Frozen output for one (seed, utt_id, bundle): guards bit-exact
        # cross-platform determinism of the whole sampling + resampling path.
        bundle = make_bundle(64, n_mels=8)
        bundle = FeatureBundle(
            mel=bundle.mel,
            f0=np.where(np.arange(64) % 3 == 0, 0.0, 180.0 + np.arange(64)),
            sample_rate=16000.0,
            hop_length=256,
            win_length=1024,
        )
        out, plan = rhythm_perturb(bundle, RpmConfig(seed=20240601), "LA_T_0001")
        assert plan.starts() == [0, 19, 40]
        assert [(s.length, s.factor) for s in plan.segments] == [
            (19, 1.4105369761238291),
            (21, 1.172158571973413),
            (24, 0.9291771599967595),
        ]
        assert out.n_frames == 74
        assert (
            hashlib.sha256(out.mel.tobytes()).hexdigest()
            == "2ba3bb69100781eebafca40b01936aef243a0f18f6de9f15a75e6fc49bdf62b0"
        )
        assert (
            hashlib.sha256(out.f0.tobytes()).hexdigest()
            == "3ba3be924a734c9dbfc0cf14994fdad351c1216339e2ceccd9fbfad5c0c81acd"
        )

    def test_monte_carlo_output_length(self):
        bundle = make_bundle(300, n_mels=2)
        outs = [
            rhythm_perturb(bundle, RpmConfig(seed=k), f"utt{k}")[0].n_frames
            for k in range(1000)
        ]
        assert abs(np.mean(outs) - 300.0) <= 5.0


class TestPlanJson:
    def test_round_trip_and_schema(self):
        plan = SegmentPlan(segments=(Segment(19, 1.25), Segment(5, 0.75)))
        text = plan.to_json("LA_T_9", 77)
        doc = json.loads(text)
        assert doc["utt_id"] == "LA_T_9"
        assert doc["seed"] == 77
        assert doc["segments"] == [{"start": 0, "len": 19, "factor": 1.25},
                                   {"start": 19, "len": 5, "factor": 0.75}]


class TestSpeedPerturb:
    def test_identity(self):
        buf = sine(220.0)
        out = speed_perturb(buf, 1.0)
        assert np.array_equal(out.samples, buf.samples)
        assert out.sample_rate == buf.sample_rate

    def test_length_law(self):
        buf = sine(220.0)
        for r in (0.5, 0.77, 1.5, 2.0):
            out = speed_perturb(buf, r)
            assert len(out) == max(1, int(np.floor(len(buf) * r + 0.5)))

    def test_frequency_shifts_by_inverse_factor(self):
        # Oracle: direct DFT of the resampled signal; 220 Hz stretched by 1.5
        # must land near 146.7 Hz.
        out = speed_perturb(sine(220.0), 1.5)
        mags = np.abs(np.fft.rfft(out.samples[:1024] * np.hanning(1024)))
        dominant = int(np.argmax(mags))
        assert abs(dominant - (220.0 / 1.5) / (FS / 1024)) <= 1.0

    def test_sample_rate_field_unchanged(self):
        out = speed_perturb(sine(100.0), 0.5)
        assert out.sample_rate == FS

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_nonpositive_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="positive"):
            speed_perturb(sine(220.0), factor)
