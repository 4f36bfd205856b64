"""The rhythm-only contract on rendered audio.

RPM spoofs must differ from plain copy-synthesis in rhythm, not in pitch or
timbre.  On the conftest signals, the RPM rendering's mel, mapped back through
its segment plan onto the copy-synthesis timeline, must match the COPY
rendering's mel, and its median voiced F0 on that timeline must equal COPY's.
Waveform speed perturbation is the contrast: resampled onto COPY's frame
count, its mel lies beyond the same bound, and it moves F0 by 1/factor.  The
mel contract must also hold on the glottal flow that IAIF extracts from each
rendering.  On irregular voices a rhythm cue must tell RPM from COPY while
COPY stays close to bonafide.
"""

import numpy as np
import pytest

from conftest import am_harmonic_signal, irregular_voice, two_formant_voice
from rhythmkit import dsp
from rhythmkit.audio_io import AudioBuffer
from rhythmkit.evaluation import eer_from_scores
from rhythmkit.features import FeatureConfig, estimate_f0, mel_spectrogram
from rhythmkit.glottal import extract_glottal_flow
from rhythmkit.rpm import RpmConfig, speed_perturb
from rhythmkit.synthesis import GriffinLimConfig, copy_synthesize

CFG = FeatureConfig()
# Mel bins more than this far below each mel's peak count as silence: the
# renderings' noise floors differ there and say nothing about timbre.
TOP_DB = 60.0
# Gain-removed RMS mel distance (dB).  Measured on these signals at RPM seeds
# 0-7 with 60 Griffin-Lim iterations: RPM 0.89-1.76 dB, speed 1.2 5.92-7.97
# (the irregular voice 1.13-1.59 and 6.71; its seed 101 reads 1.07-1.80 and 7.27).
MEL_BOUND_DB = 3.0
SPEED = 1.2


def _mel_db(audio):
    mel = 10.0 / np.log(10.0) * mel_spectrogram(audio, CFG)
    return np.maximum(mel - mel.max(), -TOP_DB)


def _mel_distance_db(a, b):
    d = a - b
    d -= d.mean()  # gain removed: peak normalization sets each rendering's level
    return float(np.sqrt(np.mean(d * d)))


def _median_f0(audio):
    f0 = estimate_f0(audio, CFG)
    return float(np.median(f0[f0 > 0.0]))


def _plan_median_f0(audio, plan):
    """Median voiced F0 with each output frame weighted by the input frames it
    stands for, length / resampled_length, as _onto_plan_input maps the mel.
    A plain median weights each segment by its stretched duration, which moves
    it on a voice whose pitch varies: irregular_voice(100) read 0.9853 of
    COPY's at seed 3, and 0.9957 weighted."""
    outs = [dsp.resampled_length(s.length, s.factor) for s in plan.segments]
    weights = np.repeat([s.length / out for s, out in zip(plan.segments, outs)], outs)
    f0 = estimate_f0(audio, CFG)
    assert len(f0) == len(weights)
    voiced = f0 > 0.0
    order = np.argsort(f0[voiced])
    cum = np.cumsum(weights[voiced][order])
    return float(f0[voiced][order][np.searchsorted(cum, cum[-1] / 2)])


def _onto_plan_input(mel, plan):
    """Resample each segment's output frames back to the segment's input length."""
    blocks, pos = [], 0
    for seg in plan.segments:
        out = dsp.resampled_length(seg.length, seg.factor)
        blocks.append(dsp.linear_resample(mel[pos : pos + out], seg.length / out))
        pos += out
    assert pos == len(mel)
    return np.concatenate(blocks)


@pytest.mark.parametrize(
    "audio",
    [
        two_formant_voice(seconds=3.0)[0],
        am_harmonic_signal(seconds=3.0),
        irregular_voice(100, seconds=3.0),
    ],
    ids=["voice", "am", "irregular"],
)
def test_rpm_changes_rhythm_only(audio):
    gl = GriffinLimConfig()
    copy = copy_synthesize(audio, CFG, None, gl, "utt").audio
    copy_mel = _mel_db(copy)
    copy_f0 = _median_f0(copy)

    for seed in (0, 3, 7):
        rpm = copy_synthesize(audio, CFG, RpmConfig(seed=seed), gl, "utt")
        rpm_mel = _mel_db(rpm.audio)
        assert len(rpm_mel) == rpm.plan.output_frames()
        back = _onto_plan_input(rpm_mel, rpm.plan)
        assert back.shape == copy_mel.shape
        assert _mel_distance_db(back, copy_mel) < MEL_BOUND_DB, f"seed {seed}"
        rpm_f0 = _plan_median_f0(rpm.audio, rpm.plan)
        assert rpm_f0 == pytest.approx(copy_f0, rel=0.01), f"seed {seed}"

    sped = speed_perturb(copy, SPEED)
    sped_mel = _mel_db(sped)
    onto_copy = dsp.linear_resample(sped_mel, len(copy_mel) / len(sped_mel))
    assert onto_copy.shape == copy_mel.shape
    assert _mel_distance_db(onto_copy, copy_mel) > MEL_BOUND_DB
    assert _median_f0(sped) / copy_f0 == pytest.approx(1.0 / SPEED, rel=0.02)


def _glottal_flow(audio):
    """IAIF flow zero-padded to the input's length: framing drops a tail under one hop."""
    flow = extract_glottal_flow(audio).flow
    pad = len(audio.samples) - len(flow.samples)
    return AudioBuffer(np.pad(flow.samples, (0, pad)), flow.sample_rate)


@pytest.mark.parametrize(
    "audio",
    [
        pytest.param(
            two_formant_voice(seconds=3.0)[0],
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 1: the Griffin-Lim edge spike sets each rendering's "
                "scale, and the voice's RPM flow (4.2 dB at seed 2) lands beyond the bound",
            ),
            id="voice",
        ),
        pytest.param(am_harmonic_signal(seconds=3.0), id="am"),
    ],
)
def test_rpm_changes_rhythm_only_in_glottal_flow(audio):
    gl = GriffinLimConfig()
    copy = copy_synthesize(audio, CFG, None, gl, "utt").audio
    copy_mel = _mel_db(_glottal_flow(copy))

    for seed in (0, 2, 7):
        rpm = copy_synthesize(audio, CFG, RpmConfig(seed=seed), gl, "utt")
        back = _onto_plan_input(_mel_db(_glottal_flow(rpm.audio)), rpm.plan)
        assert back.shape == copy_mel.shape
        assert _mel_distance_db(back, copy_mel) < MEL_BOUND_DB, f"seed {seed}"

    sped_mel = _mel_db(_glottal_flow(speed_perturb(copy, SPEED)))
    onto_copy = dsp.linear_resample(sped_mel, len(copy_mel) / len(sped_mel))
    assert onto_copy.shape == copy_mel.shape
    assert _mel_distance_db(onto_copy, copy_mel) > MEL_BOUND_DB


def _burst_spread(audio):
    """Std of the log durations of bursts: runs of at least 30 ms in which the
    10 ms frame-RMS envelope lies above -25 dB of its maximum.  The first and
    last 3 frames are dropped: Griffin-Lim's edge spike (ROADMAP item 1) would
    otherwise set the maximum."""
    hop = audio.sample_rate // 100
    frames = audio.samples[: len(audio.samples) // hop * hop].reshape(-1, hop)
    db = 10.0 * np.log10(np.maximum(np.mean(frames**2, axis=1), 1e-20))[3:-3]
    above = np.concatenate([[False], db > db.max() - 25.0, [False]])
    edges = np.flatnonzero(np.diff(above.astype(int)))
    runs = edges[1::2] - edges[::2]
    runs = runs[runs >= 3]
    return float(np.std(np.log(runs))) if len(runs) else 0.0


def _eer_either_way(a, b):
    a, b = np.array(a), np.array(b)
    return min(eer_from_scores(a, b).eer, eer_from_scores(b, a).eer)


def test_rhythm_cue_tells_rpm_from_copy_on_irregular_voices():
    """Positive control (ROADMAP item 10).  Measured on voice seeds 100-109 at
    16 Griffin-Lim iterations: burst-spread medians 0.431 bonafide, 0.405 COPY,
    0.496 RPM seed 7 and 0.518 RPM seed 3; EER 0.40 bonafide against COPY and
    0.20 COPY against each RPM seed.  The bounds guard this one fixed set of
    voices and make no claim about the population: seeds 200-209 read 0.30 and
    0.20, seeds 300-309 read 0.40 and 0.10."""
    gl = GriffinLimConfig(n_iters=16)
    bona, copy, rpm = [], [], {7: [], 3: []}
    for seed in range(100, 110):
        voice = irregular_voice(seed)
        bona.append(_burst_spread(voice))
        copy.append(_burst_spread(copy_synthesize(voice, CFG, None, gl, "utt").audio))
        for rpm_seed, cues in rpm.items():
            render = copy_synthesize(voice, CFG, RpmConfig(seed=rpm_seed), gl, "utt")
            cues.append(_burst_spread(render.audio))
    assert _eer_either_way(bona, copy) >= 0.35
    for rpm_seed, cues in rpm.items():
        assert _eer_either_way(copy, cues) <= 0.30, f"RPM seed {rpm_seed}"
