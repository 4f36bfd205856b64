"""Golden outputs of the DSP pipeline on the shared synthetic signals.

The stored arrays pin what the kernels produced before they were rewritten as
frame-batched array code, so a later refactor that moves output shows up
here. Tolerances allow summation-order drift only.  Regenerating the file is
a deliberate, recorded decision:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FS, am_harmonic_signal, sine, two_formant_voice
from rhythmkit.audio_io import AudioBuffer
from rhythmkit.features import FeatureConfig, estimate_f0, mel_filterbank, mel_spectrogram
from rhythmkit.glottal import extract_glottal_flow
from rhythmkit.synthesis import GriffinLimConfig, griffin_lim, mel_to_linear

GOLDEN = Path(__file__).parent / "data" / "golden.npz"

FLOW_ATOL = 1e-9  # peak-normalized flow
F0_ATOL_HZ = 1e-9
GRIFFIN_LIM_ATOL = 1e-9


def _padded_voice() -> AudioBuffer:
    """Short voice between runs of exact zeros, so whole IAIF frames are silent."""
    voice, _ = two_formant_voice(seconds=0.4)
    samples = np.concatenate([np.zeros(1000), voice.samples, np.zeros(1000)])
    return AudioBuffer(samples=samples, sample_rate=FS)


def _signals() -> dict[str, AudioBuffer]:
    return {
        "voice": two_formant_voice()[0],
        "padded_voice": _padded_voice(),
        "am": am_harmonic_signal(seconds=0.5),
        "sine": sine(220.0, seconds=0.5),
    }


def compute() -> dict[str, np.ndarray]:
    signals = _signals()
    out: dict[str, np.ndarray] = {}
    for name in ("voice", "padded_voice"):
        res = extract_glottal_flow(signals[name])
        out[f"flow_{name}"] = res.flow.samples
        out[f"frames_{name}"] = np.array([res.unstable_frames, res.total_frames])
    cfg = FeatureConfig()
    for name, audio in signals.items():
        out[f"f0_{name}"] = estimate_f0(audio, cfg)
    am = signals["am"]
    magnitudes = mel_to_linear(mel_spectrogram(am, cfg), mel_filterbank(cfg, FS))
    gl = griffin_lim(magnitudes, cfg.frame, GriffinLimConfig(n_iters=10), FS)
    out["griffin_lim_audio"] = gl.audio.samples
    out["griffin_lim_objective"] = gl.objective
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def current():
    return compute()


@pytest.mark.parametrize("name", ["voice", "padded_voice"])
def test_glottal_flow(golden, current, name):
    assert np.array_equal(current[f"frames_{name}"], golden[f"frames_{name}"])
    flow, ref = current[f"flow_{name}"], golden[f"flow_{name}"]
    assert flow.shape == ref.shape
    assert np.max(np.abs(flow - ref)) <= FLOW_ATOL


@pytest.mark.parametrize("name", ["voice", "padded_voice", "am", "sine"])
def test_f0_track(golden, current, name):
    f0, ref = current[f"f0_{name}"], golden[f"f0_{name}"]
    assert np.array_equal(f0 > 0.0, ref > 0.0)
    assert np.max(np.abs(f0 - ref)) <= F0_ATOL_HZ


def test_griffin_lim(golden, current):
    for key in ("griffin_lim_audio", "griffin_lim_objective"):
        assert current[key].shape == golden[key].shape
        assert np.max(np.abs(current[key] - golden[key])) <= GRIFFIN_LIM_ATOL


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **compute())
    print(f"wrote {GOLDEN}")
