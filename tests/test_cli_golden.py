"""Golden outputs of the batch CLI: every file glottal, features and augment
write into --out, at --jobs 1 and --jobs 2.

The inputs are two short conftest signals and a spoof row. Text outputs
(plans, manifest.tsv, config.effective.json) must match exactly; WAVs are
stored as PCM16 codes and match within one code; feature files match at
1e-9. Regenerating the file is a deliberate, recorded decision:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import am_harmonic_signal, two_formant_voice
from rhythmkit import audio_io
from rhythmkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.npz"

COMMANDS = {
    "glottal": ["glottal"],
    "features": ["features"],
    "augment": ["augment", "--save-features", "--seed", "7"],
}
WAV_CODE_ATOL = 1  # PCM16 codes
FEATURE_ATOL = 1e-9


def make_corpus(root: Path) -> Path:
    """Two bonafide files and a spoof row that reuses the first file."""
    root.mkdir(parents=True, exist_ok=True)
    audio_io.write_wav(root / "a.wav", am_harmonic_signal(seconds=0.3), "pcm16")
    audio_io.write_wav(root / "b.wav", two_formant_voice(seconds=0.5)[0], "pcm16")
    manifest = root / "manifest.tsv"
    manifest.write_text("u1\ta.wav\tbonafide\t-\nu2\tb.wav\tbonafide\t-\ns1\ta.wav\tspoof\tA07\n")
    return manifest


def run(command: str, manifest: Path, out: Path, jobs: int) -> dict[str, np.ndarray]:
    """Run one command and read back every file it left in out, keyed
    ``<command>:<file name>:<part>``."""
    argv = [*COMMANDS[command][:1], str(manifest), "--out", str(out), "--jobs", str(jobs)]
    assert main(argv + COMMANDS[command][1:]) == 0
    found: dict[str, np.ndarray] = {}
    for path in sorted(out.iterdir()):
        key = f"{command}:{path.name}:"
        if path.suffix == ".wav":
            buf, encoding = audio_io.read_wav_encoded(path)
            assert encoding == "pcm16"
            found[key + "codes"] = np.rint(buf.samples * 32768.0).astype(np.int16)
            found[key + "rate"] = np.array(buf.sample_rate)
        elif path.suffix == ".rfb":
            bundle = audio_io.read_features(path)
            found[key + "mel"] = bundle.mel
            found[key + "f0"] = bundle.f0
            found[key + "framing"] = np.array(
                [bundle.sample_rate, bundle.hop_length, bundle.win_length]
            )
        else:
            found[key + "text"] = np.array(path.read_text(encoding="utf-8"))
    return found


def compute(root: Path) -> dict[str, np.ndarray]:
    manifest = make_corpus(root / "corpus")
    out: dict[str, np.ndarray] = {}
    for command in COMMANDS:
        out.update(run(command, manifest, root / command, jobs=1))
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_match_golden(golden, manifest, tmp_path, command, jobs):
    current = run(command, manifest, tmp_path / "out", jobs)
    expected = {k: v for k, v in golden.items() if k.startswith(f"{command}:")}
    assert sorted(current) == sorted(expected)
    for key, ref in expected.items():
        value = current[key]
        assert value.shape == ref.shape, key
        part = key.rsplit(":", 1)[1]
        if part == "codes":
            assert np.max(np.abs(value.astype(np.int32) - ref), initial=0) <= WAV_CODE_ATOL, key
        elif part in ("mel", "f0"):
            assert np.max(np.abs(value - ref), initial=0.0) <= FEATURE_ATOL, key
        else:
            assert np.array_equal(value, ref), key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        arrays = compute(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN} ({len(arrays)} arrays)")
