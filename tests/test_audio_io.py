import io
import os
import re
import stat
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rhythmkit import audio_io, dsp
from rhythmkit.audio_io import MANIFEST_KEYS, AudioBuffer, ManifestEntry
from rhythmkit.errors import (
    BadMagicError,
    DuplicateIdError,
    EmptyAudioError,
    ParseError,
    UnsupportedFormatError,
    VersionMismatchError,
)
from rhythmkit.features import FeatureBundle
from rhythmkit.glottal import GlottalFlowResult, GlottalFrameResult
from rhythmkit.synthesis import CopySynthesisResult, GriffinLimResult


def _raw_wav(fmt_code, channels, rate, bits, payload):
    """Hand-built RIFF/WAVE bytes, independent of write_wav."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block, block, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _riff(*chunks):
    """RIFF/WAVE bytes holding the given (id, body) chunks as they are."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


# Malformed WAV headers and non-finite float32 samples:
# name -> (file bytes, text the UnsupportedFormatError carries).
HOSTILE_WAVS = {
    "under-12-bytes": (b"RIFF\x03\x00\x00\x00WAV", "too small"),
    "chunk-past-end": (_raw_wav(1, 1, 16000, 16, b"\x00" * 8)[:-4], "truncated chunk"),
    "no-data-chunk": (_riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16))),
                      "missing fmt/data"),
    "no-fmt-chunk": (_riff((b"LIST", b"abcd"), (b"data", b"\x00" * 8)), "missing fmt/data"),
    "fmt-under-16-bytes": (_riff((b"fmt ", struct.pack("<HHIIH", 1, 1, 16000, 32000, 2)),
                                 (b"data", b"\x00" * 8)), "fmt chunk too short"),
    "float32-nan": (_raw_wav(3, 1, 16000, 32, np.array([0.0, np.nan], "<f4").tobytes()),
                    "samples must be finite"),
    "float32-inf": (_raw_wav(3, 1, 16000, 32, np.array([-np.inf, 0.0], "<f4").tobytes()),
                    "samples must be finite"),
    # Rates whose byte rate (rate * bytes per sample) needs more than 32 bits.
    "pcm16-at-2**31-hz": (_riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 2**31, 0, 2, 16)),
                                (b"data", b"\x00" * 8)), "overflows 32 bits"),
    "float32-at-2**30-hz": (_riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, 2**30, 0, 4, 32)),
                                  (b"data", b"\x00" * 8)), "overflows 32 bits"),
    "rate-0": (_raw_wav(1, 1, 0, 16, b"\x00" * 8), "sample_rate=0"),
}


class TestReadWav:
    def test_pcm16_one_second(self, tmp_path):
        values = np.arange(16000, dtype="<i2")
        path = tmp_path / "a.wav"
        path.write_bytes(_raw_wav(1, 1, 16000, 16, values.tobytes()))
        buf = audio_io.read_wav(path)
        assert len(buf) == 16000
        assert buf.sample_rate == 16000

    def test_pcm16_scaling_is_exact(self, tmp_path):
        values = np.array([-32768, 0, 16384, 32767], dtype="<i2")
        path = tmp_path / "b.wav"
        path.write_bytes(_raw_wav(1, 1, 8000, 16, values.tobytes()))
        buf = audio_io.read_wav(path)
        assert buf.samples[0] == -1.0
        assert buf.samples[1] == 0.0
        assert buf.samples[2] == 0.5
        assert buf.samples[3] == 32767 / 32768

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(_raw_wav(1, 2, 16000, 16, b"\x00" * 8))
        with pytest.raises(UnsupportedFormatError, match="channels=2"):
            audio_io.read_wav(path)

    def test_other_bit_depths_rejected(self, tmp_path):
        path = tmp_path / "w24.wav"
        path.write_bytes(_raw_wav(1, 1, 16000, 24, b"\x00" * 6))
        with pytest.raises(UnsupportedFormatError, match="bits=24"):
            audio_io.read_wav(path)

    def test_compressed_format_rejected(self, tmp_path):
        path = tmp_path / "ulaw.wav"
        path.write_bytes(_raw_wav(7, 1, 8000, 8, b"\x00" * 4))
        with pytest.raises(UnsupportedFormatError, match="format=7"):
            audio_io.read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(UnsupportedFormatError):
            audio_io.read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            audio_io.read_wav(tmp_path / "nope.wav")

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(_raw_wav(1, 1, 16000, 16, b""))
        with pytest.raises(EmptyAudioError):
            audio_io.read_wav(path)

    @pytest.mark.parametrize("name", sorted(HOSTILE_WAVS))
    def test_hostile_header_rejected(self, tmp_path, name):
        raw, message = HOSTILE_WAVS[name]
        path = tmp_path / f"{name}.wav"
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFormatError, match=message) as info:
            audio_io.read_wav_encoded(path)
        assert str(path) in str(info.value)


class TestWriteWav:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1, 1, 500).astype(np.float32).astype(np.float64)
        buf = AudioBuffer(samples=samples, sample_rate=22050)
        path = tmp_path / "f.wav"
        audio_io.write_wav(path, buf, "float32")
        back = audio_io.read_wav(path)
        assert back.sample_rate == 22050
        assert np.array_equal(back.samples, samples)

    def test_pcm16_round_trip_within_lsb(self, tmp_path):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, 500), sample_rate=16000)
        path = tmp_path / "p.wav"
        audio_io.write_wav(path, buf, "pcm16")
        back = audio_io.read_wav(path)
        assert len(back) == len(buf)
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768

    def test_clipping_rule(self, tmp_path):
        buf = AudioBuffer(samples=np.array([1.5, -2.0, 1.0, -1.0]), sample_rate=8000)
        path = tmp_path / "c.wav"
        audio_io.write_wav(path, buf, "pcm16")
        stored = np.frombuffer(path.read_bytes()[-8:], dtype="<i2")
        assert stored[0] == 32767
        assert stored[1] == -32768
        assert stored[2] == 32767
        assert stored[3] == -32768

    def test_every_pcm16_code_round_trips(self, tmp_path):
        codes = np.arange(-32768, 32768)
        buf = AudioBuffer(samples=codes / 32768.0, sample_rate=16000)
        path = tmp_path / "codes.wav"
        audio_io.write_wav(path, buf, "pcm16")
        assert np.array_equal(np.frombuffer(path.read_bytes()[-2 * len(codes):], "<i2"), codes)
        back = audio_io.read_wav(path)
        assert np.array_equal(back.samples, buf.samples)

    @pytest.mark.parametrize("encoding", sorted(audio_io.WAV_ENCODINGS))
    def test_odd_sample_count_riff_size(self, tmp_path, encoding):
        samples = np.linspace(-0.5, 0.5, 7)
        path = tmp_path / "odd.wav"
        audio_io.write_wav(path, AudioBuffer(samples=samples, sample_rate=8000), encoding)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 4)[0] == len(raw) - 8
        back, found = audio_io.read_wav_encoded(path)
        assert found == encoding and back.sample_rate == 8000
        assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768

    def test_empty_buffer_rejected(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros(0), sample_rate=16000)
        with pytest.raises(EmptyAudioError):
            audio_io.write_wav(tmp_path / "e.wav", buf, "pcm16")

    @pytest.mark.parametrize("encoding, rate", [("pcm16", 2**31), ("float32", 2**30)])
    def test_byte_rate_past_32_bits_rejected(self, tmp_path, encoding, rate):
        # The same rule as read_wav's: the fmt chunk stores rate * bytes per sample in 32 bits.
        path = tmp_path / "fast.wav"
        with pytest.raises(UnsupportedFormatError, match="overflows 32 bits"):
            audio_io.write_wav(path, AudioBuffer(samples=np.zeros(4), sample_rate=rate), encoding)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("encoding", sorted(audio_io.WAV_ENCODINGS))
    def test_riff_size_past_32_bits_rejected(self, tmp_path, encoding):
        # The bound follows write_wav's own layout: RIFF size = header + samples * width.
        path = tmp_path / "one.wav"
        audio_io.write_wav(path, AudioBuffer(samples=np.zeros(1), sample_rate=8000), encoding)
        width = audio_io.WAV_ENCODINGS[encoding][1] // 8
        limit = (0xFFFFFFFF - (len(path.read_bytes()) - 8 - width)) // width

        def huge(n):  # one sample that reports length n: the bound without allocating it
            class Huge(AudioBuffer):
                def __len__(self):
                    return n

            return Huge(np.zeros(1), 8000)

        audio_io.write_wav(tmp_path / "limit.wav", huge(limit), encoding)
        for n in (limit + 1, 2 * limit):
            with pytest.raises(UnsupportedFormatError, match="32-bit RIFF size"):
                audio_io.write_wav(tmp_path / "huge.wav", huge(n), encoding)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["limit.wav", "one.wav"]

    def test_encoding_probe(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros(8), sample_rate=8000)
        audio_io.write_wav(tmp_path / "a.wav", buf, "pcm16")
        audio_io.write_wav(tmp_path / "b.wav", buf, "float32")
        assert audio_io.read_wav_encoded(tmp_path / "a.wav")[1] == "pcm16"
        assert audio_io.read_wav_encoded(tmp_path / "b.wav")[1] == "float32"


def _failing(monkeypatch, stage, exc):
    """Make write_file's write (after half the bytes) or its rename raise exc."""
    if stage == "write":

        class Torn(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise exc

        monkeypatch.setattr(audio_io, "open", lambda fd, mode: Torn(fd, "w"), raising=False)
    else:

        def replace(src, dst):
            raise exc

        monkeypatch.setattr(audio_io.os, "replace", replace)


class TestWriteFile:
    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failure_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch, stage, exc):
        old = tmp_path / "old.wav"
        old.write_bytes(b"old bytes")
        _failing(monkeypatch, stage, exc)
        for target in (old, tmp_path / "new.wav"):
            with pytest.raises(type(exc)):
                audio_io.write_file(target, b"new bytes" * 100)
        assert old.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.wav"]

    def test_symlink_at_target_is_replaced_not_followed(self, tmp_path):
        outside = tmp_path / "outside.wav"
        outside.write_bytes(b"keep")
        out = tmp_path / "out"
        out.mkdir()
        link = out / "u1.glottal.wav"
        link.symlink_to(outside)
        audio_io.write_wav(link, AudioBuffer(samples=np.zeros(8), sample_rate=8000))
        assert outside.read_bytes() == b"keep"
        assert not link.is_symlink() and link.is_file()
        assert len(audio_io.read_wav(link)) == 8

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            audio_io.write_file(tmp_path / "m.json", "{}\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "m.json").stat().st_mode) == 0o666 & ~umask

    def test_name_at_the_file_name_limit(self, tmp_path):
        path = tmp_path / ("u" * 251 + ".rfb")
        assert len(path.name.encode()) == 255
        audio_io.write_file(path, b"x")
        assert path.read_bytes() == b"x"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_text_is_utf8_and_overwrites(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a much longer earlier content")
        audio_io.write_file(path, "é\n")
        assert path.read_bytes() == "é\n".encode("utf-8")


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.array([0.0, np.nan]), sample_rate=16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros(4), sample_rate=0)

    @pytest.mark.parametrize("rate", [np.inf, -np.inf, np.nan, "abc", None, True, 10**400],
                             ids=["inf", "-inf", "nan", "abc", "None", "True", "10**400"])
    def test_rate_that_is_no_finite_real_rejected_by_its_own_check(self, rate):
        # Checked before int(), which raises its own error on most of these
        # and reads True as 1 Hz; 10**400 would fail only later, in float math.
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            AudioBuffer(samples=np.zeros(4), sample_rate=rate)

    def test_length_and_rate_preserved_via_file(self, tmp_path):
        rng = np.random.default_rng(2)
        for n, rate in ((17, 8000), (1000, 16000), (44100, 44100)):
            buf = AudioBuffer(samples=rng.uniform(-0.9, 0.9, n), sample_rate=rate)
            path = tmp_path / f"{n}.wav"
            audio_io.write_wav(path, buf, "float32")
            back = audio_io.read_wav(path)
            assert len(back) == n and back.sample_rate == rate


def _bundle(mel, f0):
    return FeatureBundle(mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: AudioBuffer(np.zeros((2, 2)), 16000), ValueError,
     "samples must be 1-D, got shape (2, 2)"),
    (lambda tmp: _bundle(np.zeros(4), np.zeros(4)), ValueError, "mel must be 2-D, got shape (4,)"),
    (lambda tmp: _bundle(np.zeros((4, 2)), np.zeros(3)), ValueError,
     "mel has 4 frames but f0 has shape (3,)"),
    (lambda tmp: audio_io.write_wav(tmp / "x.wav", AudioBuffer(np.zeros(4), 16000), "pcm24"),
     ValueError, "encoding must be one of ['float32', 'pcm16'], got 'pcm24'"),
    (lambda tmp: audio_io.read_features(tmp / "missing.rfb"), FileNotFoundError,
     "no such feature file"),
], ids=["samples-2-d", "mel-1-d", "f0-frame-count", "unknown-encoding", "missing-feature-file"])
def test_bad_input_rejected(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


def _lpc():
    return dsp.LpcModel(coeffs=np.zeros(2), gain=1.0)


def _buf():
    return AudioBuffer(np.zeros(4), 16000)


# Every result type that holds an array: == compares identity, as ScoreSet's does.
ARRAY_HOLDERS = {
    "AudioBuffer": _buf,
    "LpcModel": _lpc,
    "LpcRows": lambda: dsp.LpcRows(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1),
                                   np.zeros(1, dtype=bool)),
    "GlottalFrameResult": lambda: GlottalFrameResult(np.zeros(4), _lpc(), _lpc()),
    "GlottalFlowResult": lambda: GlottalFlowResult(_buf(), 0, 1),
    "GriffinLimResult": lambda: GriffinLimResult(_buf(), np.zeros(3)),
    "CopySynthesisResult": lambda: CopySynthesisResult(
        _buf(), None, FeatureBundle(np.zeros((2, 3)), np.zeros(2), 16000.0, 256, 1024)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_eq_in_and_hash_do_not_raise(make):
    a, b = make(), make()
    assert a == a and a != b  # no elementwise ==
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_feature_bundle_equal_by_value_and_unhashable():
    def make():
        return FeatureBundle(np.zeros((2, 3)), np.zeros(2), 16000.0, 256, 1024)

    a, b = make(), make()
    assert a == b and a in [b] and not a != b
    assert a != replace(b, f0=np.ones(2))
    with pytest.raises(TypeError, match="unhashable type: 'FeatureBundle'"):
        hash(a)


def _any_row(columns):
    """A read_tsv build that accepts every row and returns the columns."""
    return columns


# Any text, with the characters a TSV line cannot hold, its reader drops or
# UTF-8 cannot encode (lone surrogates) drawn often.
MANIFEST_TEXT = st.text(
    st.one_of(
        st.sampled_from("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff\ud800\udbff\udc00\udfff/\\\x00. -"),
        st.characters(),
    ),
    max_size=6,
)


class TestManifest:
    def test_parse(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("LA_T_1\ta.wav\tbonafide\t-\nLA_T_2\tb.wav\tspoof\tA07\n")
        entries = audio_io.read_manifest(path)
        assert len(entries) == 2
        assert entries[0].key == "bonafide"
        assert entries[1].attack == "A07"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tbonafide\t-\nu1\tb.wav\tspoof\tA07\n")
        with pytest.raises(DuplicateIdError):
            audio_io.read_manifest(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tbonafide\t-\nu2\tb.wav\tspoof\n")
        with pytest.raises(ParseError, match=":2"):
            audio_io.read_manifest(path)

    @pytest.mark.parametrize("utt_id", ["", ".", "..", "../x", "a/b", "a\\b", "/abs", "a\x00b"])
    def test_id_must_be_plain_file_name(self, tmp_path, utt_id):
        path = tmp_path / "m.tsv"
        path.write_text(f"u1\ta.wav\tbonafide\t-\n{utt_id}\tb.wav\tspoof\tA07\n")
        with pytest.raises(ParseError, match=":2"):
            audio_io.read_manifest(path)

    def test_bonafide_with_attack_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tbonafide\tA07\n")
        with pytest.raises(ParseError):
            audio_io.read_manifest(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tgenuine\t-\n")
        with pytest.raises(ParseError):
            audio_io.read_manifest(path)

    def test_tsv_reader_contract(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t1\n\n  \nb\t2\n")
        assert audio_io.read_tsv(path, 2, "table", _any_row) == [["a", "b"], ["1", "2"]]
        with pytest.raises(FileNotFoundError, match="no such table"):
            audio_io.read_tsv(tmp_path / "missing.tsv", 2, "table", _any_row)
        path.write_bytes(b"a\t1\nb\t\xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            audio_io.read_tsv(path, 2, "table", _any_row)
        path.write_text("a\t1\nb\t2\tx\n")
        with pytest.raises(ParseError, match=":2: expected 2"):
            audio_io.read_tsv(path, 2, "table", _any_row)
        path.write_text("a\t1\n\na\t2\n")
        with pytest.raises(DuplicateIdError, match=":3"):
            audio_io.read_tsv(path, 2, "table", _any_row)

    def test_build_runs_once_unless_a_line_is_bad(self, tmp_path):
        calls = []

        def build(columns):
            calls.append(len(columns[0]))
            if "bad" in columns[1]:
                raise ValueError("bad value")
            return columns

        path = tmp_path / "t.tsv"
        lines = [f"u{i}\tok\n" for i in range(20000)]
        path.write_text("".join(lines))
        assert audio_io.read_tsv(path, 2, "table", build)[0][-1] == "u19999"
        assert calls == [20000]
        calls.clear()
        path.write_text("".join(lines[:-1]) + "u19999\tbad\n")
        with pytest.raises(ParseError, match=r":20000: bad value$"):
            audio_io.read_tsv(path, 2, "table", build)
        assert calls == [20000] + [1] * 20000

    def test_leading_bom_ignored(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"\xef\xbb\xbfu0\ta.wav\tbonafide\t-\n")
        columns = [["u0"], ["a.wav"], ["bonafide"], ["-"]]
        assert audio_io.read_tsv(path, 4, "manifest", _any_row) == columns
        assert audio_io.read_manifest(path)[0].utt_id == "u0"

    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("u1", "a.wav", "bonafide", "-"),
            ManifestEntry("u2", "sub/b.wav", "spoof", "A17"),
        ]
        path = tmp_path / "m.tsv"
        audio_io.write_manifest(path, entries)
        assert audio_io.read_manifest(path) == entries

    @pytest.mark.parametrize("field, value", [
        ("utt_id", "a\tb"), ("utt_id", "a\x1cb"), ("path", "x\ny.wav"), ("attack", "A\t1"),
        ("utt_id", "\ufeffa"), ("utt_id", "a\ud800"), ("path", "\udfffx.wav"), ("attack", "A\udc00"),
    ])
    def test_field_that_would_not_read_back_rejected(self, field, value):
        fields = {"utt_id": "u1", "path": "a.wav", "key": "spoof", "attack": "A07", field: value}
        with pytest.raises(ValueError, match=field):
            ManifestEntry(**fields)

    def test_bom_on_a_later_line_names_it(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"u0\ta.wav\tbonafide\t-\n\xef\xbb\xbfu1\tb.wav\tbonafide\t-\n")
        with pytest.raises(ParseError, match=":2: utt_id .* starts with a byte-order mark"):
            audio_io.read_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(utt_id=MANIFEST_TEXT, path=MANIFEST_TEXT, key=st.sampled_from(MANIFEST_KEYS),
           attack=st.one_of(st.just("-"), MANIFEST_TEXT))
    def test_every_accepted_entry_reads_back(self, tmp_path_factory, utt_id, path, key, attack):
        try:
            entry = ManifestEntry(utt_id, path, key, attack)
        except ValueError:
            return
        manifest = tmp_path_factory.mktemp("manifest") / "m.tsv"
        audio_io.write_manifest(manifest, [entry])
        assert audio_io.read_manifest(manifest) == [entry]


def _random_bundle(rng, n_frames=23, n_mels=12):
    mel = np.log(np.maximum(rng.uniform(0, 2, (n_frames, n_mels)), 1e-10))
    f0 = np.where(rng.random(n_frames) < 0.3, 0.0, rng.uniform(50, 400, n_frames))
    return FeatureBundle(
        mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024
    )


# Doubles whose bit patterns a lossy codec would change: signed zero,
# subnormals and values near the top of the exponent range.
EDGE_DOUBLES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300]


@st.composite
def feature_bundles(draw):
    """Any shape from one frame and one band up, values mixing EDGE_DOUBLES into finite doubles."""
    n_frames = draw(st.integers(1, 6))
    n_mels = draw(st.integers(1, 6))
    values = st.one_of(
        st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
    )
    return FeatureBundle(
        mel=draw(arrays(np.float64, (n_frames, n_mels), elements=values)),
        f0=draw(arrays(np.float64, n_frames, elements=values)),
        sample_rate=draw(st.floats(allow_nan=False)),
        hop_length=draw(st.integers(0, 2**32 - 1)),
        win_length=draw(st.integers(0, 2**32 - 1)),
    )


class TestFeatureFile:
    @settings(max_examples=60, deadline=None)
    @given(feature_bundles())
    @example(FeatureBundle(
        mel=np.array([EDGE_DOUBLES]), f0=np.array([-0.0]), sample_rate=16000.0,
        hop_length=256, win_length=1024,
    ))
    @example(FeatureBundle(
        mel=np.array(EDGE_DOUBLES)[:, None], f0=np.array(EDGE_DOUBLES), sample_rate=16000.0,
        hop_length=256, win_length=1024,
    ))
    def test_codec_returns_the_same_bytes(self, tmp_path_factory, bundle):
        path = tmp_path_factory.mktemp("rfb") / "x.rfb"
        audio_io.write_features(path, bundle)
        raw = path.read_bytes()
        back = audio_io.read_features(path)
        assert back.mel.tobytes() == bundle.mel.tobytes()
        assert back.f0.tobytes() == bundle.f0.tobytes()
        assert np.float64(back.sample_rate).tobytes() == np.float64(bundle.sample_rate).tobytes()
        assert (back.hop_length, back.win_length) == (bundle.hop_length, bundle.win_length)
        audio_io.write_features(path, back)
        assert path.read_bytes() == raw

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        bundle = _random_bundle(rng)
        path = tmp_path / "x.rfb"
        audio_io.write_features(path, bundle)
        back = audio_io.read_features(path)
        assert back == bundle
        assert back.sample_rate == bundle.sample_rate
        assert back.hop_length == bundle.hop_length
        assert back.win_length == bundle.win_length

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.rfb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            audio_io.read_features(path)

    def test_truncated_never_partial(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "x.rfb"
        audio_io.write_features(path, _random_bundle(rng))
        raw = path.read_bytes()
        for cut in (2, 10, len(raw) - 9):
            (tmp_path / "t.rfb").write_bytes(raw[:cut])
            with pytest.raises((BadMagicError, ParseError)):
                audio_io.read_features(tmp_path / "t.rfb")

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "x.rfb"
        audio_io.write_features(path, _random_bundle(rng))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            audio_io.read_features(path)

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "x.rfb"
        audio_io.write_features(path, _random_bundle(rng))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            audio_io.read_features(path)
