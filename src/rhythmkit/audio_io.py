"""Audio, manifest and feature-file I/O.

WAV support is deliberately narrow: mono RIFF/WAVE, PCM16 or IEEE float32.
Samples are held as float64 internally regardless of file encoding.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .dsp import FrameSpec
from .errors import EmptyAudioError, ParseError, UnsupportedFormatError

# Sample encodings: name -> (fmt chunk format code, bits per sample, stored
# dtype, full scale), where full scale is the stored value of a 1.0 sample.
WAV_ENCODINGS: dict[str, tuple[int, int, str, float]] = {
    "pcm16": (1, 16, "<i2", 32768.0),
    "float32": (3, 32, "<f4", 1.0),
}
WAV_FMT = struct.Struct("<HHIIHH")  # "fmt " body: format, channels, rate, byte rate, align, bits

FEATURE_MAGIC = b"RFB1"
FEATURE_VERSION = 1
RFB_HEADER = struct.Struct("<4sIIIdII")  # magic, version, frames, mels, rate, hop, win

MANIFEST_KEYS = ("bonafide", "spoof")
BONAFIDE_ATTACK = "-"

T = TypeVar("T")


def _whole_rate(rate: object) -> int:
    """rate as an int; ValueError unless it is a whole, positive, finite number, not a bool."""
    try:  # NaN and +-inf are not finite; an int past float range raises OverflowError
        whole = isinstance(rate, numbers.Real) and math.isfinite(rate) and int(rate) == rate
    except OverflowError:
        whole = False
    if isinstance(rate, bool) or not whole or rate <= 0:
        raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
    return int(rate)


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class AudioBuffer:
    """Mono signal: float64 samples in [-1, 1] plus sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", _whole_rate(self.sample_rate))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True, eq=False)  # its own value ==, so unhashable
class FeatureBundle:
    """Time-aligned log-mel frames and F0 track plus the framing metadata."""

    mel: np.ndarray  # (n_frames, n_mels), natural log of floored mel power
    f0: np.ndarray  # (n_frames,), Hz; 0.0 = unvoiced
    sample_rate: float
    hop_length: int
    win_length: int

    def __post_init__(self) -> None:
        mel = np.asarray(self.mel, dtype=np.float64)
        f0 = np.asarray(self.f0, dtype=np.float64)
        if mel.ndim != 2:
            raise ValueError(f"mel must be 2-D, got shape {mel.shape}")
        if f0.shape != (mel.shape[0],):
            raise ValueError(f"mel has {mel.shape[0]} frames but f0 has shape {f0.shape}")
        if not (np.all(np.isfinite(mel)) and np.all(np.isfinite(f0))):
            raise ValueError("mel and f0 must be finite (no NaN/Inf)")
        # The framing and rate a render needs; sample_rate is kept as given.
        FrameSpec(self.win_length, self.hop_length)
        _whole_rate(self.sample_rate)
        object.__setattr__(self, "mel", mel)
        object.__setattr__(self, "f0", f0)

    @property
    def n_frames(self) -> int:
        return self.mel.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureBundle):
            return NotImplemented
        return (
            np.array_equal(self.mel, other.mel)
            and np.array_equal(self.f0, other.f0)
            and self.sample_rate == other.sample_rate
            and self.hop_length == other.hop_length
            and self.win_length == other.win_length
        )


@dataclass(frozen=True)
class ManifestEntry:
    """One corpus row: utterance id, audio path, bonafide/spoof key, attack tag."""

    utt_id: str
    path: str
    key: str
    attack: str

    def __post_init__(self) -> None:
        # Ids name output files inside --out, so they must be plain file names.
        if self.utt_id in ("", ".", "..") or any(c in self.utt_id for c in "/\\\0"):
            raise ValueError(f"utt_id {self.utt_id!r} is not a plain file name")
        # write_manifest's fields must read back as themselves: no tab, no line break,
        # no lone surrogate (UTF-8 cannot encode it) and no leading byte-order mark.
        for name, value in (("utt_id", self.utt_id), ("path", self.path), ("attack", self.attack)):
            if "\t" in value or len(f"{value}.".splitlines()) > 1:
                raise ValueError(f"{name} {value!r} holds a tab or a line break")
            if any("\ud800" <= c <= "\udfff" for c in value):
                raise ValueError(f"{name} {value!r} holds a lone surrogate")
        if self.utt_id.startswith("\ufeff"):
            raise ValueError(f"utt_id {self.utt_id!r} starts with a byte-order mark")
        if self.key not in MANIFEST_KEYS:
            raise ValueError(f"key must be one of {MANIFEST_KEYS}, got {self.key!r}")
        if self.key == "bonafide" and self.attack != BONAFIDE_ATTACK:
            raise ValueError(
                f"bonafide entries must carry attack {BONAFIDE_ATTACK!r}, got {self.attack!r}"
            )


def write_file(path: str | Path, data: bytes | str) -> None:
    """Commit data (a str as UTF-8) to path: every output file goes through here.

    The bytes go to a temp file in the target's directory, which is then
    renamed over the target, so a run killed midway leaves the old file or the
    new one, never a torn one, and a symlink at path is replaced, not followed.
    On any failure, KeyboardInterrupt included, the temp file is removed.
    There is no fsync: this guards against interrupted runs, not power loss."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    # A fixed-length name, so a target name at the file-name limit still works.
    tmp = path.parent / f".rhythmkit-{uuid.uuid4().hex}.tmp"
    # Mode 0o666 & ~umask, as a plain open() gives; tempfile.mkstemp would give 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_chunks(raw: bytes, path: Path) -> dict[str, bytes]:
    if len(raw) < 12:
        raise UnsupportedFormatError(f"{path}: too small to be a RIFF file")
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnsupportedFormatError(f"{path}: not a RIFF/WAVE container")
    chunks: dict[str, bytes] = {}
    off = 12
    while off + 8 <= len(raw):
        cid = raw[off : off + 4]
        (size,) = struct.unpack_from("<I", raw, off + 4)
        body = raw[off + 8 : off + 8 + size]
        if len(body) < size:
            raise UnsupportedFormatError(f"{path}: truncated chunk {cid!r}")
        chunks.setdefault(cid.decode("latin-1"), body)
        off += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def _check_byte_rate(path: str | Path, sample_rate: int, bits: int) -> None:
    """Reject a rate whose byte rate, sample_rate * bits // 8, overflows its 32-bit fmt field."""
    if sample_rate * (bits // 8) > 0xFFFFFFFF:
        raise UnsupportedFormatError(f"{path}: byte rate of sample_rate={sample_rate} "
                                     f"at {bits} bits overflows 32 bits")


def read_wav_encoded(path: str | Path) -> tuple[AudioBuffer, str]:
    """Decode a mono WAV file and name its encoding, a key of WAV_ENCODINGS.

    Samples are divided by the full scale, so PCM16 -32768 maps to -1.0."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such audio file: {path}")
    chunks = _read_chunks(path.read_bytes(), path)
    if "fmt " not in chunks or "data" not in chunks:
        raise UnsupportedFormatError(f"{path}: missing fmt/data chunk")
    fmt = chunks["fmt "]
    if len(fmt) < WAV_FMT.size:
        raise UnsupportedFormatError(f"{path}: fmt chunk too short")
    audio_format, channels, sample_rate, _, _, bits = WAV_FMT.unpack_from(fmt)
    if channels != 1 or sample_rate == 0:
        raise UnsupportedFormatError(f"{path}: channels={channels} sample_rate={sample_rate}")
    names = [name for name, enc in WAV_ENCODINGS.items() if enc[:2] == (audio_format, bits)]
    if not names:
        raise UnsupportedFormatError(f"{path}: unsupported format={audio_format} bits={bits}")
    _, _, dtype, full_scale = WAV_ENCODINGS[names[0]]
    _check_byte_rate(path, sample_rate, bits)
    data = chunks["data"]
    n = len(data) // (bits // 8)
    if n == 0:
        raise EmptyAudioError(f"{path}: data chunk holds no samples")
    samples = np.frombuffer(data, dtype=dtype, count=n).astype(np.float64) / full_scale
    try:
        return AudioBuffer(samples=samples, sample_rate=sample_rate), names[0]
    except ValueError as exc:  # a float32 file holding NaN or Inf
        raise UnsupportedFormatError(f"{path}: {exc}") from exc


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a mono WAV file in one of the WAV_ENCODINGS into an AudioBuffer."""
    return read_wav_encoded(path)[0]


def write_wav(path: str | Path, buf: AudioBuffer, encoding: str = "pcm16") -> None:
    """Write an AudioBuffer as mono WAV; samples clamped to [-1, 1] for pcm16."""
    if len(buf) == 0:
        raise EmptyAudioError("refusing to write a buffer with no samples")
    if encoding not in WAV_ENCODINGS:
        raise ValueError(f"encoding must be one of {sorted(WAV_ENCODINGS)}, got {encoding!r}")
    audio_format, bits, dtype, full_scale = WAV_ENCODINGS[encoding]
    _check_byte_rate(path, buf.sample_rate, bits)
    is_float = np.dtype(dtype).kind == "f"  # non-PCM formats carry a 12-byte fact chunk
    if 36 + 12 * is_float + len(buf) * (bits // 8) > 0xFFFFFFFF:  # RIFF size, 32 bits
        raise UnsupportedFormatError(f"{path}: too many samples for a {encoding} WAV's 32-bit RIFF size")
    values = buf.samples
    if not is_float:
        info = np.iinfo(dtype)
        values = np.clip(np.rint(np.clip(values, -1.0, 1.0) * full_scale), info.min, info.max)
    payload = values.astype(dtype).tobytes()
    block_align = bits // 8
    byte_rate = buf.sample_rate * block_align
    fmt = WAV_FMT.pack(audio_format, 1, buf.sample_rate, byte_rate, block_align, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if is_float:
        body += b"fact" + struct.pack("<II", 4, len(buf))
    body += b"data" + struct.pack("<I", len(payload)) + payload
    write_file(path, b"RIFF" + struct.pack("<I", len(body)) + body)


def read_tsv(
    path: str | Path, n_fields: int, what: str, build: Callable[[list[list[str]]], T]
) -> T:
    """Return build(columns) for the n_fields string columns of the non-blank
    lines of a UTF-8 TSV file; a leading byte-order mark is dropped.

    Each line needs n_fields tab-separated fields and a first field no earlier
    line used; ``what`` names the file kind in errors. ``build`` raises
    ValueError if any row is bad. If a check fails, the lines are checked
    again one at a time in file order, ``build`` given each line alone, and
    the first bad line names the error."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such {what}: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    if not all(lines) or any(map(str.isspace, lines)):  # drop blank lines
        lines = [line for line in lines if line.strip()]
    if not lines:  # "".split("\t") is [""], so an empty file needs its own case
        return build([[] for _ in range(n_fields)])
    n_rows, stride = len(lines), n_fields + 1
    joined = "\t\n\t".join(lines)  # no line holds "\n", so "\n" fields mark the joins
    del lines  # the lines go before the fields come, which keeps peak memory down
    fields = joined.split("\t")
    del joined
    if len(fields) == n_rows * stride - 1 and fields[n_fields::stride].count("\n") == n_rows - 1:
        columns = [fields[k::stride] for k in range(n_fields)]
        del fields
        if len(set(columns[0])) == n_rows:
            try:
                return build(columns)
            except ValueError:
                pass
    # Some line is bad: check the lines in file order to name the first.
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = line.split("\t")
        if len(row) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(row)}"
            )
        if row[0] in seen:
            raise ParseError(f"{path}:{lineno}: duplicate id {row[0]!r}")
        seen.add(row[0])
        try:
            build([[field] for field in row])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    raise AssertionError(f"{path}: the columns failed a check but every line passed")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Parse a TSV manifest: utt_id, path, key, attack; one entry per line."""
    return read_tsv(path, 4, "manifest", lambda columns: list(map(ManifestEntry, *columns)))


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    lines = [f"{e.utt_id}\t{e.path}\t{e.key}\t{e.attack}" for e in entries]
    write_file(path, "".join(line + "\n" for line in lines))


def write_features(path: str | Path, bundle: FeatureBundle) -> None:
    """Serialize a FeatureBundle; read_features inverts this bit-exactly."""
    mel = np.ascontiguousarray(bundle.mel, dtype="<f8")
    f0 = np.ascontiguousarray(bundle.f0, dtype="<f8")
    n_frames, n_mels = mel.shape
    header = RFB_HEADER.pack(
        FEATURE_MAGIC,
        FEATURE_VERSION,
        n_frames,
        n_mels,
        float(bundle.sample_rate),
        bundle.hop_length,
        bundle.win_length,
    )
    write_file(path, header + mel.tobytes() + f0.tobytes())


def read_features(path: str | Path) -> FeatureBundle:
    """Parse a feature file back into a FeatureBundle; never returns a partial bundle."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such feature file: {path}")
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != FEATURE_MAGIC:
        raise ParseError(f"{path}: missing {FEATURE_MAGIC!r} magic")
    header_size = RFB_HEADER.size
    if len(raw) < header_size:
        raise ParseError(f"{path}: truncated header")
    _, version, n_frames, n_mels, sample_rate, hop_length, win_length = RFB_HEADER.unpack_from(raw)
    if version != FEATURE_VERSION:
        raise ParseError(f"{path}: version {version}, expected {FEATURE_VERSION}")
    mel_bytes = 8 * n_frames * n_mels
    f0_bytes = 8 * n_frames
    if len(raw) != header_size + mel_bytes + f0_bytes:
        raise ParseError(
            f"{path}: payload is {len(raw) - header_size} bytes, expected {mel_bytes + f0_bytes}"
        )
    mel = np.frombuffer(raw, dtype="<f8", count=n_frames * n_mels, offset=header_size)
    f0 = np.frombuffer(raw, dtype="<f8", count=n_frames, offset=header_size + mel_bytes)
    try:
        return FeatureBundle(mel=mel.reshape(n_frames, n_mels).copy(), f0=f0.copy(),
                             sample_rate=sample_rate, hop_length=hop_length, win_length=win_length)
    except ValueError as exc:  # a NaN or Inf value, a bad framing or rate
        raise ParseError(f"{path}: {exc}") from exc
