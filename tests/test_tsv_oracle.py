"""The columnar TSV readers against the line-by-line readers they replaced.

The reference functions below are the readers as they were before
`read_tsv` returned columns: a generator over lines, and callers that check
each row as it comes. They fix the contract the column code must keep: the
same rows, or the same exception type and message for the first bad line in
file order, with per-line checks in the order field count, duplicate id, then
the caller's own checks.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from rhythmkit import audio_io, cli
from rhythmkit.audio_io import MANIFEST_KEYS, ManifestEntry
from rhythmkit.errors import DuplicateIdError, ParseError
from rhythmkit.evaluation import load_attack_groups, read_scores


def ref_read_tsv(path, n_fields, what):
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such {what}: {path}")
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} is not UTF-8 text: {exc}") from exc
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        if fields[0] in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate id {fields[0]!r}")
        seen.add(fields[0])
        yield lineno, fields


def ref_read_scores(path):
    scores, bonafide, attack = [], [], []
    for lineno, (_, key, label, score_text) in ref_read_tsv(path, 4, "score file"):
        try:
            score = float(score_text)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if key not in MANIFEST_KEYS:
            raise ParseError(f"{path}:{lineno}: key must be one of {MANIFEST_KEYS}, got {key!r}")
        if not math.isfinite(score):
            raise ParseError(f"{path}:{lineno}: score must be finite, got {score_text!r}")
        scores.append(score)
        bonafide.append(key == "bonafide")
        attack.append(label)
    return np.array(scores, dtype=np.float64).tobytes(), bonafide, attack


def ref_read_manifest(path):
    entries = []
    for lineno, fields in ref_read_tsv(path, 4, "manifest"):
        try:
            entries.append(ManifestEntry(*fields))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return entries


def ref_load_attack_groups(path):
    groups = {}
    for lineno, (attack, group) in ref_read_tsv(path, 2, "mapping file"):
        if group not in ("TTS", "VC"):
            raise ParseError(f"{path}:{lineno}: expected '<attack>\\tTTS|VC'")
        groups[attack] = group
    return groups


def new_read_scores(path):
    s = read_scores(path)
    return s.scores.tobytes(), s.bonafide.tolist(), s.attack.tolist()


# Every separator str.splitlines honours; "\r\n" counts as one.
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANKS = ["", " ", "   ", "\t", "\t\t\t", " \t ", "\u3000"]
# Scores that float() accepts, odd or not; finiteness is a separate check.
GOOD_SCORES = ["1.5", "-0.0", "0.0", "1_0", " 2.5 ", "1e3", "+3", "-.5", "\u00a07", "\u0663"]


def _score_row(rng, i):
    key = ["bonafide", "spoof"][rng.integers(2)]
    attack = "-" if key == "bonafide" else f"A{rng.integers(7, 20):02d}"
    return [f"u{i}", key, attack, GOOD_SCORES[rng.integers(len(GOOD_SCORES))]]


def _manifest_row(rng, i):
    key = ["bonafide", "spoof"][rng.integers(2)]
    return [f"u{i}", f"w{i}.wav", key, "-" if key == "bonafide" else "A07"]


def _mapping_row(rng, i):
    return [f"A{i:02d}", ["TTS", "VC"][rng.integers(2)]]


# kind -> (reader, reference reader, row maker, [(column, values the reader rejects there)])
READERS = {
    "scores": (new_read_scores, ref_read_scores, _score_row,
               [(3, ["abc", "", "1.2.3", "0x10", "1__0"]), (3, ["nan", "inf", "-inf", "1e999"]),
                (1, ["spooof", "Bonafide", ""])]),
    "manifest": (audio_io.read_manifest, ref_read_manifest, _manifest_row,
                 [(0, ["..", "a/b", "", "."]), (2, ["genuine", ""]), (3, ["A07"])]),
    "mapping": (load_attack_groups, ref_load_attack_groups, _mapping_row,
                [(1, ["tts", "other", ""])]),
}


def _defect(rng, rows, field_defects):
    i = int(rng.integers(len(rows)))
    row = rows[i]
    kind = rng.integers(3)
    if kind == 0:  # wrong field count
        rows[i] = row + ["x"] if rng.integers(2) else row[:-1]
    elif kind == 1 and i > 0:  # a first column an earlier row used
        rows[i] = [rows[int(rng.integers(i))][0]] + row[1:]
    else:  # a field the caller's checks reject (a spoof row's attack is no defect)
        col, values = field_defects[int(rng.integers(len(field_defects)))]
        rows[i] = row[:col] + [values[int(rng.integers(len(values)))]] + row[col + 1:]


def _random_file(rng, make_row, field_defects):
    rows = [make_row(rng, i) for i in range(int(rng.integers(1, 12)))]
    for _ in range(int(rng.integers(0, 4))):
        _defect(rng, rows, field_defects)
    lines = ["\t".join(row) for row in rows]
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), BLANKS[int(rng.integers(len(BLANKS)))])
    text = ""
    for line in lines:
        text += line + SEPARATORS[int(rng.integers(len(SEPARATORS)))]
    if rng.integers(2):
        text = text[:-1] if text.endswith(("\n", "\r")) else text
    bom = "\ufeff" if rng.integers(4) == 0 else ""
    return (bom + text).encode("utf-8")


def _outcome(read, path):
    try:
        return "ok", read(path)
    except (ParseError, DuplicateIdError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_columns_match_line_reader(tmp_path, kind):
    read, ref, make_row, field_defects = READERS[kind]
    rng = np.random.default_rng(["scores", "manifest", "mapping"].index(kind) + 16)
    path = tmp_path / "t.tsv"
    seen = set()
    for _ in range(400):
        path.write_bytes(_random_file(rng, make_row, field_defects))
        want = _outcome(ref, path)
        assert _outcome(read, path) == want, path.read_bytes()
        seen.add(want[0] if want[0] != "ParseError" else want[1].split(": ", 1)[1][:10])
    # Rows, duplicates, field counts and at least one of the reader's own checks all turned up.
    assert {"ok", "DuplicateIdError", f"expected {len(make_row(rng, 0))}"} < seen, seen


def test_first_bad_line_wins_over_a_later_duplicate(tmp_path):
    path = tmp_path / "s.tsv"
    rows = ["u1\tbonafide\t-\t1.0", "u2\tspoof\tA07\t0.5", "u3\tspoof\tA07\tabc",
            "u4\tspoof\tA07\t0.1", "u1\tspoof\tA07\t0.2"]
    path.write_text("".join(row + "\n" for row in rows))
    with pytest.raises(ParseError, match=r"s\.tsv:3: could not convert"):
        read_scores(path)
    path.write_text("u1\tspoof\tA07\t0.2\nu1\tbonafide\t-\t1.0\nu3\tspoof\tA07\tabc\n")
    with pytest.raises(DuplicateIdError, match=r"s\.tsv:2: "):
        read_scores(path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_field_counts_that_cancel_out_name_line_1(tmp_path, kind):
    # Line 1 has a field too many and line 2 lacks its id: the total field count is
    # right, and were the lines cut by count alone, line 2 would read as a good row.
    read, ref, make_row, _ = READERS[kind]
    rng = np.random.default_rng(0)
    first, second = make_row(rng, 0), make_row(rng, 1)
    path = tmp_path / "t.tsv"
    path.write_text("\t".join(first + ["x"]) + "\n" + "\t".join(second[1:]) + "\n")
    outcome = _outcome(read, path)
    assert outcome == _outcome(ref, path)
    assert outcome[0] == "ParseError" and f"{path}:1: expected {len(first)}" in outcome[1]


@pytest.mark.parametrize("text", ["", " \n\t\t\t\n\n   "], ids=["empty", "blank"])
class TestNoRows:
    def test_readers_return_nothing(self, tmp_path, text):
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        assert audio_io.read_manifest(path) == []
        assert len(read_scores(path).scores) == 0
        assert load_attack_groups(path) == {}

    @pytest.mark.parametrize("command", ["glottal", "features", "augment"])
    def test_batch_has_nothing_to_do(self, tmp_path, text, command):
        path = tmp_path / "m.tsv"
        path.write_text(text, encoding="utf-8")
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert cli.main([command, str(path), "--out", str(out), "--jobs", jobs]) == 0
            assert sorted(p.name for p in out.iterdir()) == ["config.effective.json",
                                                             "manifest.tsv"]
            assert (out / "manifest.tsv").read_bytes() == b""

    def test_eer_needs_both_classes(self, tmp_path, text, caplog):
        path = tmp_path / "s.tsv"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["eer", str(path)]) == 1
        message = "need at least one bonafide and one spoof trial, got 0/0"
        assert any(message in rec.getMessage() for rec in caplog.records)
