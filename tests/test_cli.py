import argparse
import collections
import importlib
import importlib.util
import json
import logging
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import am_harmonic_signal, two_formant_voice
from rhythmkit import audio_io, cli
from rhythmkit.audio_io import ManifestEntry
from rhythmkit.cli import RunConfig, build_run_config, main, ConfigError
from rhythmkit.features import FeatureBundle, FeatureConfig
from rhythmkit.glottal import IaifConfig
from rhythmkit.rpm import RpmConfig, Segment, SegmentPlan, apply_plan, rhythm_perturb
from rhythmkit.synthesis import GriffinLimConfig
from test_audio_io import HOSTILE_WAVS, _raw_wav
from test_evaluation import eer_oracle

NON_DEFAULT_CONFIG = {
    "iaif": {"vocal_tract_order": 20, "lip_d": 0.98},
    "features": {"win_length": 512, "hop_length": 128, "fmax": 7000.0, "n_mels": 64,
                 "f0_min": 60.0},
    "rpm": {"seg_min": 5, "factor_hi": 1.2, "seed": 7},
    "griffin_lim": {"n_iters": 3},
}


README = Path(__file__).resolve().parent.parent / "README.md"


def _key_tree(doc: dict) -> dict:
    """The nested key set of a config document, its values dropped."""
    return {key: _key_tree(value) if isinstance(value, dict) else None
            for key, value in doc.items()}


def _write_corpus(root: Path) -> Path:
    """Three bonafide utterances plus one spoof row, manifest with relative paths."""
    root.mkdir()
    lines = []
    for i in range(3):
        buf = am_harmonic_signal(seed=i)
        audio_io.write_wav(root / f"utt{i}.wav", buf, "pcm16")
        lines.append(f"utt{i}\tutt{i}.wav\tbonafide\t-")
    voice, _ = two_formant_voice()
    audio_io.write_wav(root / "sp0.wav", voice, "pcm16")
    lines.append("sp0\tsp0.wav\tspoof\tA07")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(line + "\n" for line in lines))
    return manifest


@pytest.fixture()
def corpus(tmp_path):
    return _write_corpus(tmp_path / "corpus")


class TestGlottalCommand:
    def test_batch_ok(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["glottal", str(corpus), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.glottal.wav")) == [
            "sp0.glottal.wav",
            "utt0.glottal.wav",
            "utt1.glottal.wav",
            "utt2.glottal.wav",
        ]
        assert (out / "config.effective.json").is_file()

    def test_partial_failure(self, corpus, tmp_path, caplog):
        manifest = corpus.parent / "broken.tsv"
        manifest.write_text(corpus.read_text() + "missing\tnope.wav\tbonafide\t-\n")
        out = tmp_path / "out"
        assert main(["glottal", str(manifest), "--out", str(out)]) == 2
        assert len(list(out.glob("*.glottal.wav"))) == 4
        assert any("missing" in rec.message for rec in caplog.records)

    def test_orders_that_do_not_fit_the_rate_fail_the_file(self, tmp_path, caplog):
        # At 2 kHz the default vocal_tract_order resolves to round(2 + 2) = 4 = glottal_order.
        root = tmp_path / "corpus"
        root.mkdir()
        audio_io.write_wav(root / "low.wav", am_harmonic_signal(fs=2000), "pcm16")
        manifest = root / "manifest.tsv"
        manifest.write_text("low\tlow.wav\tbonafide\t-\n")
        out = tmp_path / "out"
        assert main(["glottal", str(manifest), "--out", str(out)]) == 2
        assert not (out / "low.glottal.wav").exists()
        assert ("low: ValueError: need 0 < glottal_order < vocal_tract_order < win_length, "
                "got g=4 p=4 win=50") in [rec.getMessage() for rec in caplog.records]

    def test_flow_manifest_keeps_labels_and_feeds_features(self, corpus, tmp_path):
        flows, feats = tmp_path / "flows", tmp_path / "feats"
        assert main(["glottal", str(corpus), "--out", str(flows), "--jobs", "2"]) == 0
        entries = audio_io.read_manifest(flows / "manifest.tsv")
        assert [(e.utt_id, e.path, e.key, e.attack) for e in entries] == [
            ("utt0", "utt0.glottal.wav", "bonafide", "-"),
            ("utt1", "utt1.glottal.wav", "bonafide", "-"),
            ("utt2", "utt2.glottal.wav", "bonafide", "-"),
            ("sp0", "sp0.glottal.wav", "spoof", "A07"),
        ]
        assert main(["features", str(flows / "manifest.tsv"), "--out", str(feats)]) == 0
        assert audio_io.read_manifest(feats / "manifest.tsv") == [
            replace(e, path=f"{e.utt_id}.rfb") for e in entries
        ]
        for e in entries:
            assert audio_io.read_features(feats / f"{e.utt_id}.rfb").n_frames > 0

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        assert main(["glottal", str(manifest), "--out", str(tmp_path / "o")]) == 0


class TestOutputFiles:
    """Every file under --out is committed by audio_io.write_file."""

    @pytest.mark.parametrize("argv", [["glottal"], ["augment", "--save-features"]])
    def test_every_output_comes_through_write_file(self, corpus, tmp_path, monkeypatch, argv):
        committed = []
        real = audio_io.write_file

        def recording(path, data):
            real(path, data)
            committed.append(Path(path))

        monkeypatch.setattr(audio_io, "write_file", recording)
        out = tmp_path / "out"
        rest = ["--jobs", "2", "--config", str(_fast_config(tmp_path))]
        assert main([argv[0], str(corpus), "--out", str(out), *argv[1:], *rest]) == 0
        assert len(committed) == len(set(committed))
        assert set(committed) == set(out.iterdir())

    def test_symlink_in_out_is_replaced_not_followed(self, corpus, tmp_path):
        outside = tmp_path / "outside.wav"
        outside.write_bytes(b"keep")
        out = tmp_path / "out"
        out.mkdir()
        (out / "utt0.glottal.wav").symlink_to(outside)
        assert main(["glottal", str(corpus), "--out", str(out)]) == 0
        assert outside.read_bytes() == b"keep"
        assert not (out / "utt0.glottal.wav").is_symlink()
        audio_io.read_wav(out / "utt0.glottal.wav")

    def test_rate_too_low_for_iaif_names_the_rate(self, tmp_path, caplog):
        (tmp_path / "slow.wav").write_bytes(_raw_wav(1, 1, 8, 16, b"\x01\x00" * 64))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("slow\tslow.wav\tbonafide\t-\n")
        assert main(["glottal", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert any("slow: ValueError: iaif.win_ms" in rec.message and "8 Hz" in rec.message
                   for rec in caplog.records)


class TestBatchErrors:
    """Any Exception from one file's worker fails only that file; an interrupt aborts."""

    @staticmethod
    def _five_files(corpus, monkeypatch, name, exc):
        """Five-entry manifest whose second file makes cli.<name> raise exc."""
        manifest = corpus.parent / "five.tsv"
        manifest.write_text(corpus.read_text() + "utt3\tutt2.wav\tbonafide\t-\n")
        bad = audio_io.read_wav(corpus.parent / "utt1.wav").samples
        original = getattr(cli, name)

        def flaky(buf, *args):
            if np.array_equal(buf.samples, bad):
                raise exc
            return original(buf, *args)

        monkeypatch.setattr(cli, name, flaky)
        return manifest

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_error_fails_one_file(self, corpus, tmp_path, monkeypatch, caplog, jobs):
        manifest = self._five_files(
            corpus, monkeypatch, "extract_glottal_flow", FloatingPointError("overflow")
        )
        out = tmp_path / "out"
        assert main(["glottal", str(manifest), "--out", str(out), "--jobs", jobs]) == 2
        assert sorted(p.name for p in out.glob("*.glottal.wav")) == [
            "sp0.glottal.wav", "utt0.glottal.wav", "utt2.glottal.wav", "utt3.glottal.wav",
        ]
        entries = audio_io.read_manifest(out / "manifest.tsv")
        assert [e.utt_id for e in entries] == ["utt0", "utt2", "sp0", "utt3"]
        assert any("utt1: FloatingPointError: overflow" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_augment_writes_manifest_of_survivors(self, corpus, tmp_path, monkeypatch, jobs):
        manifest = self._five_files(corpus, monkeypatch, "copy_synthesize", ZeroDivisionError())
        out = tmp_path / "out"
        argv = ["augment", str(manifest), "--out", str(out), "--jobs", jobs,
                "--config", str(_fast_config(tmp_path))]
        assert main(argv) == 2
        entries = audio_io.read_manifest(out / "manifest.tsv")
        assert [e.utt_id for e in entries] == ["utt0", "utt2", "utt3"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_returned_entries_become_the_manifest(self, corpus, tmp_path, caplog, jobs):
        out = tmp_path / "out"
        args = argparse.Namespace(manifest=str(corpus), out=str(out), jobs=jobs)

        def worker(entry, buf, out_dir):
            return replace(entry, path=f"{entry.utt_id}.noop")

        with caplog.at_level(logging.INFO, logger="rhythmkit"):
            assert cli._run_manifest(args, RunConfig(), "noop", worker) == cli.EXIT_OK
        assert audio_io.read_manifest(out / "manifest.tsv") == [
            replace(e, path=f"{e.utt_id}.noop") for e in audio_io.read_manifest(corpus)
        ]
        assert "noop: 4/4 files ok" in caplog.messages
        assert not [rec for rec in caplog.records if rec.levelno >= logging.WARNING]

    def test_failed_slot_holds_its_exception(self):
        entries = [ManifestEntry(utt_id, f"{utt_id}.wav", "bonafide", "-") for utt_id in "abc"]
        exc = ValueError("bad")

        def worker(entry):
            if entry.utt_id == "b":
                raise exc
            return entry.utt_id

        assert cli._run_batch(entries, worker, 2) == ["a", exc, "c"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_keyboard_interrupt_aborts(self, corpus, tmp_path, monkeypatch, jobs):
        manifest = self._five_files(
            corpus, monkeypatch, "extract_glottal_flow", KeyboardInterrupt()
        )
        with pytest.raises(KeyboardInterrupt):
            main(["glottal", str(manifest), "--out", str(tmp_path / "out"), "--jobs", jobs])

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ctrl_c_finishes_files_in_flight(self, corpus, tmp_path, monkeypatch, jobs):
        manifest = corpus.parent / "five.tsv"
        manifest.write_text(corpus.read_text() + "utt3\tutt2.wav\tbonafide\t-\n")
        real = audio_io.write_wav
        lock = threading.Lock()
        written = []

        def interrupting(path, *args):
            with lock:
                written.append(Path(path))
                second = len(written) == 2
            if second:  # Ctrl-C while this file is being written
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.2)
            real(path, *args)

        monkeypatch.setattr(audio_io, "write_wav", interrupting)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        out = tmp_path / "out"
        try:
            with pytest.raises(KeyboardInterrupt):
                main(["glottal", str(manifest), "--out", str(out), "--jobs", jobs])
        finally:
            signal.signal(signal.SIGINT, previous)
        present = sorted(out.glob("*.glottal.wav"))
        assert written[1] in present
        for path in present:
            audio_io.read_wav(path)
        assert len(present) < 5
        assert not (out / "manifest.tsv").exists()
        if jobs == "1":
            assert len(present) == 2


class TestFeaturesCommand:
    def test_outputs_round_trip(self, corpus, tmp_path):
        out = tmp_path / "feat"
        assert main(["features", str(corpus), "--out", str(out)]) == 0
        files = sorted(out.glob("*.rfb"))
        assert len(files) == 4
        bundle = audio_io.read_features(files[0])
        assert bundle.n_frames > 0 and bundle.mel.shape[1] == 80

    def test_bom_manifest_writes_plain_ids(self, corpus, tmp_path):
        bom = corpus.parent / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
        out = tmp_path / "feat"
        assert main(["features", str(bom), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.rfb")) == [
            "sp0.rfb", "utt0.rfb", "utt1.rfb", "utt2.rfb"
        ]


class TestAugmentCommand:
    def test_rpm_off_preserves_duration(self, corpus, tmp_path):
        out = tmp_path / "copy"
        code = main(
            ["augment", str(corpus), "--out", str(out), "--rpm", "off",
             "--config", str(_fast_config(tmp_path))]
        )
        assert code == 0
        for i in range(3):
            src = audio_io.read_wav(corpus.parent / f"utt{i}.wav")
            dst = audio_io.read_wav(out / f"utt{i}.synth.wav")
            assert abs(len(dst) - len(src)) <= 1024  # one analysis window of slack
        assert not list(out.glob("*.plan.json"))
        entries = audio_io.read_manifest(out / "manifest.tsv")
        assert [e.attack for e in entries] == ["COPY"] * 3

    def test_spoof_entries_skipped(self, corpus, tmp_path, caplog):
        out = tmp_path / "aug"
        main(["augment", str(corpus), "--out", str(out), "--config", str(_fast_config(tmp_path))])
        assert not (out / "sp0.synth.wav").exists()
        assert any("sp0" in rec.message for rec in caplog.records)

    def test_deterministic_across_runs_and_jobs(self, corpus, tmp_path):
        cfg = _fast_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["augment", str(corpus), "--rpm", "on", "--seed", "77", "--config", str(cfg)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "3"]) == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_factor_range_flags(self, corpus, tmp_path):
        out = tmp_path / "narrow"
        code = main(
            ["augment", str(corpus), "--out", str(out), "--rpm", "on",
             "--factor-lo", "0.9", "--factor-hi", "1.1", "--seed", "3",
             "--config", str(_fast_config(tmp_path))]
        )
        assert code == 0
        plans = sorted(out.glob("*.plan.json"))
        assert len(plans) == 3
        for path in plans:
            doc = json.loads(path.read_text())
            assert doc["seed"] == 3
            for seg in doc["segments"]:
                assert 0.9 <= seg["factor"] <= 1.1
        entries = audio_io.read_manifest(out / "manifest.tsv")
        assert [e.attack for e in entries] == ["RPM"] * 3

    def test_echo_as_config_reproduces_every_file(self, corpus, tmp_path):
        first, second = tmp_path / "flags", tmp_path / "echo"
        assert main(["augment", str(corpus), "--out", str(first), "--save-features",
                     "--seed", "7", "--factor-lo", "0.9", "--factor-hi", "1.1",
                     "--config", str(_fast_config(tmp_path))]) == 0
        echo = first / "config.effective.json"
        assert main(["augment", str(corpus), "--out", str(second), "--save-features",
                     "--config", str(echo)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_spoof_only_manifest_feeds_features(self, corpus, tmp_path):
        spoofs = corpus.parent / "spoofs.tsv"
        spoofs.write_text(corpus.read_text().splitlines(keepends=True)[-1])
        aug, feats = tmp_path / "aug", tmp_path / "feats"
        assert main(["augment", str(spoofs), "--out", str(aug)]) == 0
        assert main(["features", str(aug / "manifest.tsv"), "--out", str(feats)]) == 0
        assert (feats / "manifest.tsv").read_bytes() == b""

    def test_save_features(self, corpus, tmp_path):
        # An RPM .rfb is its .plan.json applied to the features command's .rfb, bit for bit,
        # and a COPY .rfb is the features command's .rfb.
        feat, rpm, copy = tmp_path / "feat", tmp_path / "rpm", tmp_path / "copy"
        augment = ["augment", str(corpus), "--save-features",
                   "--config", str(_fast_config(tmp_path))]
        assert main(["features", str(corpus), "--out", str(feat)]) == 0
        assert main([*augment, "--out", str(rpm)]) == 0
        assert main([*augment, "--out", str(copy), "--rpm", "off"]) == 0
        for entry in audio_io.read_manifest(corpus):
            if entry.key != "bonafide":
                continue
            bundle = audio_io.read_features(feat / f"{entry.utt_id}.rfb")
            doc = json.loads((rpm / f"{entry.utt_id}.plan.json").read_text())
            plan = SegmentPlan(tuple(Segment(s["len"], s["factor"]) for s in doc["segments"]))
            expect = apply_plan(bundle, plan, f0_floor=FeatureConfig().f0_min)
            assert audio_io.read_features(rpm / f"{entry.utt_id}.rfb") == expect
            assert audio_io.read_features(copy / f"{entry.utt_id}.rfb") == bundle


@pytest.mark.parametrize("spelling", ["same", "dotted", "other-name"])
@pytest.mark.parametrize("command", ["glottal", "features", "augment"])
def test_out_over_input_manifest_exits_1_and_writes_nothing(corpus, command, spelling, caplog):
    root = corpus.parent
    manifest = corpus
    if spelling == "other-name":  # beside the corpus's own manifest.tsv, which --out would replace
        manifest = root / "two.tsv"
        manifest.write_text("".join(corpus.read_text().splitlines(keepends=True)[:2]))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    out = root / ".." / root.name / "." if spelling == "dotted" else root
    assert main([command, str(manifest), "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    message = " ".join(rec.getMessage() for rec in caplog.records)
    assert message.startswith(command)
    assert str(manifest) in message and f"--out {out} " in message


class TestHostileWavHeaders:
    def test_glottal_fails_each_file(self, tmp_path, caplog):
        lines = []
        for name, (raw, _) in HOSTILE_WAVS.items():
            (tmp_path / f"{name}.wav").write_bytes(raw)
            lines.append(f"{name}\t{name}.wav\tbonafide\t-\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(lines))
        out = tmp_path / "out"
        assert main(["glottal", str(manifest), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["config.effective.json", "manifest.tsv"]
        assert (out / "manifest.tsv").read_bytes() == b""
        for name, (_, message) in HOSTILE_WAVS.items():
            hits = [rec.message for rec in caplog.records
                    if rec.message.startswith(f"{name}: UnsupportedFormatError: ")]
            assert len(hits) == 1 and message in hits[0]


class TestEerCommand:
    @pytest.fixture()
    def scorefile(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(60):
            lines.append(f"b{i}\tbonafide\t-\t{rng.normal(1.2, 1.0):.6f}")
        for i, attack in enumerate(["A07", "A10", "A17"] * 25):
            lines.append(f"s{i}\tspoof\t{attack}\t{rng.normal(0.0, 1.0):.6f}")
        path = tmp_path / "scores.tsv"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_total_matches_bruteforce_oracle(self, scorefile, capsys):
        assert main(["eer", str(scorefile)]) == 0
        head, body = capsys.readouterr().out.strip().split("\n")
        cells = dict(zip(head.split(), body.split()))
        bona, spoof = [], []
        for line in scorefile.read_text().splitlines():
            utt, key, attack, score = line.split("\t")
            (bona if key == "bonafide" else spoof).append(float(score))
        expect = 100.0 * eer_oracle(bona, spoof)
        assert float(cells["Total"]) == pytest.approx(expect, abs=0.005)

    def test_json_output(self, scorefile, capsys):
        assert main(["eer", str(scorefile), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["per_attack"]) == {"A07", "A10", "A17"}
        assert doc["tts"] is not None and doc["vc"] is not None

    def test_insufficient_classes_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\tspoof\tA07\t0.5\n")
        assert main(["eer", str(path)]) == 1


SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_PROBE = """
import json, sys
from rhythmkit import cli
loaded = ["scipy.signal" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append("scipy.signal" in sys.modules)
print(json.dumps(loaded))
"""


def _fresh_python(args, timeout=120):
    """Run a new interpreter that imports rhythmkit from this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


class TestScipyLoadsOnlyToFilter:
    """scipy.signal takes about a second to import; only glottal filters."""

    def test_only_glottal_loads_scipy_signal(self, corpus, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text("b0\tbonafide\t-\t1.0\ns0\tspoof\tA07\t0.0\n")
        cfg = str(_fast_config(tmp_path))
        commands = [
            ["eer", str(scores), "--json"],
            ["features", str(corpus), "--out", str(tmp_path / "f")],
            ["augment", str(corpus), "--out", str(tmp_path / "a"), "--config", cfg],
            ["glottal", str(corpus), "--out", str(tmp_path / "g")],
        ]
        out = _fresh_python(["-c", SCIPY_PROBE, json.dumps(commands)]).stdout
        assert json.loads(out.splitlines()[-1]) == [False] * 4 + [True]

    def test_first_import_in_two_pool_threads(self, corpus, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            _fresh_python(["-m", "rhythmkit.cli", "glottal", str(corpus),
                           "--out", str(outs[jobs]), "--jobs", jobs])
        names = sorted(p.name for p in outs["1"].glob("*.glottal.wav"))
        assert len(names) == 4
        for name in names:
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name


def _fast_config(tmp_path):
    path = tmp_path / "fast.json"
    if not path.exists():
        path.write_text(json.dumps({"griffin_lim": {"n_iters": 2}}))
    return path


class TestConfig:
    def test_defaults(self):
        cfg = build_run_config({})
        assert cfg.rpm.seg_min == 19 and cfg.rpm.seg_max == 32
        assert cfg.features.n_mels == 80
        assert cfg.griffin_lim.n_iters == 60

    def test_bom_config_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"rpm": {"seg_min": 5, "seed": 3}}')
        cfg = cli.load_run_config(str(path))
        assert cfg.rpm.seed == 3 and cfg.rpm.seg_min == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"rhythm": {}})
        with pytest.raises(ConfigError):
            build_run_config({"rpm": {"segmin": 10}})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"rpm": {"factor_lo": 0.0}})
        with pytest.raises(ConfigError):
            build_run_config({"rpm": {"seed": -3}})

    def test_seed_propagates_to_rpm(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"rpm": {"seg_min": 5, "seed": 3}}')
        cfg = cli.load_run_config(str(path), {"seed": 123, "factor_lo": None})
        assert (cfg.rpm.seed, cfg.rpm.seg_min, cfg.rpm.factor_lo) == (123, 5, 0.5)
        assert cli.load_run_config(str(path), {"seed": None}).rpm.seed == 3

    def test_cli_exit_codes(self, corpus, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["glottal", str(corpus), "--out", str(tmp_path / "o"), "--config", str(bad)]) == 1
        assert main(["glottal", "--out", str(tmp_path / "o")]) == 1  # missing manifest arg

    @pytest.mark.parametrize("doc, key", [('{"seed": 1, "seed": 2}', "seed"),
                                          ('{"rpm": {"seg_min": 5, "seg_min": 6}}', "seg_min")],
                             ids=["top-level", "nested"])
    def test_duplicate_key_rejected(self, tmp_path, doc, key):
        path = tmp_path / "run.json"
        path.write_text(doc)
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            cli.load_run_config(str(path))

    def test_highpass_above_nyquist_fails_each_file(self, corpus, tmp_path, caplog):
        cfg = tmp_path / "hp.json"
        cfg.write_text('{"iaif": {"highpass_cutoff": 9000.0}}')
        out = tmp_path / "o"
        assert main(["glottal", str(corpus), "--out", str(out), "--config", str(cfg)]) == 2
        for utt_id in ("utt0", "utt1", "utt2", "sp0"):
            assert sum(rec.message.startswith(f"{utt_id}: ValueError: ")
                       and "Nyquist" in rec.message for rec in caplog.records) == 1

    def test_bad_iaif_window_is_config_error(self, corpus, tmp_path):
        bad = tmp_path / "window.json"
        bad.write_text('{"iaif": {"window": "bogus"}}')
        out = tmp_path / "o"
        assert main(["glottal", str(corpus), "--out", str(out), "--config", str(bad)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--jobs", "-2"], ["--jobs", "two"],
                                      ["--seed", "1.5"], ["--factor-lo", "low"]])
    def test_bad_flags_rejected_at_parse(self, corpus, tmp_path, flag, capsys):
        # Only text that is no number fails here; RpmConfig judges the numbers.
        out = tmp_path / "o"
        command = "glottal" if flag[0] == "--jobs" else "augment"
        assert main([command, str(corpus), "--out", str(out)] + flag) == 1
        assert not out.exists()
        assert f"error: argument {flag[0]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--help"], 0, "out", "usage: rhythmkit"),
        (["augment", "--help"], 0, "out", "usage: rhythmkit augment"),
        ([], 1, "err", "rhythmkit: error: the following arguments are required"),
    ], ids=["help", "augment-help", "no-command"])
    def test_parser_exits_map_to_exit_codes(self, argv, code, stream, text, capsys):
        # argparse exits 0 after --help and 2 on a usage error; main returns 0 and 1.
        assert main(argv) == code
        assert text in getattr(capsys.readouterr(), stream)

    @pytest.mark.parametrize("utt_id", ["../escaped", "a/b", "a\\b", "..", ".", "", "a\x00b"])
    def test_manifest_ids_stay_inside_out(self, corpus, tmp_path, utt_id):
        manifest = corpus.parent / "hostile.tsv"
        manifest.write_text(corpus.read_text() + f"{utt_id}\tutt0.wav\tbonafide\t-\n")
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "sub" / "out"
        assert main(["glottal", str(manifest), "--out", str(out)]) == 1
        assert set(tmp_path.rglob("*")) == before

    def test_echo_written_before_outputs(self, corpus, tmp_path):
        out = tmp_path / "echo"
        main(["features", str(corpus), "--out", str(out)])
        doc = json.loads((out / "config.effective.json").read_text())
        assert doc["features"]["n_mels"] == 80
        assert doc["rpm"]["seed"] == 0

    def test_echo_lists_every_key_in_document_order(self):
        expected = {
            "iaif": {"vocal_tract_order": None, "glottal_order": 4, "lip_d": 0.99,
                     "win_ms": 25.0, "hop_ms": 5.0, "highpass_cutoff": 70.0},
            "features": {"win_length": 1024, "hop_length": 256,
                         "n_mels": 80, "fmin": 0.0, "fmax": None,
                         "f0_min": 50.0, "f0_max": 500.0, "voicing_threshold": 0.3},
            "rpm": {"seg_min": 19, "seg_max": 32, "factor_lo": 0.5, "factor_hi": 1.5, "seed": 0},
            "griffin_lim": {"n_iters": 60},
        }
        # json.dumps keeps insertion order, so this pins the key order too.
        assert json.dumps(asdict(RunConfig())) == json.dumps(expected)

    @pytest.mark.parametrize("doc", [{}, NON_DEFAULT_CONFIG])
    def test_echo_round_trips(self, doc):
        cfg = build_run_config(doc)
        assert build_run_config(asdict(cfg)) == cfg

    def test_non_default_values_land_in_their_fields(self):
        cfg = build_run_config(NON_DEFAULT_CONFIG)
        assert cfg.rpm.seed == 7
        assert (cfg.features.frame.win_length, cfg.features.frame.hop_length) == (512, 128)
        assert (cfg.features.n_mels, cfg.features.f0_min) == (64, 60.0)
        assert (cfg.iaif.vocal_tract_order, cfg.iaif.lip_d) == (20, 0.98)
        assert (cfg.rpm.seg_min, cfg.rpm.seg_max, cfg.rpm.factor_hi) == (5, 32, 1.2)

    def test_build_does_not_mutate_its_input(self):
        doc = json.loads(json.dumps(NON_DEFAULT_CONFIG))
        first = build_run_config(doc)
        assert doc == NON_DEFAULT_CONFIG
        assert build_run_config(doc) == first
        assert first.features.frame.win_length == 512

    @pytest.mark.parametrize("doc", [
        {"griffin_lim": {"n_iters": 2.5}},
        {"features": {"n_mels": 40.5}},
        {"iaif": {"glottal_order": 4.5}},
        {"rpm": {"seg_min": 2.5}},
        {"seed": 3},
        {"rpm": {"seed": True}},
        {"rpm": {"seed": 1.0}},
        {"rpm": {"seed": -1}},
        {"rpm": {"seed": 2**64}},
        {"iaif": {"window": None}},
        {"features": {"fmax": "7000"}},
        {"features": {"win_length": False}},
        {"audio": "pcm16"},
        {"audio": {"encoding": "pcm24"}},
        {"griffin_lim": {"seed": -1}},
        {"iaif": {"win_ms": float("nan")}},
        {"iaif": {"highpass_cutoff": float("inf")}},
        {"features": {"fmin": -100.0}},
        {"features": {"fmin": 8000.0, "fmax": 7000.0}},
        {"features": {"fmax": 0.0}},
        {"features": {"win_length": 1023}},
        {"iaif": {"vocal_tract_order": 3}},
        {"iaif": {"vocal_tract_order": 4}},
        {"iaif": {"vocal_tract_order": 0}},
        {"iaif": {"glottal_order": 0}},
        {"iaif": {"highpass_cutoff": -1.0}},
        {"features": {"n_mels": 0}},
        {"features": {"win_length": 0}},
        {"griffin_lim": {"init_phase": "bogus"}},
        {"features": {"window": "bogus"}},
        {"features": {"hop_length": 0}},
        {"features": {"hop_length": 2048}},
    ])
    def test_bad_values_rejected_at_load(self, doc):
        with pytest.raises(ConfigError):
            build_run_config(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"griffin_lim": {"n_iters": 0}}, "griffin_lim: n_iters must be >= 1, got 0"),
        ({"iaif": {"lip_d": 1.5}}, "iaif: lip_d must lie in (0, 1), got 1.5"),
        ({"features": {"n_mels": 0}}, "features: n_mels must be positive, got 0"),
        ({"griffin_lim": {"n_iters": 2.5}}, "griffin_lim: n_iters must be int"),
    ])
    def test_range_error_names_its_section(self, doc, message):
        with pytest.raises(ConfigError) as info:
            build_run_config(doc)
        assert str(info.value).startswith(message)

    def test_readme_example_matches_schema(self):
        section = README.read_text(encoding="utf-8").split("### Run config\n", 1)[1]
        doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        build_run_config(doc)
        assert _key_tree(doc) == _key_tree(asdict(RunConfig()))

    def test_readme_python_example_runs(self):
        section = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
        exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})

    def test_readme_cli_examples_parse(self):
        section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert {argv[1] for argv in commands} == {"glottal", "features", "augment", "eer"}
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "rhythmkit"
            parser.parse_args(argv[1:])  # a flag the parser lacks exits here

    @pytest.mark.parametrize("make, field", [
        (lambda: GriffinLimConfig(n_iters=2.5), "n_iters"),
        (lambda: GriffinLimConfig(n_iters=np.inf), "n_iters"),
        (lambda: FeatureConfig(fmin=np.nan), "fmin"),
        (lambda: FeatureConfig(fmax=np.nan), "fmax"),
        (lambda: FeatureConfig(fmin=np.inf), "fmin"),
        (lambda: FeatureConfig(fmax="7000"), "fmax"),
        (lambda: IaifConfig(glottal_order=1.5), "glottal_order"),
        (lambda: RpmConfig(seg_min=1.5, seg_max=3), "seg_min"),
        (lambda: RpmConfig(seed=1.5), "seed"),
        (lambda: RpmConfig(seed=True), "seed"),
        (lambda: RpmConfig(factor_hi=10**400), "factor_hi"),
        (lambda: FeatureConfig(fmax=10**400), "fmax"),
        (lambda: IaifConfig(win_ms=10**400), "win_ms"),
        (lambda: RpmConfig(seg_max=10**400), "seg_max"),
    ])
    def test_library_construction_checks_field_types(self, make, field):
        # The same rule as a --config document, without the CLI.
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            make()

    def test_numpy_scalars_construct(self):
        order = IaifConfig(glottal_order=np.int64(4)).glottal_order
        fmin = FeatureConfig(fmin=np.float32(10)).fmin
        assert order == 4 and type(order) is int
        assert fmin == 10.0 and type(fmin) is float
        assert type(FeatureConfig(fmin=1).fmin) is float  # an int in a float field

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)])
    def test_numpy_seed_samples_the_int_seed_plan(self, seed):
        bundle = FeatureBundle(mel=np.zeros((100, 4)), f0=np.zeros(100), sample_rate=16000.0,
                               hop_length=256, win_length=1024)
        _, plan = rhythm_perturb(bundle, RpmConfig(seed=seed), "utt1")
        assert plan == rhythm_perturb(bundle, RpmConfig(seed=7), "utt1")[1]
        echo = json.loads(json.dumps(asdict(RunConfig(rpm=RpmConfig(seed=seed)))))
        assert echo["rpm"]["seed"] == 7

    def test_ints_for_floats_and_null_where_default_is_null(self):
        cfg = build_run_config({"rpm": {"factor_lo": 1, "factor_hi": 2},
                                "iaif": {"vocal_tract_order": None, "win_ms": 30},
                                "features": {"fmax": None}})
        assert (cfg.rpm.factor_lo, cfg.rpm.factor_hi, cfg.iaif.win_ms) == (1, 2, 30)
        assert cfg.iaif.vocal_tract_order is None and cfg.features.fmax is None


@pytest.mark.parametrize("case", [
    "manifest-not-utf8", "config-not-utf8", "scores-not-utf8", "mapping-duplicate",
    "factor-lo-0", "factor-lo-nan-hi-nan", "factor-lo-above-hi", "factor-hi-below-config-lo",
    "config-wrong-type", "fmax-below-fmin", "fmax-zero", "n-fft-odd", "vt-order-not-above-glottal",
    "config-duplicate-key", "rpm-not-object-with-flag", "root-not-object-with-flag",
    "old-griffin-lim-keys", "old-window-keys", "old-n-fft-key",
    "old-top-level-seed", "old-audio", "seed-negative", "seed-2-to-the-64", "factor-lo-nan",
    "seed-on-glottal", "seed-on-features", "config-400-digit-int", "n-mels-past-dft-bins",
    "config-deeply-nested", "config-bad-seed-under-flag", "config-bad-type-under-flag",
])
def test_bad_input_exits_1_and_writes_nothing(corpus, tmp_path, case, caplog):
    out = tmp_path / "out"
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    scores = tmp_path / "scores.tsv"
    scores.write_text("b0\tbonafide\t-\t1.0\ns0\tspoof\tA07\t0.0\n")
    mapping = tmp_path / "map.tsv"
    mapping.write_text("A07\tTTS\nA07\tVC\n")
    narrow = tmp_path / "narrow.json"
    narrow.write_text('{"rpm": {"factor_lo": 0.9}}')
    typed = tmp_path / "typed.json"
    typed.write_text('{"griffin_lim": {"n_iters": 2.5}}')
    fmax_below = tmp_path / "fmax_below.json"
    fmax_below.write_text('{"features": {"fmin": 8000.0, "fmax": 7000.0}}')
    fmax_zero = tmp_path / "fmax_zero.json"
    fmax_zero.write_text('{"features": {"fmax": 0.0}}')
    odd_win = tmp_path / "odd_win.json"
    odd_win.write_text('{"features": {"win_length": 1023}}')  # the window is the FFT frame
    low_vt = tmp_path / "low_vt.json"
    low_vt.write_text('{"iaif": {"vocal_tract_order": 3}}')
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"seed": 1, "seed": 2, "rpm": {"seg_min": 5, "seg_min": 6}}')
    rpm_scalar = tmp_path / "rpm_scalar.json"
    rpm_scalar.write_text('{"rpm": 5}')
    root_list = tmp_path / "root_list.json"
    root_list.write_text('[{"rpm": {"seed": 3}}]')
    old = tmp_path / "old.json"
    old.write_text('{"griffin_lim": {"n_iters": 60, "init_phase": "zeros", "seed": 0}}')
    old_window = tmp_path / "old_window.json"
    old_window.write_text('{"iaif": {"window": "hann"}}')
    old_n_fft = tmp_path / "old_n_fft.json"
    old_n_fft.write_text('{"features": {"n_fft": 1024, "win_length": 1024}}')
    old_audio = tmp_path / "old_audio.json"
    old_audio.write_text('{"audio": {"encoding": "pcm16"}}')
    top_seed = tmp_path / "top_seed.json"
    top_seed.write_text('{"seed": 7, "rpm": {"seg_min": 19}}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"iaif": {"win_ms": %s}}' % ("9" * 400))  # beyond float range
    many_mels = tmp_path / "many_mels.json"
    many_mels.write_text('{"features": {"n_mels": 514}}')  # a 1024-point frame has 513 bins
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)  # past the parser's recursion limit
    bad_seed = tmp_path / "bad_seed.json"
    bad_seed.write_text('{"rpm": {"seed": -1}}')
    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text('{"rpm": {"factor_lo": "x"}}')
    augment = ["augment", str(corpus), "--out", str(out)]
    argv = {
        "manifest-not-utf8": ["glottal", str(bad), "--out", str(out)],
        "config-not-utf8": ["glottal", str(corpus), "--out", str(out), "--config", str(bad)],
        "scores-not-utf8": ["eer", str(bad)],
        "mapping-duplicate": ["eer", str(scores), "--mapping", str(mapping)],
        "factor-lo-0": augment + ["--factor-lo", "0"],
        "factor-lo-nan-hi-nan": augment + ["--factor-lo", "nan", "--factor-hi", "nan"],
        "factor-lo-above-hi": augment + ["--factor-lo", "1.3", "--factor-hi", "1.1"],
        "factor-hi-below-config-lo": augment + ["--factor-hi", "0.8", "--config", str(narrow)],
        "config-wrong-type": ["features", str(corpus), "--out", str(out), "--config", str(typed)],
        "fmax-below-fmin": ["features", str(corpus), "--out", str(out), "--config", str(fmax_below)],
        "fmax-zero": ["features", str(corpus), "--out", str(out), "--config", str(fmax_zero)],
        "n-fft-odd": augment + ["--config", str(odd_win)],
        "vt-order-not-above-glottal":
            ["glottal", str(corpus), "--out", str(out), "--config", str(low_vt)],
        "config-duplicate-key":
            ["features", str(corpus), "--out", str(out), "--config", str(repeated)],
        "rpm-not-object-with-flag": augment + ["--config", str(rpm_scalar), "--factor-lo", "0.9"],
        "root-not-object-with-flag": augment + ["--config", str(root_list), "--seed", "3"],
        "old-griffin-lim-keys": augment + ["--config", str(old)],
        "old-window-keys": ["glottal", str(corpus), "--out", str(out), "--config", str(old_window)],
        "old-n-fft-key": ["features", str(corpus), "--out", str(out), "--config", str(old_n_fft)],
        "old-top-level-seed": augment + ["--config", str(top_seed)],
        "old-audio": ["glottal", str(corpus), "--out", str(out), "--config", str(old_audio)],
        "seed-negative": augment + ["--seed", "-5"],
        "seed-2-to-the-64": augment + ["--seed", str(2**64)],
        "factor-lo-nan": augment + ["--factor-lo", "nan"],
        "seed-on-glottal": ["glottal", str(corpus), "--out", str(out), "--seed", "5"],
        "seed-on-features": ["features", str(corpus), "--out", str(out), "--seed", "5"],
        "config-400-digit-int": ["glottal", str(corpus), "--out", str(out), "--config", str(huge)],
        "n-mels-past-dft-bins":
            ["features", str(corpus), "--out", str(out), "--config", str(many_mels)],
        "config-deeply-nested": ["features", str(corpus), "--out", str(out), "--config", str(deep)],
        # The file is judged as written before a flag is laid over it.
        "config-bad-seed-under-flag": augment + ["--config", str(bad_seed), "--seed", "7"],
        "config-bad-type-under-flag": augment + ["--config", str(bad_type), "--factor-lo", "0.9"],
    }[case]
    assert main(argv) == 1
    assert not out.exists()
    # A flag value breaks the same rule, with the same message, as the config key it sets.
    message = {
        "seed-negative": "rpm: seed must be an integer in [0, 2**64), got -5",
        "seed-2-to-the-64": f"rpm: seed must be an integer in [0, 2**64), got {2**64}",
        "factor-lo-0": "rpm: need 0 < factor_lo <= factor_hi, got [0.0, 1.5]",
        "factor-lo-nan": "rpm: factor_lo must be finite, got nan",
        "old-audio": "unknown keys in config root: ['audio']",
        "n-mels-past-dft-bins": "features: n_mels must be at most win_length // 2 + 1, got 514",
        "config-bad-seed-under-flag": "rpm: seed must be an integer in [0, 2**64), got -1",
        "config-bad-type-under-flag": "rpm: factor_lo must be float, got 'x'",
    }.get(case)
    if message is not None:
        assert message in [rec.getMessage() for rec in caplog.records]


def test_speedperturb_is_no_command(tmp_path, capsys):
    # Speed perturbation is the library call rpm.speed_perturb; the CLI only runs batches.
    src = tmp_path / "in.wav"
    audio_io.write_wav(src, am_harmonic_signal(seed=0))
    assert main(["speedperturb", str(src), str(tmp_path / "out.wav"), "--factor", "1.1"]) == 1
    assert "invalid choice: 'speedperturb'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["in.wav"]


def test_package_all_is_what_it_binds():
    # A name dropped from only the imports breaks star-import; from only __all__, it leaks.
    import rhythmkit

    bound = [name for name, value in vars(rhythmkit).items()
             if not name.startswith("_") and not isinstance(value, type(rhythmkit))]
    assert sorted(rhythmkit.__all__) == sorted(bound)
    ns: dict = {}
    exec("from rhythmkit import *", ns)
    assert set(rhythmkit.__all__) <= ns.keys()


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
# Traced names that no command's utterance path calls; ROADMAP item 4 retargets them.
UNCALLED = {"glottal.iaif_frame", "dsp.levinson_durbin", "dsp.inverse_filter", "dsp.overlap_add"}


class TestBenchmarkHooks:
    """perfbench/tracing.py wraps these names from outside; a rename must fail here."""

    def test_traced_names_resolve(self):
        names = TRACING.TRACED
        assert names
        for qual in names:
            mod_name, fn_name = qual.split(".")
            module = importlib.import_module(f"rhythmkit.{mod_name}")
            assert callable(getattr(module, fn_name, None)), qual

    def test_batch_runs_through_module_run_batch(self, corpus, tmp_path, monkeypatch):
        calls = []
        original = cli._run_batch

        def counting(entries, worker, jobs):
            calls.append(len(entries))
            return original(entries, worker, jobs)

        monkeypatch.setattr(cli, "_run_batch", counting)
        assert main(["glottal", str(corpus), "--out", str(tmp_path / "o")]) == 0
        assert calls == [4]

    @pytest.fixture(scope="class")
    def span_counts(self, tmp_path_factory):
        """Spans per traced name over the glottal, augment and eer workloads' commands."""
        root = tmp_path_factory.mktemp("traced")
        manifest = _write_corpus(root / "corpus")
        scores = root / "scores.tsv"
        scores.write_text("b0\tbonafide\t-\t1.0\nb1\tbonafide\t-\t0.4\n"
                          "s0\tspoof\tA07\t0.2\ns1\tspoof\tA17\t0.6\n")
        tracer = TRACING.Tracer()
        tracer.install()
        try:
            assert main(["glottal", str(manifest), "--out", str(root / "glottal")]) == 0
            assert main(["augment", str(manifest), "--out", str(root / "augment"),
                         "--save-features", "--seed", "7"]) == 0
            assert main(["eer", str(scores), "--json"]) == 0
        finally:
            tracer.restore()
        return collections.Counter(span[0] for span in tracer.spans)

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, reason="no utterance path calls it (ROADMAP item 4)"))
        if name in UNCALLED else name
        for name in TRACING.TRACED
    ])
    def test_traced_name_runs_on_its_workload(self, span_counts, name):
        assert span_counts[name] >= 1
