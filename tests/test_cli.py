import argparse
import importlib
import importlib.util
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import am_harmonic_signal, two_formant_voice
from rhythmkit import audio_io, cli
from rhythmkit.audio_io import ManifestEntry
from rhythmkit.cli import AudioConfig, RunConfig, build_run_config, main, ConfigError
from rhythmkit.features import FeatureBundle, FeatureConfig
from rhythmkit.glottal import IaifConfig
from rhythmkit.rpm import RpmConfig, rhythm_perturb
from rhythmkit.synthesis import GriffinLimConfig
from test_audio_io import HOSTILE_WAVS, _raw_wav
from test_evaluation import eer_oracle

NON_DEFAULT_CONFIG = {
    "audio": {"encoding": "float32"},
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


@pytest.fixture()
def corpus(tmp_path):
    """Three bonafide utterances plus one spoof row, manifest with relative paths."""
    root = tmp_path / "corpus"
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
    def test_worker_returning_none_succeeds(self, corpus, tmp_path, caplog, jobs):
        args = argparse.Namespace(manifest=str(corpus), out=str(tmp_path / "out"), jobs=jobs)
        with caplog.at_level(logging.INFO, logger="rhythmkit"):
            code, results = cli._run_manifest(args, RunConfig(), "noop", lambda *_: None)
        assert (code, results) == (cli.EXIT_OK, [None] * 4)
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
        if jobs == "1":
            assert len(present) == 2


class TestFeaturesCommand:
    def test_outputs_round_trip(self, corpus, tmp_path):
        out = tmp_path / "feat"
        assert main(["features", str(corpus), "--out", str(out)]) == 0
        files = sorted(out.glob("*.rfb"))
        assert len(files) == 4
        bundle = audio_io.read_features(files[0])
        assert bundle.n_frames > 0 and bundle.n_mels == 80

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

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_out_over_input_manifest_exits_1_and_writes_nothing(
        self, corpus, spelling, caplog
    ):
        root = corpus.parent
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        out = root if spelling == "same" else root / ".." / root.name / "."
        assert main(["augment", str(corpus), "--out", str(out)]) == 1
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert str(corpus) in message and str(out / "manifest.tsv") in message

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

    def test_save_features(self, corpus, tmp_path):
        out = tmp_path / "withfeat"
        main(
            ["augment", str(corpus), "--out", str(out), "--save-features",
             "--config", str(_fast_config(tmp_path))]
        )
        for i in range(3):
            bundle = audio_io.read_features(out / f"utt{i}.rfb")
            plan = json.loads((out / f"utt{i}.plan.json").read_text())
            total = sum(max(1, round(s["len"] * s["factor"])) for s in plan["segments"])
            assert bundle.n_frames == total


class TestSpeedPerturbCommand:
    def test_identity_factor_byte_identical(self, corpus, tmp_path):
        src = corpus.parent / "utt0.wav"
        dst = tmp_path / "utt0.speed.wav"
        assert main(["speedperturb", str(src), str(dst), "--factor", "1.0"]) == 0
        assert dst.read_bytes()[44:] == src.read_bytes()[44:]  # same sample payload

    def test_identity_factor_float32_byte_identical(self, tmp_path):
        src = tmp_path / "f.wav"
        audio_io.write_wav(src, am_harmonic_signal(seed=3), "float32")
        dst = tmp_path / "f.speed.wav"
        assert main(["speedperturb", str(src), str(dst), "--factor", "1.0"]) == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_zero_sample_rate_exits_1_and_writes_nothing(self, tmp_path, caplog):
        src = tmp_path / "rate0.wav"
        src.write_bytes(_raw_wav(1, 1, 0, 16, b"\x00" * 8))
        out = tmp_path / "out"
        assert main(["speedperturb", str(src), str(out / "x.wav"), "--factor", "1.1"]) == 1
        assert not out.exists()
        assert any("sample_rate=0" in rec.message for rec in caplog.records)

    def test_duration_scales(self, corpus, tmp_path):
        src = corpus.parent / "utt0.wav"
        dst = tmp_path / "utt0.fast.wav"
        main(["speedperturb", str(src), str(dst), "--factor", "0.5"])
        assert len(audio_io.read_wav(dst)) == len(audio_io.read_wav(src)) // 2


class TestHostileWavHeaders:
    @pytest.mark.parametrize("name", sorted(HOSTILE_WAVS))
    def test_speedperturb_exits_1_and_writes_nothing(self, tmp_path, caplog, name):
        src = tmp_path / f"{name}.wav"
        src.write_bytes(HOSTILE_WAVS[name][0])
        out = tmp_path / "out"
        assert main(["speedperturb", str(src), str(out / "x.wav"), "--factor", "1.1"]) == 1
        assert not out.exists()
        assert any(HOSTILE_WAVS[name][1] in rec.message for rec in caplog.records)

    def test_glottal_fails_each_file(self, tmp_path, caplog):
        lines = []
        for name, (raw, _) in HOSTILE_WAVS.items():
            (tmp_path / f"{name}.wav").write_bytes(raw)
            lines.append(f"{name}\t{name}.wav\tbonafide\t-\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(lines))
        out = tmp_path / "out"
        assert main(["glottal", str(manifest), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["config.effective.json"]
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
            ["speedperturb", str(corpus.parent / "utt0.wav"), str(tmp_path / "s.wav"),
             "--factor", "1.1"],
            ["glottal", str(corpus), "--out", str(tmp_path / "g")],
        ]
        out = _fresh_python(["-c", SCIPY_PROBE, json.dumps(commands)]).stdout
        assert json.loads(out.splitlines()[-1]) == [False] * 5 + [True]

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

    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--jobs", "-2"], ["--seed", "-5"],
                                      ["--jobs", "two"]])
    def test_bad_flags_rejected_at_parse(self, corpus, tmp_path, flag, capsys):
        out = tmp_path / "o"
        command = "augment" if flag[0] == "--seed" else "glottal"  # --seed is augment's alone
        assert main([command, str(corpus), "--out", str(out)] + flag) == 1
        assert not out.exists()
        assert f"error: argument {flag[0]}: " in capsys.readouterr().err

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
            "audio": {"encoding": "pcm16"},
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
        assert cfg.audio.encoding == "float32"
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
        ({"audio": {"encoding": "pcm24"}}, "audio: encoding 'pcm24' not in "),
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
        (lambda: AudioConfig(encoding=5), "encoding"),
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
    "factor-0", "factor-nan", "factor-inf", "factor-lo-0", "factor-lo-nan-hi-nan",
    "factor-lo-above-hi", "factor-hi-below-config-lo", "config-wrong-type",
    "fmax-below-fmin", "fmax-zero", "n-fft-odd", "vt-order-not-above-glottal",
    "config-duplicate-key", "rpm-not-object-with-flag", "root-not-object-with-flag",
    "old-griffin-lim-keys", "old-window-keys", "old-n-fft-key",
    "old-top-level-seed", "seed-2-to-the-64", "seed-on-glottal", "seed-on-features",
    "config-400-digit-int",
])
def test_bad_input_exits_1_and_writes_nothing(corpus, tmp_path, case):
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
    top_seed = tmp_path / "top_seed.json"
    top_seed.write_text('{"seed": 7, "rpm": {"seg_min": 19}}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"iaif": {"win_ms": %s}}' % ("9" * 400))  # beyond float range
    wav = str(corpus.parent / "utt0.wav")
    augment = ["augment", str(corpus), "--out", str(out)]
    argv = {
        "manifest-not-utf8": ["glottal", str(bad), "--out", str(out)],
        "config-not-utf8": ["glottal", str(corpus), "--out", str(out), "--config", str(bad)],
        "scores-not-utf8": ["eer", str(bad)],
        "mapping-duplicate": ["eer", str(scores), "--mapping", str(mapping)],
        "factor-0": ["speedperturb", wav, str(out / "x.wav"), "--factor", "0"],
        "factor-nan": ["speedperturb", wav, str(out / "x.wav"), "--factor", "nan"],
        "factor-inf": ["speedperturb", wav, str(out / "x.wav"), "--factor", "inf"],
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
        "seed-2-to-the-64": augment + ["--seed", str(2**64)],
        "seed-on-glottal": ["glottal", str(corpus), "--out", str(out), "--seed", "5"],
        "seed-on-features": ["features", str(corpus), "--out", str(out), "--seed", "5"],
        "config-400-digit-int": ["glottal", str(corpus), "--out", str(out), "--config", str(huge)],
    }[case]
    assert main(argv) == 1
    assert not out.exists()


class TestBenchmarkHooks:
    """perfbench/tracing.py wraps these names from outside; a rename must fail here."""

    @staticmethod
    def _traced_names():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.TRACED

    def test_traced_names_resolve(self):
        names = self._traced_names()
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
