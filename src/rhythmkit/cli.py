"""Batch front door: manifest-driven subcommands over the pipeline stages.

Exit codes: 0 clean, 1 usage or config error, 2 partial failure (some files
failed, the batch kept going).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from . import audio_io, evaluation
from .dsp import FrameSpec
from .errors import RhythmkitError
from .features import FeatureConfig, extract_features
from .glottal import IaifConfig, extract_glottal_flow
from .rpm import RpmConfig, speed_perturb, write_plan
from .synthesis import GriffinLimConfig, copy_synthesize

log = logging.getLogger("rhythmkit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


class ConfigError(RhythmkitError):
    """Bad run-config document (unknown key, wrong type, invalid value)."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    encoding: str = "pcm16"
    iaif: IaifConfig = IaifConfig()
    features: FeatureConfig = FeatureConfig()
    rpm: RpmConfig = RpmConfig()
    griffin_lim: GriffinLimConfig = GriffinLimConfig()


def _section(doc: dict, name: str, allowed: tuple[str, ...]) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    return section


def build_run_config(doc: dict) -> RunConfig:
    """Strict-parse a config document; unknown keys are rejected."""
    top_allowed = ("seed", "audio", "iaif", "features", "rpm", "griffin_lim")
    unknown = set(doc) - set(top_allowed)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    try:
        audio = _section(doc, "audio", ("encoding",))
        encoding = audio.get("encoding", "pcm16")
        if encoding not in ("pcm16", "float32"):
            raise ConfigError(f"audio.encoding must be pcm16 or float32, got {encoding!r}")
        iaif = IaifConfig(
            **_section(
                doc,
                "iaif",
                (
                    "vocal_tract_order",
                    "glottal_order",
                    "lip_d",
                    "win_ms",
                    "hop_ms",
                    "window",
                    "highpass_cutoff",
                ),
            )
        )
        feat = _section(
            doc,
            "features",
            (
                "n_fft",
                "win_length",
                "hop_length",
                "window",
                "n_mels",
                "fmin",
                "fmax",
                "f0_min",
                "f0_max",
                "voicing_threshold",
            ),
        )
        frame = FrameSpec(
            feat.pop("win_length", 1024), feat.pop("hop_length", 256), feat.pop("window", "hann")
        )
        features = FeatureConfig(frame=frame, **feat)
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        rpm = RpmConfig(
            seed=seed,
            **_section(doc, "rpm", ("seg_min", "seg_max", "factor_lo", "factor_hi")),
        )
        griffin_lim = GriffinLimConfig(
            **_section(doc, "griffin_lim", ("n_iters", "init_phase", "seed"))
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        seed=seed,
        encoding=encoding,
        iaif=iaif,
        features=features,
        rpm=rpm,
        griffin_lim=griffin_lim,
    )


def load_run_config(path: str | None, seed_override: int | None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    cfg = build_run_config(doc)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override, rpm=replace(cfg.rpm, seed=seed_override))
    return cfg


def config_as_dict(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "audio": {"encoding": cfg.encoding},
        "iaif": {
            "vocal_tract_order": cfg.iaif.vocal_tract_order,
            "glottal_order": cfg.iaif.glottal_order,
            "lip_d": cfg.iaif.lip_d,
            "win_ms": cfg.iaif.win_ms,
            "hop_ms": cfg.iaif.hop_ms,
            "window": cfg.iaif.window,
            "highpass_cutoff": cfg.iaif.highpass_cutoff,
        },
        "features": {
            "n_fft": cfg.features.n_fft,
            "win_length": cfg.features.frame.win_length,
            "hop_length": cfg.features.frame.hop_length,
            "window": cfg.features.frame.window,
            "n_mels": cfg.features.n_mels,
            "fmin": cfg.features.fmin,
            "fmax": cfg.features.fmax,
            "f0_min": cfg.features.f0_min,
            "f0_max": cfg.features.f0_max,
            "voicing_threshold": cfg.features.voicing_threshold,
        },
        "rpm": {
            "seg_min": cfg.rpm.seg_min,
            "seg_max": cfg.rpm.seg_max,
            "factor_lo": cfg.rpm.factor_lo,
            "factor_hi": cfg.rpm.factor_hi,
        },
        "griffin_lim": {
            "n_iters": cfg.griffin_lim.n_iters,
            "init_phase": cfg.griffin_lim.init_phase,
            "seed": cfg.griffin_lim.seed,
        },
    }


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    # Written before any output file so every run directory is self-describing.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.effective.json").write_text(
        json.dumps(config_as_dict(cfg), indent=2) + "\n", encoding="utf-8"
    )


def _resolve_path(entry_path: str, manifest_path: Path) -> Path:
    p = Path(entry_path)
    return p if p.is_absolute() else manifest_path.parent / p


def _run_batch(
    entries: list[audio_io.ManifestEntry],
    worker: Callable[[audio_io.ManifestEntry], Any],
    jobs: int,
) -> tuple[list[Any], int]:
    """Apply worker to each entry, per-file errors logged and counted, never fatal.

    Results come back in manifest order regardless of jobs; a failed entry
    leaves None in its slot."""
    results: list[Any] = [None] * len(entries)

    def guarded(i: int) -> None:
        try:
            results[i] = worker(entries[i])
        except (RhythmkitError, OSError, ValueError) as exc:
            log.error("%s: %s", entries[i].utt_id, exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(guarded, range(len(entries))))
    else:
        for i in range(len(entries)):
            guarded(i)
    return results, sum(r is None for r in results)


def cmd_glottal(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.seed)
    manifest_path = Path(args.manifest)
    entries = audio_io.read_manifest(manifest_path)
    out_dir = Path(args.out)
    _echo_config(cfg, out_dir)
    if not entries:
        log.warning("manifest %s is empty; nothing to do", manifest_path)
        return EXIT_OK

    def worker(entry: audio_io.ManifestEntry) -> tuple[int, int]:
        buf = audio_io.read_wav(_resolve_path(entry.path, manifest_path))
        result = extract_glottal_flow(buf, cfg.iaif)
        audio_io.write_wav(out_dir / f"{entry.utt_id}.glottal.wav", result.flow, cfg.encoding)
        return result.unstable_frames, result.total_frames

    results, failures = _run_batch(entries, worker, args.jobs)
    skipped = sum(r[0] for r in results if r is not None)
    total = sum(r[1] for r in results if r is not None)
    log.info(
        "glottal: %d/%d files ok, %d/%d frames passed through raw",
        len(entries) - failures, len(entries), skipped, total,
    )
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_features(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.seed)
    manifest_path = Path(args.manifest)
    entries = audio_io.read_manifest(manifest_path)
    out_dir = Path(args.out)
    _echo_config(cfg, out_dir)
    if not entries:
        log.warning("manifest %s is empty; nothing to do", manifest_path)
        return EXIT_OK

    def worker(entry: audio_io.ManifestEntry) -> bool:
        buf = audio_io.read_wav(_resolve_path(entry.path, manifest_path))
        bundle = extract_features(buf, cfg.features)
        audio_io.write_features(out_dir / f"{entry.utt_id}.rfb", bundle)
        return True

    _, failures = _run_batch(entries, worker, args.jobs)
    log.info("features: %d/%d files ok", len(entries) - failures, len(entries))
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.seed)
    rpm_cfg = cfg.rpm
    if args.factor_lo is not None or args.factor_hi is not None:
        rpm_cfg = replace(
            rpm_cfg,
            factor_lo=args.factor_lo if args.factor_lo is not None else rpm_cfg.factor_lo,
            factor_hi=args.factor_hi if args.factor_hi is not None else rpm_cfg.factor_hi,
        )
        cfg = replace(cfg, rpm=rpm_cfg)
    use_rpm = args.rpm == "on"
    attack_tag = "RPM" if use_rpm else "COPY"

    manifest_path = Path(args.manifest)
    entries = audio_io.read_manifest(manifest_path)
    out_dir = Path(args.out)
    _echo_config(cfg, out_dir)
    bonafide = [e for e in entries if e.key == "bonafide"]
    for entry in entries:
        if entry.key != "bonafide":
            log.warning("%s: spoof entry skipped; augmentation uses bonafide input only",
                        entry.utt_id)
    if not bonafide:
        log.warning("manifest %s has no bonafide entries; nothing to do", manifest_path)
        return EXIT_OK

    def worker(entry: audio_io.ManifestEntry) -> audio_io.ManifestEntry:
        buf = audio_io.read_wav(_resolve_path(entry.path, manifest_path))
        result = copy_synthesize(
            buf,
            cfg.features,
            rpm_cfg if use_rpm else None,
            cfg.griffin_lim,
            entry.utt_id,
        )
        wav_name = f"{entry.utt_id}.synth.wav"
        audio_io.write_wav(out_dir / wav_name, result.audio, cfg.encoding)
        if result.plan is not None:
            write_plan(out_dir / f"{entry.utt_id}.plan.json", result.plan, entry.utt_id, rpm_cfg.seed)
        if args.save_features:
            audio_io.write_features(out_dir / f"{entry.utt_id}.rfb", result.features)
        return audio_io.ManifestEntry(
            utt_id=entry.utt_id, path=wav_name, key="spoof", attack=attack_tag
        )

    results, failures = _run_batch(bonafide, worker, args.jobs)
    audio_io.write_manifest(out_dir / "manifest.tsv", [r for r in results if r is not None])
    log.info("augment(%s): %d/%d files ok", attack_tag, len(bonafide) - failures, len(bonafide))
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_speedperturb(args: argparse.Namespace) -> int:
    buf = audio_io.read_wav(args.input)
    encoding = audio_io.wav_encoding(args.input)
    out = speed_perturb(buf, args.factor)
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    audio_io.write_wav(args.output, out, encoding)
    log.info("speedperturb: %s -> %s (factor %g)", args.input, args.output, args.factor)
    return EXIT_OK


def cmd_eer(args: argparse.Namespace) -> int:
    scores = evaluation.read_scores(args.scorefile)
    groups = evaluation.load_attack_groups(args.mapping) if args.mapping else None
    breakdown = evaluation.eer_breakdown(scores, attack_groups=groups)
    if args.json:
        print(evaluation.report_json(breakdown))
    else:
        print(evaluation.format_report(breakdown), end="")
    return EXIT_OK


def _int_at_least(lowest: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config (strict keys)")
    common.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    common.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel worker count")
    common.add_argument("--out", required=True, help="output directory")

    parser = _Parser(prog="rhythmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("glottal", parents=[common], help="extract glottal flow per manifest entry")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_glottal)

    p = sub.add_parser("features", parents=[common], help="extract mel+F0 feature files")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("augment", parents=[common], help="copy-synthesize bonafide entries")
    p.add_argument("manifest")
    p.add_argument("--rpm", choices=("on", "off"), default="on")
    p.add_argument("--factor-lo", type=float, default=None)
    p.add_argument("--factor-hi", type=float, default=None)
    p.add_argument("--save-features", action="store_true")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("speedperturb", help="waveform-domain time scaling of one file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--factor", type=float, required=True)
    p.set_defaults(func=cmd_speedperturb)

    p = sub.add_parser("eer", help="pooled and per-attack EER report from a score TSV")
    p.add_argument("scorefile")
    p.add_argument("--mapping", help="attack->TTS/VC mapping TSV (default: ASVspoof 19LA)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eer)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RhythmkitError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
