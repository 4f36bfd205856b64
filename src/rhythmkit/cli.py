"""Batch front door: manifest-driven subcommands over the pipeline stages.

Exit codes: 0 clean, 1 usage or config error, 2 partial failure (some files
failed, the batch kept going).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Callable, get_args, get_type_hints

from . import audio_io, evaluation
from .audio_io import WAV_ENCODINGS, AudioBuffer, ManifestEntry
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
    """One section per stage config, laid out as the document by config_as_dict.

    Metadata "section" files a scalar under that section; "tied" names the
    section's fields that take the top-level value of the same name."""

    seed: int = 0
    encoding: str = field(default="pcm16", metadata={"section": "audio"})
    iaif: IaifConfig = IaifConfig()
    features: FeatureConfig = FeatureConfig()
    rpm: RpmConfig = field(default=RpmConfig(), metadata={"tied": ("seed",)})
    griffin_lim: GriffinLimConfig = GriffinLimConfig()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.encoding not in WAV_ENCODINGS:
            raise ValueError(f"audio.encoding {self.encoding!r} not in {list(WAV_ENCODINGS)}")


def _to_doc(obj: Any, top: bool, skip: tuple[str, ...] = ()) -> dict:
    """Fields as document keys: below the top, a nested dataclass is spliced in."""
    doc: dict = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value) and top:
            doc[f.name] = _to_doc(value, False, f.metadata.get("tied", ()))
        elif is_dataclass(value):
            doc.update(_to_doc(value, False))
        elif "section" in f.metadata:
            doc.setdefault(f.metadata["section"], {})[f.name] = value
        elif f.name not in skip:
            doc[f.name] = value
    return doc


def config_as_dict(cfg: RunConfig) -> dict:
    return _to_doc(cfg, top=True)


def _typed(value: Any, hint: Any, name: str) -> Any:
    """value checked against a field's type hint: a float field also takes
    ints, no field takes bools, and only an ``X | None`` field takes null."""
    kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if isinstance(value, bool) or not any(
        isinstance(value, (int, float) if kind is float else kind) for kind in kinds
    ):
        names = " or ".join("null" if kind is NoneType else kind.__name__ for kind in kinds)
        raise ConfigError(f"{name} must be {names}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN and Infinity
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _from_doc(default: Any, doc: dict, top: bool, where: str = "") -> Any:
    """Inverse of _to_doc: a copy of default with the fields doc names replaced."""
    hints = get_type_hints(type(default))
    changes = {}
    for f in fields(default):
        current = getattr(default, f.name)
        section = f.metadata.get("section")
        values = doc.get(section, {}) if section else doc
        if is_dataclass(current) and top:
            tied = {name: doc[name] for name in f.metadata.get("tied", ()) if name in doc}
            section_doc = {**doc.get(f.name, {}), **tied}
            changes[f.name] = _from_doc(current, section_doc, False, f"{f.name}.")
        elif is_dataclass(current):
            changes[f.name] = _from_doc(current, doc, False, where)
        elif f.name in values:
            prefix = f"{section}." if section else where
            changes[f.name] = _typed(values[f.name], hints[f.name], prefix + f.name)
    return replace(default, **changes)


def _check_keys(doc: Any, schema: dict, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"config {where} must be an object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in config {where}: {sorted(unknown)}")
    for name, value in doc.items():
        if isinstance(schema[name], dict):
            _check_keys(value, schema[name], f"section {name!r}")


def build_run_config(doc: dict) -> RunConfig:
    """Strict-parse a config document; unknown keys and mistyped values are rejected."""
    default = RunConfig()
    _check_keys(doc, config_as_dict(default), "root")
    try:
        return _from_doc(default, doc, top=True)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """json object_pairs_hook: a key repeated in one object is an error, not last-wins."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r} in config")
        doc[key] = value
    return doc


def load_run_config(path: str | None, seed: int | None, rpm: dict | None = None) -> RunConfig:
    """Parse the config file with the given --seed and rpm flag values laid over it."""
    doc: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    if seed is not None:
        doc = {**doc, "seed": seed}
    flags = {name: value for name, value in (rpm or {}).items() if value is not None}
    if flags and isinstance(doc.get("rpm", {}), dict):
        doc = {**doc, "rpm": {**doc.get("rpm", {}), **flags}}
    return build_run_config(doc)


def _run_batch(
    entries: list[ManifestEntry],
    worker: Callable[[ManifestEntry], Any],
    jobs: int,
) -> tuple[list[Any], int]:
    """Apply worker to each entry on a pool of jobs threads; any Exception
    fails only its own entry and is logged with its type name.

    On KeyboardInterrupt the files in flight finish, the rest never start and
    the interrupt propagates.  Results come back in manifest order; a failed
    entry leaves None in its slot."""

    def guarded(entry: ManifestEntry) -> Any:
        try:
            return worker(entry)
        except Exception as exc:
            log.error("%s: %s: %s", entry.utt_id, type(exc).__name__, exc)
            return None

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(guarded, entries))
    return results, sum(r is None for r in results)


def _run_manifest(
    args: argparse.Namespace,
    cfg: RunConfig,
    label: str,
    worker: Callable[[ManifestEntry, AudioBuffer, Path], Any],
    select: Callable[[list[ManifestEntry]], list[ManifestEntry]] = list,
    finish: Callable[[list[Any], Path], str] = lambda results, out_dir: "",
) -> int:
    """Shared batch steps: read the manifest, echo the config, run worker(entry,
    audio, out_dir) on the selected entries and log a summary ending in what
    finish(results of the files that succeeded, out_dir) returns."""
    manifest_path = Path(args.manifest)
    entries = audio_io.read_manifest(manifest_path)
    out_dir = Path(args.out)
    # Written before any output file so every run directory is self-describing.
    out_dir.mkdir(parents=True, exist_ok=True)
    audio_io.write_file(
        out_dir / "config.effective.json", json.dumps(config_as_dict(cfg), indent=2) + "\n"
    )
    selected = select(entries)
    if not selected:
        log.warning("%s: nothing to do in manifest %s", label, manifest_path)
        return EXIT_OK

    def run(entry: ManifestEntry) -> Any:
        # Relative to the manifest's directory; an absolute path replaces it.
        return worker(entry, audio_io.read_wav(manifest_path.parent / entry.path), out_dir)

    results, failures = _run_batch(selected, run, args.jobs)
    note = finish([r for r in results if r is not None], out_dir)
    log.info("%s: %d/%d files ok%s", label, len(selected) - failures, len(selected), note)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_glottal(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.seed)

    def worker(entry: ManifestEntry, buf: AudioBuffer, out_dir: Path) -> Any:
        result = extract_glottal_flow(buf, cfg.iaif)
        audio_io.write_wav(out_dir / f"{entry.utt_id}.glottal.wav", result.flow, cfg.encoding)
        return result.unstable_frames, result.total_frames

    def frames_note(results: list[tuple[int, int]], out_dir: Path) -> str:
        unstable, total = sum(r[0] for r in results), sum(r[1] for r in results)
        return f", {unstable}/{total} frames passed through raw"

    return _run_manifest(args, cfg, "glottal", worker, finish=frames_note)


def cmd_features(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.seed)

    def worker(entry: ManifestEntry, buf: AudioBuffer, out_dir: Path) -> bool:
        bundle = extract_features(buf, cfg.features)
        audio_io.write_features(out_dir / f"{entry.utt_id}.rfb", bundle)
        return True

    return _run_manifest(args, cfg, "features", worker)


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = load_run_config(
        args.config, args.seed, {"factor_lo": args.factor_lo, "factor_hi": args.factor_hi}
    )
    spoof_manifest = Path(args.out) / "manifest.tsv"
    if spoof_manifest.exists() and spoof_manifest.samefile(args.manifest):
        log.error("augment: the spoof manifest %s would replace the input manifest %s; "
                  "choose another --out", spoof_manifest, args.manifest)
        return EXIT_USAGE
    use_rpm = args.rpm == "on"
    attack_tag = "RPM" if use_rpm else "COPY"

    def bonafide(entries: list[ManifestEntry]) -> list[ManifestEntry]:
        for entry in entries:
            if entry.key != "bonafide":
                log.warning("%s: spoof entry skipped; augmentation uses bonafide input only",
                            entry.utt_id)
        return [e for e in entries if e.key == "bonafide"]

    def worker(entry: ManifestEntry, buf: AudioBuffer, out_dir: Path) -> ManifestEntry:
        result = copy_synthesize(
            buf, cfg.features, cfg.rpm if use_rpm else None, cfg.griffin_lim, entry.utt_id
        )
        wav_name = f"{entry.utt_id}.synth.wav"
        audio_io.write_wav(out_dir / wav_name, result.audio, cfg.encoding)
        if result.plan is not None:
            plan_path = out_dir / f"{entry.utt_id}.plan.json"
            write_plan(plan_path, result.plan, entry.utt_id, cfg.rpm.seed)
        if args.save_features:
            audio_io.write_features(out_dir / f"{entry.utt_id}.rfb", result.features)
        return ManifestEntry(utt_id=entry.utt_id, path=wav_name, key="spoof", attack=attack_tag)

    def write_spoof_manifest(results: list[ManifestEntry], out_dir: Path) -> str:
        audio_io.write_manifest(spoof_manifest, results)
        return ""

    return _run_manifest(
        args, cfg, f"augment({attack_tag})", worker, bonafide, write_spoof_manifest
    )


def cmd_speedperturb(args: argparse.Namespace) -> int:
    buf, encoding = audio_io.read_wav_encoded(args.input)
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


def _positive_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 < value < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
    return value


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
    common.add_argument("manifest")

    parser = _Parser(prog="rhythmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("glottal", parents=[common], help="extract glottal flow per manifest entry")
    p.set_defaults(func=cmd_glottal)

    p = sub.add_parser("features", parents=[common], help="extract mel+F0 feature files")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("augment", parents=[common], help="copy-synthesize bonafide entries")
    p.add_argument("--rpm", choices=("on", "off"), default="on")
    p.add_argument("--factor-lo", type=_positive_float, default=None)
    p.add_argument("--factor-hi", type=_positive_float, default=None)
    p.add_argument("--save-features", action="store_true")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("speedperturb", help="waveform-domain time scaling of one file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--factor", type=_positive_float, required=True)
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
