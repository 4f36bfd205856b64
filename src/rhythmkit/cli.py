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
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable

from . import audio_io, evaluation
from .audio_io import AudioBuffer, ManifestEntry
from .errors import RhythmkitError
from .features import FeatureConfig, extract_features
from .glottal import IaifConfig, extract_glottal_flow
from .rpm import RpmConfig, write_plan
from .synthesis import GriffinLimConfig, copy_synthesize

log = logging.getLogger("rhythmkit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


class ConfigError(RhythmkitError):
    """Bad run-config document (unknown key, wrong type, invalid value)."""


@dataclass(frozen=True)
class RunConfig:
    """The run-config document: one section per stage config, one key per field."""

    iaif: IaifConfig = IaifConfig()
    features: FeatureConfig = FeatureConfig()
    rpm: RpmConfig = RpmConfig()
    griffin_lim: GriffinLimConfig = GriffinLimConfig()


def _from_doc(default: Any, doc: Any, where: str = "root") -> Any:
    """A copy of the dataclass default with the fields doc names replaced.

    doc must be an object whose keys are default's fields.  A dataclass field
    is parsed as a section of its own; the section's dataclass checks its
    values' types and ranges, and its errors are prefixed with its name."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {where} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(default)}
    if unknown:
        raise ConfigError(f"unknown keys in config {where}: {sorted(unknown)}")
    changes = {}
    for name, value in doc.items():
        current = getattr(default, name)
        changes[name] = _from_doc(current, value, name) if is_dataclass(current) else value
    try:
        return replace(default, **changes)
    except ValueError as exc:  # the section's own type and range checks
        raise ConfigError(f"{where}: {exc}") from exc


def build_run_config(doc: Any) -> RunConfig:
    """Strict-parse a config document; unknown keys and mistyped values are rejected."""
    return _from_doc(RunConfig(), doc)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """json object_pairs_hook: a key repeated in one object is an error, not last-wins."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r} in config")
        doc[key] = value
    return doc


def load_run_config(path: str | None, rpm: dict | None = None) -> RunConfig:
    """Parse the config file with the rpm flag values that are not None laid over it."""
    doc: Any = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    flags = {name: value for name, value in (rpm or {}).items() if value is not None}
    return _from_doc(build_run_config(doc), {"rpm": flags})


def _run_batch(
    entries: list[ManifestEntry],
    worker: Callable[[ManifestEntry], Any],
    jobs: int,
) -> list[Any]:
    """Apply worker to each entry on a pool of jobs threads; any Exception
    fails only its own entry and is logged with its type name.

    On KeyboardInterrupt the files in flight finish, the rest never start and
    the interrupt propagates.  Results come back in manifest order; a failed
    entry's slot holds its exception."""

    def guarded(entry: ManifestEntry) -> Any:
        try:
            return worker(entry)
        except Exception as exc:
            log.error("%s: %s: %s", entry.utt_id, type(exc).__name__, exc)
            return exc

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(guarded, entries))


def _run_manifest(
    args: argparse.Namespace,
    cfg: RunConfig,
    label: str,
    worker: Callable[[ManifestEntry, AudioBuffer, Path], ManifestEntry],
    select: Callable[[list[ManifestEntry]], list[ManifestEntry]] = list,
) -> int:
    """Shared batch steps: read the manifest, refuse an --out that is its directory,
    echo the config, run worker(entry, audio, out_dir) on the selected entries, log
    a summary and list the entries they return in out_dir/manifest.tsv (empty if none)."""
    manifest_path = Path(args.manifest)
    out_dir = Path(args.out)
    entries = audio_io.read_manifest(manifest_path)
    if out_dir.is_dir() and out_dir.samefile(manifest_path.parent):
        raise RhythmkitError(f"{label}: --out {out_dir} is the directory of the input "
                             f"manifest {manifest_path}; choose another --out")
    # Written before any output file so every run directory is self-describing.
    out_dir.mkdir(parents=True, exist_ok=True)
    audio_io.write_file(
        out_dir / "config.effective.json", json.dumps(asdict(cfg), indent=2) + "\n"
    )
    selected = select(entries)

    def run(entry: ManifestEntry) -> ManifestEntry:
        # Relative to the manifest's directory; an absolute path replaces it.
        return worker(entry, audio_io.read_wav(manifest_path.parent / entry.path), out_dir)

    written = [r for r in _run_batch(selected, run, args.jobs) if not isinstance(r, Exception)]
    log.info("%s: %d/%d files ok", label, len(written), len(selected))
    audio_io.write_manifest(out_dir / "manifest.tsv", written)
    return EXIT_PARTIAL if len(written) < len(selected) else EXIT_OK


def cmd_glottal(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)

    def worker(entry: ManifestEntry, buf: AudioBuffer, out_dir: Path) -> ManifestEntry:
        result = extract_glottal_flow(buf, cfg.iaif)
        name = f"{entry.utt_id}.glottal.wav"
        audio_io.write_wav(out_dir / name, result.flow)
        if result.unstable_frames:
            log.warning("%s: unstable LPC in %d of %d frames; passed them through raw",
                        entry.utt_id, result.unstable_frames, result.total_frames)
        return replace(entry, path=name)

    return _run_manifest(args, cfg, "glottal", worker)


def cmd_features(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)

    def worker(entry: ManifestEntry, buf: AudioBuffer, out_dir: Path) -> ManifestEntry:
        name = f"{entry.utt_id}.rfb"
        audio_io.write_features(out_dir / name, extract_features(buf, cfg.features))
        return replace(entry, path=name)

    return _run_manifest(args, cfg, "features", worker)


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = load_run_config(
        args.config,
        {"seed": args.seed, "factor_lo": args.factor_lo, "factor_hi": args.factor_hi},
    )
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
        audio_io.write_wav(out_dir / wav_name, result.audio)
        if result.plan is not None:
            plan_path = out_dir / f"{entry.utt_id}.plan.json"
            write_plan(plan_path, result.plan, entry.utt_id, cfg.rpm.seed)
        if args.save_features:
            audio_io.write_features(out_dir / f"{entry.utt_id}.rfb", result.features)
        return ManifestEntry(utt_id=entry.utt_id, path=wav_name, key="spoof", attack=attack_tag)

    return _run_manifest(args, cfg, f"augment({attack_tag})", worker, bonafide)


def cmd_eer(args: argparse.Namespace) -> int:
    scores = evaluation.read_scores(args.scorefile)
    groups = evaluation.load_attack_groups(args.mapping) if args.mapping else None
    breakdown = evaluation.eer_breakdown(scores, attack_groups=groups)
    if args.json:
        print(evaluation.report_json(breakdown))
    else:
        print(evaluation.format_report(breakdown), end="")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config (strict keys)")
    common.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker count")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("manifest")

    parser = argparse.ArgumentParser(prog="rhythmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("glottal", parents=[common], help="extract glottal flow per manifest entry")
    p.set_defaults(func=cmd_glottal)

    p = sub.add_parser("features", parents=[common], help="extract mel+F0 feature files")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("augment", parents=[common], help="copy-synthesize bonafide entries")
    p.add_argument("--rpm", choices=("on", "off"), default="on")
    # Flags only convert; RpmConfig judges their values with the config file's.
    p.add_argument("--seed", type=int, help="override rpm.seed")
    p.add_argument("--factor-lo", type=float, help="override rpm.factor_lo")
    p.add_argument("--factor-hi", type=float, help="override rpm.factor_hi")
    p.add_argument("--save-features", action="store_true")
    p.set_defaults(func=cmd_augment)

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
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (RhythmkitError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
