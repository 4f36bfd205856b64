"""Acceptance gate: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import math
import time

import numpy as np

from conftest import FS, am_harmonic_signal, separated_stable_model, sine, two_formant_voice
from rhythmkit import dsp
from rhythmkit.audio_io import read_manifest, read_wav, write_wav
from rhythmkit.cli import main
from rhythmkit.evaluation import eer_from_scores
from rhythmkit.features import FeatureBundle, FeatureConfig
from rhythmkit.glottal import IaifConfig, extract_glottal_flow
from rhythmkit.rpm import RpmConfig, SplitMix64, apply_plan, rhythm_perturb, sample_segment_plan, speed_perturb
from rhythmkit.synthesis import GriffinLimConfig, copy_synthesize, griffin_lim
from rhythmkit.features import stft_magnitude


def _ok(name):
    print(f"[acceptance] {name}: PASS")


def test_lpc_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    truth = separated_stable_model(rng, 4)  # AR(8): four separated pole pairs
    x = dsp.allpole_filter(rng.standard_normal(16000), truth)
    model = dsp.levinson_durbin(dsp.autocorrelation(x, 8), 8)
    err = np.max(np.abs(model.coeffs - truth.coeffs))
    elapsed = time.monotonic() - start
    assert err < 0.05, f"coefficient L-inf error {err}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    _ok(f"LPC recovery (L-inf {err:.4f}, {elapsed * 1e3:.0f} ms)")


def test_filter_round_trips():
    from conftest import random_stable_model

    rng = np.random.default_rng(99)
    worst_pole = 0.0
    worst_leak = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 13))
        model = random_stable_model(rng, order)
        x = rng.standard_normal(400)
        scale = np.max(np.abs(x))
        y = dsp.inverse_filter(dsp.allpole_filter(x, model), model)
        z = dsp.allpole_filter(dsp.inverse_filter(x, model), model)
        worst_pole = max(worst_pole, np.max(np.abs(y - x)) / scale, np.max(np.abs(z - x)) / scale)

        d = rng.uniform(0.5, 0.999)
        diff = x - d * np.concatenate([[0.0], x[:-1]])
        back = dsp.leaky_integrate(diff, d)
        worst_leak = max(worst_leak, np.max(np.abs(back - x)) / scale)
    assert worst_pole < 1e-9, f"all-pole round-trip rel err {worst_pole}"
    assert worst_leak < 1e-9, f"integrator round-trip rel err {worst_leak}"
    _ok(f"filter round-trips (pole {worst_pole:.2e}, leak {worst_leak:.2e})")


def test_iaif_formant_suppression():
    start = time.monotonic()
    voice, _ = two_formant_voice()
    res = extract_glottal_flow(voice, IaifConfig())
    n_fft = 16384
    p_in = np.abs(np.fft.rfft(voice.samples, n_fft)) ** 2
    p_out = np.abs(np.fft.rfft(res.flow.samples, n_fft)) ** 2

    def frac(power, hz, half=3):
        b = int(round(hz * n_fft / FS))
        return power[b - half : b + half + 1].sum() / power.sum()

    drops = [
        10.0 * np.log10(frac(p_in, hz) / frac(p_out, hz)) for hz in (700.0, 1200.0)
    ]
    lo, hi = int(60 * n_fft / FS), int(250 * n_fft / FS)
    f0_shift = abs(int(np.argmax(p_in[lo:hi])) - int(np.argmax(p_out[lo:hi])))

    spec = dsp.FrameSpec(400, 80)
    f_in = dsp.frame_signal(voice.samples, spec)
    f_out = dsp.frame_signal(res.flow.samples, spec)
    m = min(f_in.shape[0], f_out.shape[0])
    corr = np.corrcoef(
        np.sqrt((f_in[:m] ** 2).mean(axis=1)), np.sqrt((f_out[:m] ** 2).mean(axis=1))
    )[0, 1]
    elapsed = time.monotonic() - start

    assert min(drops) >= 12.0, f"formant drops {drops} dB"
    assert f0_shift <= 1, f"F0 peak moved {f0_shift} bins"
    assert corr >= 0.8, f"envelope correlation {corr}"
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s"
    _ok(
        f"IAIF formant suppression ({drops[0]:.1f}/{drops[1]:.1f} dB, "
        f"F0 shift {f0_shift} bin, envelope r {corr:.3f}, {elapsed:.2f} s)"
    )


def test_rpm_contracts():
    cfg = RpmConfig()
    rng = SplitMix64(7)
    pick = SplitMix64(1001)
    for _ in range(10_000):
        total = pick.next_int(1, 600)
        plan = sample_segment_plan(total, cfg, rng)
        assert plan.tiles(total)
        for seg in plan.segments[:-1]:
            assert 19 <= seg.length <= 32
        assert 1 <= plan.segments[-1].length <= 32
        assert all(0.5 <= s.factor <= 1.5 for s in plan.segments)

    for lo, hi in ((0.5, 1.5), (0.7, 1.3), (0.9, 1.1)):
        ranged = RpmConfig(factor_lo=lo, factor_hi=hi)
        for k in range(200):
            plan = sample_segment_plan(pick.next_int(1, 400), ranged, SplitMix64(k))
            assert all(lo <= s.factor <= hi for s in plan.segments)

    law_rng = np.random.default_rng(5)
    for trial in range(1000):
        total = int(law_rng.integers(1, 240))
        mel = law_rng.uniform(-23.0, 3.0, (total, 2))
        f0 = np.where(law_rng.random(total) < 0.3, 0.0, law_rng.uniform(50, 400, total))
        bundle = FeatureBundle(
            mel=mel, f0=f0, sample_rate=16000.0, hop_length=256, win_length=1024
        )
        plan = sample_segment_plan(total, cfg, SplitMix64(trial))
        out = apply_plan(bundle, plan)
        expect = sum(max(1, int(math.floor(s.length * s.factor + 0.5))) for s in plan.segments)
        assert out.n_frames == expect

    base = FeatureBundle(
        mel=law_rng.uniform(-23.0, 3.0, (120, 6)),
        f0=np.full(120, 200.0),
        sample_rate=16000.0,
        hop_length=256,
        win_length=1024,
    )
    identity, _ = rhythm_perturb(base, RpmConfig(factor_lo=1.0, factor_hi=1.0, seed=3), "utt")
    assert identity == base  # bit-exact

    a, pa = rhythm_perturb(base, RpmConfig(seed=55), "LA_T_42")
    b, pb = rhythm_perturb(base, RpmConfig(seed=55), "LA_T_42")
    assert pa == pb and a == b  # bit-exact across runs
    _ok("RPM contracts (tiling x10000, length law x1000, identity, determinism, ranges)")


def test_rpm_vs_speed_perturbation():
    start = time.monotonic()
    constant = FeatureBundle(
        mel=np.random.default_rng(0).uniform(-23.0, 3.0, (200, 8)),
        f0=np.full(200, 220.0),
        sample_rate=float(FS),
        hop_length=256,
        win_length=1024,
    )
    perturbed, _ = rhythm_perturb(constant, RpmConfig(seed=11), "voice")
    assert np.all(perturbed.f0 == 220.0), "RPM must not move a constant F0 track"

    stretched = speed_perturb(sine(220.0), 1.5)
    mags = np.abs(np.fft.rfft(stretched.samples[:1024] * np.hanning(1024)))
    dominant = int(np.argmax(mags))
    target_bin = (220.0 / 1.5) / (FS / 1024)
    elapsed = time.monotonic() - start
    assert abs(dominant - target_bin) <= 1.0, f"dominant bin {dominant} vs {target_bin:.2f}"
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s"
    _ok(
        f"RPM/speed discriminability (F0 exact 220 Hz, speed bin {dominant} ~ "
        f"{dominant * FS / 1024:.1f} Hz, {elapsed:.2f} s)"
    )


def test_griffin_lim_convergence():
    cfg = FeatureConfig()
    mags = stft_magnitude(am_harmonic_signal(seed=7), cfg)
    res = griffin_lim(mags, cfg.frame, GriffinLimConfig(n_iters=60), FS)
    increases = np.diff(res.objective)
    ratio = res.objective[-1] / res.objective[0]
    assert np.all(increases <= 0.0), f"objective increased by {increases.max()}"
    assert ratio <= 0.1, f"final/initial ratio {ratio}"
    _ok(f"Griffin-Lim (monotone over 60 iterations, ratio {ratio:.3f})")


def test_copy_synthesis_duration_law():
    cfg = FeatureConfig()
    gl = GriffinLimConfig(n_iters=1)
    for seed in range(100):
        buf = am_harmonic_signal(seed=seed, seconds=0.7)
        res = copy_synthesize(buf, cfg, RpmConfig(seed=seed), gl, f"utt{seed:03d}")
        frames = res.plan.output_frames()
        expect = (frames - 1) * cfg.frame.hop_length + cfg.frame.win_length
        assert abs(len(res.audio) - expect) <= cfg.frame.hop_length
    _ok("copy-synthesis duration law (100 seeded utterances, within one hop)")


def _eer_oracle_sweep(bona, spoof):
    """Brute-force: count both rates at every candidate threshold, scan for
    the crossing, interpolate. Counting is done by explicit comparison against
    each threshold rather than rank arithmetic."""
    thr = np.unique(np.concatenate([bona, spoof]))
    thr = np.append(thr, np.nextafter(thr[-1], np.inf))
    frr = (bona[None, :] < thr[:, None]).mean(axis=1)
    far = (spoof[None, :] >= thr[:, None]).mean(axis=1)
    prev = None
    for i in range(len(thr)):
        d = far[i] - frr[i]
        if d == 0.0:
            return (far[i] + frr[i]) / 2.0
        if d < 0.0:
            dp = far[prev] - frr[prev]
            alpha = dp / (dp - d)
            far_v = far[prev] + alpha * (far[i] - far[prev])
            frr_v = frr[prev] + alpha * (frr[i] - frr[prev])
            return (far_v + frr_v) / 2.0
        prev = i
    raise AssertionError("no crossing")


def test_eer_oracle_equivalence():
    assert eer_from_scores(np.array([1.0, 2.0]), np.array([-1.0, 0.0])).eer == 0.0
    assert eer_from_scores(np.array([-1.0, -2.0]), np.array([1.0, 2.0])).eer == 1.0

    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(1000):
        n_b = int(rng.integers(1, 251))
        n_s = int(rng.integers(1, 251))
        bona = rng.normal(1.0, 1.0, n_b)
        spoof = rng.normal(0.0, 1.0, n_s)
        if trial % 3 == 0:  # tie-heavy sets
            bona = np.round(bona, 1)
            spoof = np.round(spoof, 1)
        got = eer_from_scores(bona, spoof).eer
        want = _eer_oracle_sweep(np.sort(bona), np.sort(spoof))
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9

        if trial % 5 == 0:  # monotone-transform invariance, exact
            assert eer_from_scores(bona * 8.0, spoof * 8.0).eer == got
            assert eer_from_scores(bona + 1000.0, spoof + 1000.0).eer == got
            assert eer_from_scores(np.exp(bona / 4.0), np.exp(spoof / 4.0)).eer == got
    _ok(f"EER oracle equivalence (1000 sets, worst |diff| {worst:.2e}; invariance exact)")


def test_end_to_end_smoke(tmp_path):
    start = time.monotonic()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    lines = []
    for i in range(10):
        buf = am_harmonic_signal(seed=100 + i)
        write_wav(corpus / f"utt{i:02d}.wav", buf, "pcm16")
        lines.append(f"utt{i:02d}\tutt{i:02d}.wav\tbonafide\t-")
    manifest = corpus / "manifest.tsv"
    manifest.write_text("".join(line + "\n" for line in lines))

    feat_dir = tmp_path / "features"
    assert main(["features", str(manifest), "--out", str(feat_dir)]) == 0
    assert len(list(feat_dir.glob("*.rfb"))) == 10

    wide = tmp_path / "aug_wide"
    narrow = tmp_path / "aug_narrow"
    base = ["augment", str(manifest), "--rpm", "on", "--seed", "7"]
    assert main(base + ["--out", str(wide)]) == 0
    assert main(base + ["--out", str(narrow), "--factor-lo", "0.9", "--factor-hi", "1.1"]) == 0
    for out_dir, lo, hi in ((wide, 0.5, 1.5), (narrow, 0.9, 1.1)):
        entries = read_manifest(out_dir / "manifest.tsv")
        assert len(entries) == 10 and all(e.attack == "RPM" for e in entries)
        for entry in entries:
            assert len(read_wav(out_dir / entry.path)) > 0
            plan = json.loads((out_dir / f"{entry.utt_id}.plan.json").read_text())
            assert all(lo <= seg["factor"] <= hi for seg in plan["segments"])

    rng = np.random.default_rng(77)
    score_lines = [f"utt{i:02d}\tbonafide\t-\t{rng.normal(2.0, 1.0):.6f}" for i in range(10)]
    score_lines += [f"rpm{i:02d}\tspoof\tRPM\t{rng.normal(0.0, 1.0):.6f}" for i in range(20)]
    scorefile = tmp_path / "scores.tsv"
    scorefile.write_text("".join(line + "\n" for line in score_lines))
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("RPM\tTTS\n")
    assert main(["eer", str(scorefile), "--mapping", str(mapping)]) == 0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"smoke took {elapsed:.1f}s"
    _ok(f"end-to-end smoke (10 utterances, both RPM ranges, {elapsed:.1f} s)")
