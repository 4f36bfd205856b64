import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from rhythmkit import evaluation
from rhythmkit.errors import InsufficientClassesError, ParseError, UnknownAttackError
from rhythmkit.evaluation import (
    DEFAULT_ATTACK_GROUPS,
    ScoreSet,
    eer_breakdown,
    eer_from_scores,
    format_report,
    load_attack_groups,
    read_scores,
    report_json,
)


def eer_oracle(bona, spoof):
    """Brute-force sweep: count FAR/FRR at every candidate threshold with
    plain python loops, scan for the sign flip, interpolate the crossing."""
    cands = sorted(set(list(bona) + list(spoof)))
    cands.append(math.nextafter(cands[-1], math.inf))
    points = []
    for t in cands:
        frr = sum(1 for b in bona if b < t) / len(bona)
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        points.append((far, frr))
    prev_far, prev_frr = points[0]
    for far, frr in points:
        d = far - frr
        if d == 0.0:
            return (far + frr) / 2.0
        if d < 0.0:
            d_prev = prev_far - prev_frr
            alpha = d_prev / (d_prev - d)
            return (
                prev_far + alpha * (far - prev_far) + prev_frr + alpha * (frr - prev_frr)
            ) / 2.0
        prev_far, prev_frr = far, frr
    raise AssertionError("no crossing found")


def eer_searchsorted_reference(bona, spoof):
    """eer_from_scores as it was before the merge: thresholds from np.unique,
    counts from two binary searches."""
    bona = np.sort(np.asarray(bona, dtype=np.float64))
    spoof = np.sort(np.asarray(spoof, dtype=np.float64))
    thresholds = np.unique(np.concatenate([bona, spoof]))
    thresholds = np.append(thresholds, np.nextafter(thresholds[-1], np.inf))
    frr = np.searchsorted(bona, thresholds, side="left") / len(bona)
    far = (len(spoof) - np.searchsorted(spoof, thresholds, side="left")) / len(spoof)
    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float((far[idx] + frr[idx]) / 2.0)
    prev = idx - 1
    alpha = diff[prev] / (diff[prev] - diff[idx])
    eer_far = far[prev] + alpha * (far[idx] - far[prev])
    eer_frr = frr[prev] + alpha * (frr[idx] - frr[prev])
    return float((eer_far + eer_frr) / 2.0)


def make_set(bona, spoof, attack="A07"):
    return ScoreSet(
        scores=list(bona) + list(spoof),
        bonafide=[True] * len(bona) + [False] * len(spoof),
        attack=["-"] * len(bona) + [attack] * len(spoof),
    )


class TestReadScores:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text(
            "u1\tbonafide\t-\t2.5\nu2\tbonafide\t-\t1.5\nu3\tspoof\tA07\t-0.5\nu4\tspoof\tA17\t0.25\n"
        )
        scores = read_scores(path)
        assert len(scores.scores) == 4
        assert scores.scores[2] == -0.5

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("u1\tbonafide\t-\tabc\n")
        with pytest.raises(ParseError, match=":1"):
            read_scores(path)

    @pytest.mark.parametrize("key, score", [
        ("spooof", "0.5"), ("spoof", "nan"), ("spoof", "inf"), ("spoof", "-inf"),
    ])
    def test_bad_key_or_non_finite_score_names_line(self, tmp_path, key, score):
        path = tmp_path / "s.tsv"
        path.write_text(f"u1\tbonafide\t-\t1.0\nu2\t{key}\tA07\t{score}\n")
        with pytest.raises(ParseError, match=r"s\.tsv:2: "):
            read_scores(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("u1\tbonafide\t-\t1\nu1\tspoof\tA07\t0\n")
        with pytest.raises(ParseError, match=":2: duplicate id 'u1'"):
            read_scores(path)

    def test_spoof_only_loads_but_eer_fails(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("u1\tspoof\tA07\t0.5\nu2\tspoof\tA07\t0.1\n")
        scores = read_scores(path)
        assert len(scores.scores) == 2
        with pytest.raises(InsufficientClassesError):
            eer_breakdown(scores)


class TestScoreSet:
    @pytest.mark.parametrize("columns", [
        ([1.0, 2.0], [True], ["-", "A07"]),
        ([[1.0]], [[True]], [["-"]]),
        ([1.0, np.inf], [True, False], ["-", "A07"]),
        ([np.nan], [False], ["A07"]),
    ])
    def test_constructor_checks_columns(self, columns):
        with pytest.raises(ValueError):
            ScoreSet(*columns)

    def test_selections_and_equality(self):
        scores = ScoreSet(
            [0.5, 1.0, 2.0, 3.0], [False, True, False, False], ["A17", "-", "A07", "A17"]
        )
        down = eer_breakdown(scores)
        assert list(down.per_attack) == ["A07", "A17"]
        assert down.total == eer_from_scores([1.0], [0.5, 2.0, 3.0])
        assert down.per_attack["A17"] == eer_from_scores([1.0], [0.5, 3.0])
        assert scores == scores and scores != make_set([1.0], [0.0])  # no elementwise ==

    def test_long_label_does_not_widen_attack_column(self):
        labels = ["-"] * 1000 + ["A" * 10_000]
        scores = ScoreSet(np.zeros(1001), [True] * 1000 + [False], labels)
        assert list(eer_breakdown(scores, {"A" * 10_000: "TTS"}).per_attack) == ["A" * 10_000]
        assert scores.attack.nbytes <= 8 * 1001  # one reference per trial


class TestComputeEer:
    def test_perfectly_separated(self):
        res = eer_from_scores([1.0, 2.0, 3.0], [-1.0, -2.0, 0.0])
        assert res.eer == 0.0

    def test_perfectly_inverted(self):
        res = eer_from_scores([-1.0, -2.0], [1.0, 2.0])
        assert res.eer == 1.0

    def test_hand_worked_case(self):
        # bona {1, 0}, spoof {0}: step functions cross a third of the way.
        res = eer_from_scores([1.0, 0.0], [0.0])
        assert res.eer == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_all_ties_give_half(self):
        res = eer_from_scores([0.5, 0.5], [0.5, 0.5])
        assert res.eer == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_oracle_small(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n_b = int(rng.integers(1, 30))
            n_s = int(rng.integers(1, 30))
            bona = rng.normal(1.0, 1.0, n_b)
            spoof = rng.normal(0.0, 1.0, n_s)
            if trial % 3 == 0:  # force ties
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            res = eer_from_scores(bona, spoof)
            assert res.eer == pytest.approx(eer_oracle(list(bona), list(spoof)), abs=1e-9)

    def test_monotone_transform_invariance_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            bona = rng.normal(1.0, 1.0, 40)
            spoof = rng.normal(0.0, 1.0, 60)
            base = eer_from_scores(bona, spoof).eer
            assert eer_from_scores(bona * 8.0, spoof * 8.0).eer == base
            assert eer_from_scores(np.tanh(bona), np.tanh(spoof)).eer == base

    def test_swap_and_negate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            bona = rng.normal(0.5, 1.0, 25)
            spoof = rng.normal(0.0, 1.0, 35)
            a = eer_from_scores(bona, spoof).eer
            b = eer_from_scores(-spoof, -bona).eer
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["bonafide", "spoof"])
    def test_non_finite_input_names_argument(self, name, bad):
        args = {"bonafide": [0.1, 0.7], "spoof": [0.2, 0.3]}
        args[name] = [args[name][0], bad, args[name][1]]
        with pytest.raises(ValueError, match=f"^{name} scores must be finite$"):
            eer_from_scores(**args)

    @pytest.mark.parametrize("name", ["bonafide", "spoof"])
    def test_non_1d_input_names_argument(self, name):
        args = {"bonafide": [0.1, 0.7], "spoof": [0.2, 0.3]}
        args[name] = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError, match=rf"^{name} scores must be a 1-D array, got shape \(2, 2\)$"):
            eer_from_scores(**args)


def _assert_same_as_reference(bona, spoof):
    got = eer_from_scores(bona, spoof)
    eer = eer_searchsorted_reference(bona, spoof)
    assert struct.pack("<d", got.eer) == struct.pack("<d", eer), (bona, spoof)


class TestEerBitIdentity:
    """The merged counts give the reference's EER bit for bit (the brute-force
    oracle above only checks to 1e-9)."""

    def test_tied_and_degenerate_pools(self):
        rng = np.random.default_rng(16)
        for trial in range(3000):
            n_b, n_s = (int(n) for n in rng.integers(1, 40, 2))
            if trial % 5 == 0:
                n_b = 1
            elif trial % 5 == 1:
                n_s = 1
            # Few distinct values, so most scores tie; zeros carry either sign.
            levels = rng.integers(-3, 4, n_b + n_s) * 0.5
            levels[(levels == 0.0) & (rng.random(n_b + n_s) < 0.5)] = -0.0
            if trial % 7 == 0:
                levels[:] = levels[0]
            _assert_same_as_reference(levels[:n_b], levels[n_b:])

    def test_benchmark_sized_pools(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        scores = read_scores(corpus.make_scores(tmp_path, seed=1)["scores"])
        pools = []

        def record(bona, spoof):
            pools.append((bona, spoof))
            return eer_from_scores(bona, spoof)

        monkeypatch.setattr(evaluation, "eer_from_scores", record)
        evaluation.eer_breakdown(scores)
        assert len(pools) == 16
        for bona, spoof in pools:
            _assert_same_as_reference(bona, spoof)


class TestBreakdown:
    def test_single_attack_equals_total(self):
        scores = make_set([1.0, 2.0, 0.3], [0.5, -0.2, 0.1], attack="A08")
        down = eer_breakdown(scores)
        assert down.per_attack["A08"].eer == down.total.eer
        assert down.tts.eer == down.total.eer
        assert down.vc is None

    def test_two_attack_composition(self):
        scores = ScoreSet(
            scores=[1.0, 2.0, -1.0, 5.0],  # A07 separable, A17 inverted
            bonafide=[True, True, False, False],
            attack=["-", "-", "A07", "A17"],
        )
        down = eer_breakdown(scores)
        assert down.per_attack["A07"].eer == 0.0
        assert down.per_attack["A17"].eer == 1.0
        assert 0.0 < down.total.eer < 1.0

    def test_matches_plain_loop_over_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        attacks = ["A07", "A10", "A16", "A17", "A19"]  # three TTS, two VC
        rows = [("bonafide", "-", float(rng.normal(1.0, 1.0))) for _ in range(120)]
        rows += [("spoof", a, float(rng.normal(0.2 * k, 1.0))) for k, a in enumerate(attacks)
                 for _ in range(40)]
        lines = [f"t{i}\t{key}\t{attack}\t{score!r}\n" for i, (key, attack, score) in enumerate(rows)]
        path = tmp_path / "s.tsv"
        path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))

        bona, pools = [], {}
        for line in path.read_text().splitlines():
            _, key, attack, score = line.split("\t")
            if key == "bonafide":
                bona.append(float(score))
            else:
                pools.setdefault(attack, []).append(float(score))
        down = eer_breakdown(read_scores(path))

        assert sorted(down.per_attack) == sorted(pools) == attacks
        for attack, spoof in pools.items():
            assert down.per_attack[attack] == eer_from_scores(bona, spoof)
        for group, result in (("TTS", down.tts), ("VC", down.vc)):
            spoof = [s for a in attacks if DEFAULT_ATTACK_GROUPS[a] == group for s in pools[a]]
            assert result == eer_from_scores(bona, spoof)
        assert down.total == eer_from_scores(bona, [s for a in attacks for s in pools[a]])

    def test_default_mapping_classifies_a10_as_tts(self):
        assert DEFAULT_ATTACK_GROUPS["A10"] == "TTS"
        assert DEFAULT_ATTACK_GROUPS["A17"] == "VC"

    def test_unknown_attack_strict(self):
        scores = make_set([1.0], [0.0], attack="B99")
        with pytest.raises(UnknownAttackError):
            eer_breakdown(scores)

    def test_mapping_file(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("B99\tTTS\nC01\tVC\n")
        groups = load_attack_groups(path)
        scores = make_set([1.0, 0.8], [0.0, 0.1], attack="B99")
        down = eer_breakdown(scores, attack_groups=groups)
        assert down.tts is not None and down.vc is None
        path.write_text("B99\tother\n")
        with pytest.raises(ParseError):
            load_attack_groups(path)

    def test_bonafide_row_naming_an_attack_joins_no_pool(self):
        scores = ScoreSet(
            [1.0, 2.0, 0.5, 0.0], [True, True, True, False], ["-", "A07", "A07", "A17"]
        )
        down = eer_breakdown(scores)
        assert list(down.per_attack) == ["A17"]
        assert down.tts is None
        assert down.vc == down.total == eer_from_scores([1.0, 2.0, 0.5], [0.0])

    def test_mapping_with_no_vc_attack_in_file(self):
        scores = ScoreSet([1.0, 0.2, 0.3], [True, False, False], ["-", "A17", "A18"])
        down = eer_breakdown(scores, attack_groups={"A17": "TTS", "A18": "TTS"})
        assert down.vc is None
        assert down.tts == down.total

    def test_mapping_entries_absent_from_file_change_nothing(self):
        scores = ScoreSet(
            [1.0, 0.4, 0.2, 0.9, 0.1], [True, True, False, False, False],
            ["-", "-", "A07", "A17", "A07"],
        )
        groups = {**DEFAULT_ATTACK_GROUPS, "B99": "VC", "C01": "TTS"}
        assert eer_breakdown(scores, attack_groups=groups) == eer_breakdown(scores)

    @pytest.mark.parametrize("bona, spoof, message", [
        ([], [0.1, 0.2], "need at least one bonafide and one spoof trial, got 0/2"),
        ([1.0, 0.5, 0.7], [], "need at least one bonafide and one spoof trial, got 3/0"),
    ])
    def test_one_class_only_raises(self, bona, spoof, message):
        with pytest.raises(InsufficientClassesError) as info:
            eer_breakdown(make_set(bona, spoof))
        assert str(info.value) == message

    def test_unsorted_labels_give_sorted_keys(self):
        attacks = ["A19", "A07", "A13", "A17", "A10", "A07", "A19", "A13"]
        scores = ScoreSet(
            [1.0, 0.9] + [0.1 * k for k in range(len(attacks))],
            [True, True] + [False] * len(attacks),
            ["-", "-"] + attacks,
        )
        down = eer_breakdown(scores)
        assert list(down.per_attack) == sorted(set(attacks))
        assert list(json.loads(report_json(down))["per_attack"]) == sorted(set(attacks))

    def test_mapping_file_with_bom_maps_first_attack(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_bytes(b"\xef\xbb\xbfB99\tTTS\nC01\tVC\n")
        assert load_attack_groups(path) == {"B99": "TTS", "C01": "VC"}

    def test_mapping_file_duplicate_attack(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("B99\tTTS\nB99\tVC\n")
        with pytest.raises(ParseError, match=":2: duplicate id 'B99'"):
            load_attack_groups(path)


class TestReports:
    def test_text_report_two_decimals(self):
        scores = make_set([1.0, 2.0, 0.3], [0.5, -0.2, 0.1])
        text = format_report(eer_breakdown(scores))
        head, body = text.strip().split("\n")
        assert head.split() == ["TTS", "VC", "Total", "A07"]
        cells = body.split()
        assert cells[1] == "-"  # no VC trials
        for cell in (cells[0], cells[2], cells[3]):
            assert len(cell.split(".")[1]) == 2

    def test_json_report(self):
        scores = make_set([1.0, 2.0], [0.5, -0.2])
        doc = json.loads(report_json(eer_breakdown(scores)))
        assert set(doc) == {"total", "tts", "vc", "per_attack"}
        assert doc["vc"] is None
        assert doc["per_attack"]["A07"] == doc["total"]
