"""Generator checks: grading rule, geometry invariants, file round trips."""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from crossfit.geometry import RelCoord
from crossfit.synthdata import (
    APERTURE, ArrayDataset, DataError, GenConfig, Lesion, RetinaScene,
    generate_dataset, generate_eye, generate_scene, grade_histogram,
    grade_rule, load_dataset, read_ppm, render_field, write_dataset,
    write_ppm,
)


def _mk(kind, n):
    return [Lesion(kind, 0.0, 0.0, 1.0) for _ in range(n)]


class TestGradeRule:
    def test_no_lesions_is_healthy(self):
        assert grade_rule([]) == 0

    def test_few_dots(self):
        for n in (1, 2, 3):
            assert grade_rule(_mk("dot", n)) == 1

    def test_moderate_counts(self):
        assert grade_rule(_mk("dot", 4)) == 2
        assert grade_rule(_mk("dot", 10)) == 2
        assert grade_rule(_mk("blob", 1)) == 2
        assert grade_rule(_mk("blob", 2)) == 2

    def test_heavy_counts(self):
        assert grade_rule(_mk("dot", 11)) == 3
        assert grade_rule(_mk("blob", 3)) == 3

    def test_streak_dominates(self):
        assert grade_rule(_mk("streak", 1)) == 4
        assert grade_rule(_mk("streak", 1) + _mk("dot", 2) + _mk("blob", 4)) == 4

    def test_blob_beats_small_dot_count(self):
        # 2 dots alone would be grade 1; one blob lifts the eye to 2
        assert grade_rule(_mk("dot", 2) + _mk("blob", 1)) == 2

    def test_mixed_heavy(self):
        assert grade_rule(_mk("dot", 12) + _mk("blob", 1)) == 3


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestSceneGeneration:
    def test_target_grade_is_achieved(self):
        cfg = GenConfig()
        for grade in range(5):
            for seed in range(6):
                scene = generate_scene(_rng(seed * 5 + grade), grade, cfg)
                assert scene.grade == grade
                assert grade_rule(scene.lesions) == grade

    def test_grade_zero_has_no_lesions(self):
        scene = generate_scene(_rng(3), 0)
        assert scene.lesions == []
        assert not scene.split_evidence

    def test_determinism(self):
        a = generate_scene(_rng(11), 3)
        b = generate_scene(_rng(11), 3)
        assert a.lesions == b.lesions
        assert a.od_center == b.od_center
        assert a.field1_center == b.field1_center

    def test_bad_target_rejected(self):
        with pytest.raises(DataError):
            generate_scene(_rng(0), 7)

    def test_disc_macula_distance(self):
        for seed in range(10):
            scene = generate_scene(_rng(seed), 0)
            d = math.hypot(scene.od_center[0], scene.od_center[1])
            assert 0.33 * scene.size <= d <= 0.41 * scene.size

    def test_every_lesion_visible_somewhere(self):
        r_ap = APERTURE * 64
        for seed in range(20):
            scene = generate_scene(_rng(seed), 3)
            for l in scene.lesions:
                hx = math.cos(l.angle) * l.length / 2
                hy = math.sin(l.angle) * l.length / 2
                pts = [(l.x, l.y), (l.x + hx, l.y + hy), (l.x - hx, l.y - hy)]
                fully_in = []
                for c in (scene.field1_center, scene.field2_center):
                    fully_in.append(all(
                        math.hypot(px - c[0], py - c[1]) <= r_ap - l.radius
                        for px, py in pts))
                assert any(fully_in), f"seed {seed}: stranded lesion"

    def test_split_scenes_hide_everything_from_field1(self):
        cfg = GenConfig(split_rate=1.0)
        r_ap = APERTURE * cfg.size
        found = 0
        for seed in range(40):
            for grade in (1, 2, 3, 4):
                scene = generate_scene(_rng(1000 + seed * 7 + grade), grade, cfg)
                if not scene.split_evidence:
                    continue
                found += 1
                for l in scene.lesions:
                    # every point of the lesion body, endpoints included for
                    # streaks, must clear field 1 and sit inside field 2
                    hx = math.cos(l.angle) * l.length / 2
                    hy = math.sin(l.angle) * l.length / 2
                    for px, py in ((l.x, l.y), (l.x + hx, l.y + hy),
                                   (l.x - hx, l.y - hy)):
                        d1 = math.hypot(px - scene.field1_center[0],
                                        py - scene.field1_center[1])
                        d2 = math.hypot(px - scene.field2_center[0],
                                        py - scene.field2_center[1])
                        assert d1 >= r_ap + l.radius, "lesion leaks into field 1"
                        assert d2 <= r_ap - l.radius, "lesion outside field 2"
        assert found == 160  # split_rate 1.0 forces the flag on all graded eyes

    def test_split_field1_pixels_identical_to_lesion_free_scene(self):
        cfg = GenConfig(split_rate=1.0, artifact_rate=0.0)
        scene = generate_scene(_rng(77), 4, cfg)
        assert scene.split_evidence
        img, _ = render_field(scene, "macula")
        bare = RetinaScene(scene.size, scene.laterality, scene.od_center,
                           scene.od_radius, scene.macula_center,
                           scene.macula_radius, scene.base_color, [],
                           0, False, scene.field1_center, scene.field2_center)
        img_bare, _ = render_field(bare, "macula")
        np.testing.assert_array_equal(img, img_bare)

    def test_artifact_rate_zero_means_none(self):
        cfg = GenConfig(artifact_rate=0.0)
        for seed in range(8):
            assert generate_scene(_rng(seed), 2, cfg).artifact is None

    def test_artifact_in_at_most_one_field(self):
        cfg = GenConfig(artifact_rate=1.0)
        seen = set()
        for seed in range(20):
            scene = generate_scene(_rng(seed), 1, cfg)
            if scene.artifact is not None:
                field, poly = scene.artifact
                assert field in (1, 2)
                assert poly.shape == (4, 2)
                seen.add(field)
        assert seen == {1, 2}


class TestRendering:
    def test_corners_exactly_zero(self):
        scene = generate_scene(_rng(5), 2)
        for center in ("macula", "optic_disc"):
            img, _ = render_field(scene, center)
            for i in (0, -1):
                for j in (0, -1):
                    assert np.all(img[i, j] == 0.0)

    def test_bad_center_name(self):
        scene = generate_scene(_rng(5), 0)
        with pytest.raises(DataError):
            render_field(scene, "fovea")

    def test_image_shape_and_range(self):
        scene = generate_scene(_rng(6), 3)
        img, od = render_field(scene, "optic_disc")
        assert img.shape == (64, 64, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert isinstance(od, RelCoord)

    def test_od_near_center_of_field2(self):
        # camera jitter is at most one pixel per axis
        for seed in range(12):
            sample = generate_eye(0, seed)
            assert abs(sample.od2.x - 0.5) <= 1.0 / 64 + 1e-9
            assert abs(sample.od2.y - 0.5) <= 1.0 / 64 + 1e-9

    def test_od_annotation_matches_rendered_disc(self):
        # centroid of disc-colored pixels must sit within one pixel of the
        # annotated center, in both fields
        for seed in range(6):
            scene = generate_scene(_rng(seed + 30), 0)
            for center in ("macula", "optic_disc"):
                img, od = render_field(scene, center)
                bright = (img[:, :, 2] > 0.55) & (img[:, :, 1] > 0.85)
                assert bright.sum() > 10, "disc not visible"
                ys, xs = np.nonzero(bright)
                cx = xs.mean() + 0.5
                cy = ys.mean() + 0.5
                assert abs(cx - od.x * 64) <= 1.0
                assert abs(cy - od.y * 64) <= 1.0

    def test_shared_lesion_offset_matches_field_offset(self):
        # a blob visible in both fields must shift by exactly the camera
        # offset; localize it by its color signature in each rendering
        scene = RetinaScene(
            size=64, laterality="OD", od_center=(19.2, 0.7), od_radius=4.5,
            macula_center=(0.0, 0.0), macula_radius=3.5,
            base_color=np.array([0.82, 0.40, 0.13]),
            lesions=[Lesion("blob", 9.5, 7.0, 3.0)],
            grade=2, split_evidence=False,
            field1_center=(0.4, -0.6), field2_center=(18.9, 1.1))
        img1, _ = render_field(scene, "macula")
        img2, _ = render_field(scene, "optic_disc")
        cents = []
        for img in (img1, img2):
            yellow = (img[:, :, 0] > 0.8) & (img[:, :, 1] > 0.7) & (img[:, :, 2] < 0.5)
            assert yellow.sum() > 3
            ys, xs = np.nonzero(yellow)
            cents.append((xs.mean(), ys.mean()))
        dx = cents[0][0] - cents[1][0]
        dy = cents[0][1] - cents[1][1]
        want_dx = scene.field2_center[0] - scene.field1_center[0]
        want_dy = scene.field2_center[1] - scene.field1_center[1]
        assert abs(dx - want_dx) <= 1.0
        assert abs(dy - want_dy) <= 1.0

    def test_artifact_darkens_pixels(self):
        cfg = GenConfig(artifact_rate=1.0)
        for seed in range(10):
            scene = generate_scene(_rng(seed + 50), 0, cfg)
            if scene.artifact is None:
                continue
            field, _ = scene.artifact
            img, _ = render_field(scene, "macula" if field == 1 else "optic_disc")
            dark = (img.max(axis=2) > 0) & (img.max(axis=2) < 0.08)
            assert dark.sum() > 20
            return
        pytest.fail("artifact never placed at rate 1.0")


class TestEyePipeline:
    def test_eye_determinism(self):
        a = generate_eye(42, 7)
        b = generate_eye(42, 7)
        np.testing.assert_array_equal(a.image1, b.image1)
        np.testing.assert_array_equal(a.image2, b.image2)
        assert a.od1 == b.od1 and a.grade == b.grade

    def test_eyes_differ_across_ids(self):
        a = generate_eye(42, 0)
        b = generate_eye(42, 1)
        assert not np.array_equal(a.image1, b.image1)

    def test_seed_changes_data(self):
        a = generate_eye(1, 0)
        b = generate_eye(2, 0)
        assert not np.array_equal(a.image1, b.image1)

    def test_images_are_quantized(self):
        s = generate_eye(0, 0)
        np.testing.assert_array_equal(s.image1, np.round(s.image1 * 255) / 255)

    def test_histogram_covers_all_grades(self):
        samples = generate_dataset(3, 80)
        hist = grade_histogram(samples)
        assert hist["total"] == 80
        assert all(c > 0 for c in hist["per_grade"])
        assert hist["split_evidence"] > 0

    def test_bad_size_rejected(self):
        with pytest.raises(DataError):
            generate_dataset(0, 0)


class TestPersistence:
    def test_ppm_round_trip(self, tmp_path):
        img = (np.arange(4 * 5 * 3, dtype=np.uint8)).reshape(4, 5, 3)
        p = str(tmp_path / "t.ppm")
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_ppm_truncation_detected(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        write_ppm(p, np.zeros((4, 4, 3), dtype=np.uint8))
        blob = open(p, "rb").read()
        open(p, "wb").write(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            read_ppm(p)

    @pytest.mark.parametrize("header", [b"P6\n# written by hand\n5 4\n255\n",
                                        b"P6\n5\n4\n255\n"],
                             ids=["comment_line", "split_dims"])
    def test_ppm_legal_headers_read(self, tmp_path, header):
        img = (np.arange(4 * 5 * 3, dtype=np.uint8)).reshape(4, 5, 3)
        p = str(tmp_path / "t.ppm")
        open(p, "wb").write(header + img.tobytes())
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_ppm_non_integer_dim_rejected(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        open(p, "wb").write(b"P6\n5 four\n255\n" + bytes(60))
        with pytest.raises(DataError, match="non-integer"):
            read_ppm(p)

    def test_dataset_round_trip(self, tmp_path):
        samples = generate_dataset(9, 12)
        write_dataset(samples, str(tmp_path))
        ds = load_dataset(str(tmp_path))
        assert len(ds) == 12
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(ds.images1[i], s.image1)
            np.testing.assert_array_equal(ds.images2[i], s.image2)
            assert ds.grades[i] == s.grade
            assert ds.split_evidence[i] == s.split_evidence
            assert ds.od1[i, 0] == pytest.approx(s.od1.x, abs=0)

    def test_regeneration_is_byte_identical(self, tmp_path):
        def digest(d):
            h = hashlib.sha256()
            for name in sorted(os.listdir(os.path.join(d, "images"))):
                h.update(open(os.path.join(d, "images", name), "rb").read())
            h.update(open(os.path.join(d, "manifest.jsonl"), "rb").read())
            return h.hexdigest()

        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        write_dataset(generate_dataset(5, 10), d1)
        write_dataset(generate_dataset(5, 10), d2)
        assert digest(d1) == digest(d2)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(str(tmp_path))

    def test_bad_grade_names_eye(self, tmp_path):
        write_dataset(generate_dataset(1, 3), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["grade"] = 9
        lines[1] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="eye 1"):
            load_dataset(str(tmp_path))

    def test_bad_coordinate_names_eye(self, tmp_path):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["od1_x"] = 1.7
        lines[0] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="eye 0"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("key, value", [
        ("grade", "3"), ("grade", 2.5), ("grade", True),
        ("od1_x", "0.5"), ("od1_y", None), ("od2_x", [0.5]), ("od2_y", False),
        ("eye_id", "1"), ("field1_path", 7), ("field2_path", None),
    ])
    def test_mistyped_field_typed(self, tmp_path, key, value):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[1])
        rec[key] = value
        lines[1] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"eye 1: {key}="):
            load_dataset(str(tmp_path))

    def test_non_object_record_typed(self, tmp_path):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        mpath.write_text(mpath.read_text() + "[1, 2]\n")
        with pytest.raises(DataError, match="line 3: not a JSON object"):
            load_dataset(str(tmp_path))

    def test_missing_image_names_eye(self, tmp_path):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        os.remove(tmp_path / "images" / "1_f2.ppm")
        with pytest.raises(DataError, match="eye 1"):
            load_dataset(str(tmp_path))

    def test_split_helpers(self):
        ds = ArrayDataset.from_samples(generate_dataset(2, 10))
        train, test = ds.train_test_split(0.8)
        assert len(train) == 8 and len(test) == 2
        assert list(train.eye_ids) == list(range(8))
        sub = ds.subset(ds.split_evidence)
        assert all(sub.split_evidence)

    def test_budget_small_batch(self, tmp_path):
        t0 = time.time()
        samples = generate_dataset(1, 60)
        write_dataset(samples, str(tmp_path))
        elapsed = time.time() - t0
        assert elapsed < 8.0, f"60 eyes took {elapsed:.1f}s"
        total = sum(os.path.getsize(os.path.join(tmp_path, "images", f))
                    for f in os.listdir(tmp_path / "images"))
        assert total < 60 * 2 * 16000  # well under the size budget per eye
