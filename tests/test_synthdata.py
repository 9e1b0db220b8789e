"""Generator checks: grading rule, geometry invariants, file round trips.

Run as a script to print the digest of every pinned generator configuration
(`python tests/test_synthdata.py`).
"""

import dataclasses
import hashlib
import json
import math
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossfit.geometry import RelCoord
from crossfit.synthdata import (
    _ARTIFACT_SHADE, _BLOB_COLOR, _DOT_COLOR, _EDGE_PAD, _LESION_ZONE,
    _OD_COLOR, _STREAK_COLOR, APERTURE, MIN_SIZE, ArrayDataset, DataError,
    GenConfig, Lesion, RetinaScene, TwoFieldSample, _bounding_radius,
    _capsule_alpha, _disc_alpha, _dist, _pixel_box, _place_lesion, _quad_mask,
    _unit_floats, generate_dataset, generate_eye, generate_scene, grade_histogram,
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

    @pytest.mark.parametrize("field", ["split_rate", "artifact_rate"])
    @pytest.mark.parametrize("rate", [math.nan, -0.1, 1.5, math.inf])
    def test_rates_outside_unit_interval_refused(self, field, rate):
        with pytest.raises(DataError, match=f"{field} .* outside"):
            GenConfig(**{field: rate})

    @pytest.mark.parametrize("size", [0, -8, MIN_SIZE - 1])
    def test_size_below_minimum_refused(self, size):
        with pytest.raises(DataError, match=f"size {size} below {MIN_SIZE}"):
            GenConfig(size=size)

    def test_minimum_size_generates(self):
        hist = grade_histogram(generate_dataset(0, 30, GenConfig(size=MIN_SIZE)))
        assert hist["total"] == 30 and hist["split_evidence"] > 0

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


def _place_lesion_scalar(rng, zone, scene_geo, r, length, existing, tries=2000):
    """One try at a time with `rng.uniform`: the loop `_place_lesion`
    batches, kept verbatim as its oracle."""
    s = scene_geo["size"]
    r_ap = APERTURE * s
    c1, c2 = scene_geo["c1"], scene_geo["c2"]
    half = length / 2.0
    bound = r + half
    inner = _LESION_ZONE * s - r - _EDGE_PAD
    outer = r_ap + r + _EDGE_PAD
    if zone in ("f2", "split", "overlap"):
        base = c2
    else:
        base = c1
    if zone == "overlap" and rng.uniform() < 0.5:
        base = c1
    excluded = c2 if zone == "f1" else c1
    if half > 0 and zone in ("f1", "f2", "split"):
        rad_cap = math.sqrt(max(inner * inner - half * half, 0.0))
    else:
        rad_cap = max(inner - half, 0.0)
    for _ in range(tries):
        rad = rad_cap * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = (base[0] + rad * math.cos(theta), base[1] + rad * math.sin(theta))
        if half > 0 and zone in ("f1", "f2", "split"):
            radial = math.atan2(p[1] - excluded[1], p[0] - excluded[0])
            ang = radial + math.pi / 2.0 + rng.uniform(-0.25, 0.25)
        else:
            ang = rng.uniform(0.0, math.pi)
        pts = [p]
        if half > 0:
            dx, dy = half * math.cos(ang), half * math.sin(ang)
            pts += [(p[0] + dx, p[1] + dy), (p[0] - dx, p[1] - dy)]
        if zone == "f1" and (any(_dist(q, c1) > inner for q in pts)
                             or any(_dist(q, c2) < outer for q in pts)):
            continue
        if zone in ("f2", "split") and (any(_dist(q, c2) > inner for q in pts)
                                        or any(_dist(q, c1) < outer for q in pts)):
            continue
        if zone == "overlap" and any(_dist(q, c1) > inner or _dist(q, c2) > inner
                                     for q in pts):
            continue
        if _dist(p, scene_geo["od"]) < scene_geo["od_r"] + bound + _EDGE_PAD:
            continue
        if _dist(p, scene_geo["mac"]) < scene_geo["mac_r"] + bound + _EDGE_PAD:
            continue
        if any(_dist(p, (ex, ey)) < eb + bound + 1.0 for ex, ey, eb in existing):
            continue
        return p[0], p[1], ang
    return None


# a right eye at S = 64, cameras jittered off their landmarks
_GEO = {"size": 64, "c1": (0.4, -0.7), "c2": (23.3, 1.9), "od": (23.6, 1.2),
        "od_r": 4.5, "mac": (0.0, 0.0), "mac_r": 3.5}


class TestPlacementMatchesScalarLoop:
    @pytest.mark.parametrize("cached_half", [False, True], ids=["fresh", "cached_half"])
    @pytest.mark.parametrize("kind", ["dot", "streak"])
    @pytest.mark.parametrize("zone", ["f1", "f2", "split", "overlap"])
    def test_result_and_generator_state(self, zone, kind, cached_half):
        r, length = (2.3, 0.0) if kind == "dot" else (1.5, 12.8)
        outcomes = set()
        for seed in range(4):
            for tries in (2000, 3):
                fast, slow = _rng(seed), _rng(seed)
                if cached_half:
                    # a 32-bit draw leaves PCG64 holding the other half
                    fast.integers(0, 5), slow.integers(0, 5)
                    assert fast.bit_generator.state["has_uint32"] == 1
                existing = []
                for _ in range(8 if kind == "dot" else 4):
                    got = _place_lesion(fast, zone, _GEO, r, length, existing, tries)
                    want = _place_lesion_scalar(slow, zone, _GEO, r, length,
                                                existing, tries)
                    assert got == want
                    assert fast.bit_generator.state == slow.bit_generator.state
                    outcomes.add(got is None)
                    if got is not None:
                        existing.append((got[0], got[1], r + length / 2.0))
        assert outcomes == {True, False}, "cases must cover success and exhaustion"

    def test_exhaustion_spans_several_batches(self):
        # a keep-out disc over the whole plane: every one of 300 tries fails
        fast, slow = _rng(4), _rng(4)
        blocked = [(0.0, 0.0, 500.0)]
        assert _place_lesion(fast, "f2", _GEO, 2.3, 0.0, blocked, 300) is None
        assert _place_lesion_scalar(slow, "f2", _GEO, 2.3, 0.0, blocked, 300) is None
        assert fast.bit_generator.state == slow.bit_generator.state


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


def _pixel_box_full(cx, cy, reach, s):
    """Row and column slices of the S x S grid covering every pixel whose
    center lies within `reach` of (cx, cy), in pixels from the top-left."""
    def span(c):
        return slice(min(max(math.floor(c - reach), 0), s),
                     min(max(math.ceil(c + reach), 0), s))
    return span(cy), span(cx)


def _render_field_full_frame(scene: RetinaScene, center: str):
    """The renderer `render_field` replaced, kept verbatim with the pixel
    box it used as the float oracle: it shades every layer but the lesions
    over all S x S pixels."""
    if center not in ("macula", "optic_disc"):
        raise DataError(f"unknown field center {center!r}")
    s = scene.size
    fc = scene.field1_center if center == "macula" else scene.field2_center
    origin = (fc[0] - s / 2.0, fc[1] - s / 2.0)
    px = np.arange(s) + 0.5
    sx = origin[0] + px[None, :]
    sy = origin[1] + px[:, None] * np.ones((1, s))
    sx, sy = np.broadcast_arrays(sx, sy)
    fx = px[None, :] - s / 2.0
    fy = px[:, None] - s / 2.0
    d_center = np.hypot(fx, fy)
    r_ap = APERTURE * s

    falloff = 1.0 - 0.06 * (d_center / r_ap) ** 2
    img = scene.base_color[None, None, :] * falloff[:, :, None]

    def blend(region, alpha, color):
        a = alpha[:, :, None]
        return region * (1.0 - a) + np.asarray(color)[None, None, :] * a

    mac_a = _disc_alpha(sx, sy, *scene.macula_center, scene.macula_radius)
    img = img * (1.0 - 0.45 * mac_a[:, :, None])
    od_a = _disc_alpha(sx, sy, *scene.od_center, scene.od_radius)
    img = blend(img, od_a, _OD_COLOR)
    for lesion in scene.lesions:
        # alpha is exactly 0 beyond radius + 0.5 of the lesion body, where
        # blending is the identity, so only the pixels near it are touched
        box = _pixel_box_full(lesion.x - origin[0], lesion.y - origin[1],
                              _bounding_radius(lesion.radius, lesion.length) + 1.5, s)
        if lesion.kind == "streak":
            alpha = _capsule_alpha(sx[box], sy[box], lesion)
            color = _STREAK_COLOR
        else:
            alpha = _disc_alpha(sx[box], sy[box], lesion.x, lesion.y, lesion.radius)
            color = _DOT_COLOR if lesion.kind == "dot" else _BLOB_COLOR
        img[box] = blend(img[box], alpha, np.clip(color * lesion.shade, 0.0, 1.0))
    field_idx = 1 if center == "macula" else 2
    if scene.artifact is not None and scene.artifact[0] == field_idx:
        quad = _quad_mask(sx, sy, scene.artifact[1])
        img[quad] = _ARTIFACT_SHADE
    rim = np.clip(r_ap + 0.5 - d_center, 0.0, 1.0)
    img *= rim[:, :, None]
    img = np.clip(img, 0.0, 1.0)
    od_rel = RelCoord((scene.od_center[0] - origin[0]) / s,
                      (scene.od_center[1] - origin[1]) / s)
    return img, od_rel


def _edge_scene(s):
    """A right eye whose lesions and artifact sit where the frame clips
    them: two lesions off field 1's frame, one cut by its left edge, one cut
    by its top edge, and a quad over field 1's bottom-right corner."""
    q = 0.5 * s
    return RetinaScene(
        size=s, laterality="OD", od_center=(0.37 * s, 0.02 * s), od_radius=0.07 * s,
        macula_center=(0.0, 0.0), macula_radius=0.055 * s,
        base_color=np.array([0.82, 0.40, 0.13]),
        lesions=[Lesion("dot", 0.8 * s, 0.1 * s, 0.036 * s),
                 Lesion("blob", -0.2 * s, -0.9 * s, 0.064 * s),
                 Lesion("streak", -q + 0.3, 0.1 * s, 0.023 * s, angle=1.2,
                        length=0.2 * s, shade=1.05),
                 Lesion("dot", 0.05 * s, -q - 0.6, 0.036 * s, shade=0.93)],
        grade=4, split_evidence=False,
        field1_center=(0.3, -0.4), field2_center=(0.37 * s - 0.6, 0.02 * s + 0.8),
        artifact=(1, np.array([[q - 3.0, q + 2.0], [q + 4.0, q - 1.0],
                               [q + 1.0, q + 6.0], [q - 2.0, q + 5.0]])))


class TestPixelBox:
    @settings(max_examples=300, deadline=None)
    @given(cx=st.floats(-40.0, 104.0), cy=st.floats(-40.0, 104.0),
           reach=st.floats(0.0, 40.0), s=st.sampled_from([1, 2, 48, 64]))
    @example(cx=-0.9, cy=5.0, reach=1.0, s=64)     # box of the old rule: one stray column
    @example(cx=5.0, cy=5.0, reach=0.2, s=64)      # between two centres on both axes
    @example(cx=5.5, cy=70.0, reach=6.5, s=64)     # a centre exactly at reach; off the bottom
    def test_box_holds_exactly_the_pixels_in_reach(self, cx, cy, reach, s):
        """On and off the frame: every pixel whose centre lies within
        `reach` of (cx, cy) on both axes is in the box and no other is, so
        the box is empty exactly when no pixel qualifies."""
        rows, cols = _pixel_box(cx, cy, reach, s)
        centres = np.arange(s) + 0.5

        def within(c):
            return set(np.flatnonzero((c - reach <= centres) & (centres <= c + reach)))

        assert set(range(s)[rows]) == within(cy)
        assert set(range(s)[cols]) == within(cx)
        qualifying = len(within(cy)) * len(within(cx))
        box = len(range(s)[rows]) * len(range(s)[cols])
        assert (box == 0) == (qualifying == 0)


class TestRenderingMatchesFullFrame:
    @pytest.mark.parametrize("size", [48, 64, 96])
    def test_fields_and_disc_coordinates_equal(self, size):
        """Both float64 fields equal the full-frame renderer's bit for bit:
        generated eyes of every grade, split and not, half of them with an
        artifact, and one scene built to clip lesions and the quad."""
        scenes = [_edge_scene(size)]
        for seed in range(12):
            cfg = GenConfig(size=size, split_rate=0.5 * (seed % 2), artifact_rate=0.5)
            scenes.append(generate_scene(_rng(900 + seed), seed % 5, cfg))
        assert any(sc.artifact is not None for sc in scenes[1:])
        for scene in scenes:
            for center in ("macula", "optic_disc"):
                img, od = render_field(scene, center)
                want_img, want_od = _render_field_full_frame(scene, center)
                assert img.dtype == want_img.dtype == np.float64
                assert np.array_equal(img, want_img)
                assert od == want_od


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


def _tree_digest(d):
    """SHA-256 over the manifest and every image file, names included."""
    h = hashlib.sha256()
    names = ["manifest.jsonl"] + sorted(
        "images/" + f for f in os.listdir(os.path.join(d, "images")))
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(d, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _written_digest(out_dir, seed, n, kw):
    write_dataset(generate_dataset(seed, n, GenConfig(**kw)), out_dir)
    return _tree_digest(out_dir)


def _golden(seed, n, want, **kw):
    label = "".join(f"{k}={v}-" for k, v in kw.items())
    return pytest.param(seed, n, kw, want, id=f"{label}{seed}-{want}")


# Frozen output of the generator: `_written_digest` of each configuration.
# The two default-config sets (96 eyes) include split-evidence grade-3 eyes
# and every placement fallback: exhausted `split` calls and their relaxed
# 6000-try retry, `overlap` -> `f2` fallbacks and an exhausted `f2` call.
# The size-96 set renders a frame size the defaults never do, with an
# artifact in every eye and split evidence in every graded eye.  A speedup
# of generation must leave them all unchanged.  `python
# tests/test_synthdata.py` prints the digests the code makes now.
_GOLDEN = [
    _golden(0, 48, "73bd6f923c784725a0a07bc32800eb436992e99cc859446a5f9ebb32a0b5017a"),
    _golden(1, 48, "e44e936a532e9fd1ebb0a173134eeb12df1d7c08280404ec2e5f158cacf7aadb"),
    _golden(2, 32, "ce1b7deb8d7eb5876424c326ecb72cb63e7d586186f275ef18efc60a68c77073",
            size=96, split_rate=1.0, artifact_rate=1.0),
]


_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4)
_GOOD_RECORD = {"eye_id": 0, "field1_path": "a.ppm", "field2_path": "b.ppm",
                "od1_x": 0.5, "od1_y": 0.5, "od2_x": 0.5, "od2_y": 0.5,
                "grade": 1, "split_evidence": False}
_PATHS = st.sampled_from(["a.ppm", "b.ppm", "small.ppm", "junk.ppm", "none.ppm",
                          "../a.ppm", "/a.ppm", ".", "", "manifest.jsonl"])
_MANIFEST_RECORD = st.fixed_dictionaries({
    "eye_id": st.integers(0, 2), "field1_path": _PATHS, "field2_path": _PATHS,
    "od1_x": st.floats(-0.5, 1.5), "od1_y": st.floats(0, 1), "od2_x": st.floats(0, 1),
    "od2_y": st.floats(0, 1), "grade": st.integers(-1, 5), "split_evidence": st.booleans()})
# a well-formed record with one key dropped or given an odd value
_ODD_MANIFEST_RECORD = st.builds(
    lambda rec, key, value, drop: ({k: v for k, v in rec.items() if k != key} if drop
                                   else dict(rec, **{key: value})),
    _MANIFEST_RECORD, st.sampled_from(sorted(_GOOD_RECORD)),
    st.one_of(st.sampled_from([None, True, 2**63, 2**70, -1, 1.5, float("nan"), "0", [0], {}]),
              _JSON_VALUE),
    st.booleans())


class TestPersistence:
    def test_ppm_round_trip(self, tmp_path):
        img = (np.arange(4 * 5 * 3, dtype=np.uint8)).reshape(4, 5, 3)
        p = str(tmp_path / "t.ppm")
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_ppm_truncation_detected(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        write_ppm(p, np.zeros((4, 4, 3), dtype=np.uint8))
        blob = Path(p).read_bytes()
        Path(p).write_bytes(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            read_ppm(p)

    @pytest.mark.parametrize("header", [b"P6\n# written by hand\n5 4\n255\n",
                                        b"P6\n5\n4\n255\n"],
                             ids=["comment_line", "split_dims"])
    def test_ppm_legal_headers_read(self, tmp_path, header):
        img = (np.arange(4 * 5 * 3, dtype=np.uint8)).reshape(4, 5, 3)
        p = str(tmp_path / "t.ppm")
        Path(p).write_bytes(header + img.tobytes())
        np.testing.assert_array_equal(read_ppm(p), img)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda w, h, maxval, tail: b"P6\n%d %d\n%d\n" % (w, h, maxval) + tail,
                  st.integers(-2, 9), st.integers(-2, 9),
                  st.sampled_from([0, 1, 255, 256, 65535]), st.binary(max_size=300)),
        st.builds(lambda fields, seps, tail: b"P6" + b"".join(
                      sep + field for sep, field in zip(seps, fields)) + tail,
                  st.lists(st.binary(min_size=1, max_size=4), min_size=3, max_size=3),
                  st.lists(st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b"", b"#"]),
                           min_size=3, max_size=3),
                  st.binary(max_size=40))))
    def test_ppm_fuzz_raises_only_data_error(self, tmp_path_factory, blob):
        p = str(tmp_path_factory.mktemp("fuzz") / "f.ppm")
        with open(p, "wb") as fh:
            fh.write(blob)
        try:
            img = read_ppm(p)
        except DataError:
            return
        assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=120),
        st.lists(st.one_of(_MANIFEST_RECORD, _ODD_MANIFEST_RECORD, _JSON_VALUE), max_size=3)
        .map(lambda recs: "".join(json.dumps(r) + "\n" for r in recs).encode())))
    @example(b'{"eye_id": 0}\n\xff\n')
    @example(b'{"eye_id": ' + b"[" * 100_000 + b"\n")
    @example((json.dumps(dict(_GOOD_RECORD, eye_id=2**70)) + "\n").encode())
    def test_load_dataset_fuzz_raises_only_data_error(self, tmp_path_factory, manifest):
        """Whatever the manifest holds, `load_dataset` returns a dataset or
        raises DataError. The directory holds two 8x8 images, one 4x4 image
        and one file that is no PPM."""
        d = tmp_path_factory.mktemp("dsfuzz")
        write_ppm(str(d / "a.ppm"), np.zeros((8, 8, 3), np.uint8))
        write_ppm(str(d / "b.ppm"), np.full((8, 8, 3), 9, np.uint8))
        write_ppm(str(d / "small.ppm"), np.zeros((4, 4, 3), np.uint8))
        (d / "junk.ppm").write_bytes(b"P6\n8 8\n255\n")
        (d / "manifest.jsonl").write_bytes(manifest)
        try:
            ds = load_dataset(str(d))
        except DataError:
            return
        assert ds.images1.shape == ds.images2.shape and len(ds.grades) >= 1

    def test_ppm_non_integer_dim_rejected(self, tmp_path):
        p = str(tmp_path / "t.ppm")
        Path(p).write_bytes(b"P6\n5 four\n255\n" + bytes(60))
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
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        write_dataset(generate_dataset(5, 10), d1)
        write_dataset(generate_dataset(5, 10), d2)
        assert _tree_digest(d1) == _tree_digest(d2)

    @pytest.mark.parametrize("seed, n, kw, want", _GOLDEN)
    def test_output_matches_golden_digest(self, tmp_path, seed, n, kw, want):
        assert _written_digest(str(tmp_path), seed, n, kw) == want

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

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_image_path_outside_data_dir_typed(self, tmp_path, where):
        data = tmp_path / "eyes"
        write_dataset(generate_dataset(1, 2), str(data))
        outside = tmp_path / "stray.ppm"
        outside.write_bytes((data / "images" / "1_f1.ppm").read_bytes())
        mpath = data / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["field1_path"] = "../stray.ppm" if where == "parent" else str(outside)
        lines[1] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="eye 1: field1_path=.* leaves the data directory"):
            load_dataset(str(data))

    def test_image_path_through_parent_back_inside_reads(self, tmp_path):
        data = tmp_path / "eyes"
        write_dataset(generate_dataset(1, 2), str(data))
        mpath = data / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["field1_path"] = "../eyes/" + rec["field1_path"]
        lines[1] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        assert len(load_dataset(str(data))) == 2

    def test_duplicate_eye_id_typed(self, tmp_path):
        write_dataset(generate_dataset(1, 3), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["eye_id"] = 0
        lines[2] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="eye 0: duplicate eye_id"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", ["1_f1.ppm", "1_f2.ppm", "0_f2.ppm"])
    def test_mixed_image_sizes_typed(self, tmp_path, name):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        write_ppm(str(tmp_path / "images" / name), np.zeros((32, 32, 3), np.uint8))
        with pytest.raises(DataError, match=f"eye {name[0]}: field{name[3]}_path is 32x32, "
                                            "expected 64x64"):
            load_dataset(str(tmp_path))

    def test_directory_as_image_path_typed(self, tmp_path):
        write_dataset(generate_dataset(1, 2), str(tmp_path))
        mpath = tmp_path / "manifest.jsonl"
        lines = mpath.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["field2_path"] = "images"
        lines[0] = json.dumps(rec)
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="eye 0: missing image file"):
            load_dataset(str(tmp_path))

    def test_split_helpers(self):
        ds = ArrayDataset.from_samples(generate_dataset(2, 10))
        train, test = ds.train_test_split(0.8)
        assert len(train) == 8 and len(test) == 2
        assert list(train.eye_ids) == list(range(8))
        sub = ds.subset(ds.split_evidence)
        assert all(sub.split_evidence)

    @pytest.mark.parametrize("frac", [0.5, 0.8, 1.0])
    def test_split_parts_are_views(self, frac):
        """Both parts share memory with the set and hold the rows the
        fancy-index copies `ds.subset(order[:k])`, `ds.subset(order[k:])` held."""
        ds = ArrayDataset.from_samples(generate_dataset(2, 10))
        train, test = ds.train_test_split(frac)
        k = int(round(len(ds) * frac))
        order = np.arange(len(ds))
        assert len(train) == k and len(test) == len(ds) - k
        for part, rows in ((train, order[:k]), (test, order[k:])):
            for f in dataclasses.fields(ArrayDataset):
                got, full = getattr(part, f.name), getattr(ds, f.name)
                np.testing.assert_array_equal(got, full[rows])
                assert got.dtype == full.dtype
                assert np.shares_memory(got, full) == (len(rows) > 0)

    def test_budget_small_batch(self, tmp_path):
        t0 = time.time()
        samples = generate_dataset(1, 60)
        write_dataset(samples, str(tmp_path))
        elapsed = time.time() - t0
        assert elapsed < 8.0, f"60 eyes took {elapsed:.1f}s"
        total = sum(os.path.getsize(os.path.join(tmp_path, "images", f))
                    for f in os.listdir(tmp_path / "images"))
        assert total < 60 * 2 * 16000  # well under the size budget per eye


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def golden96(tmp_path_factory):
    """The size-96 golden set, generated and read back from disk."""
    seed, n, kw, _ = _GOLDEN[2].values
    samples = generate_dataset(seed, n, GenConfig(**kw))
    out = str(tmp_path_factory.mktemp("golden96"))
    write_dataset(samples, out)
    return samples, load_dataset(out)


class TestEightBitPixels:
    """Eyes hold their fields as 8-bit pixels; every float32 view of them
    comes from `_unit_floats`, so it has the bits `load_dataset` reads."""

    def test_every_level_converts_alike(self, tmp_path):
        """All 256 levels give the same float32 bits through the helper, the
        sample property, `from_samples` and `load_dataset`: the nearest
        float32 to level / 255, as the generator's float32 fields held."""
        levels = np.repeat(np.arange(256, dtype=np.uint8).reshape(16, 16, 1), 3, axis=2)
        s = TwoFieldSample(levels, levels, RelCoord(0.5, 0.5), RelCoord(0.5, 0.5),
                           grade=0, eye_id=0, split_evidence=False)
        write_dataset([s], str(tmp_path))
        want = _unit_floats([levels])[0]
        assert _same_bits(want[..., 0].ravel(), (np.arange(256) / 255.0).astype(np.float32))
        for got in (s.image1, s.image2, ArrayDataset.from_samples([s]).images1[0],
                    load_dataset(str(tmp_path)).images1[0]):
            assert _same_bits(got, want)

    def test_pixels_are_uint8_and_images_fresh_copies(self, golden96):
        samples, _ = golden96
        for s in samples:
            for px in (s.pixels1, s.pixels2):
                assert px.dtype == np.uint8 and px.shape == (96, 96, 3)
        a, b = samples[0].image1, samples[0].image1
        assert a.dtype == np.float32 and not np.shares_memory(a, b)
        assert not np.shares_memory(a, samples[0].pixels1)

    def test_images_equal_loaded_images(self, golden96):
        samples, ds = golden96
        assert len(ds) == len(samples)
        for i, s in enumerate(samples):
            assert _same_bits(s.image1, ds.images1[i])
            assert _same_bits(s.image2, ds.images2[i])

    def test_from_samples_equals_load_dataset(self, golden96):
        samples, ds = golden96
        got = ArrayDataset.from_samples(samples)
        for f in dataclasses.fields(ArrayDataset):
            assert _same_bits(getattr(got, f.name), getattr(ds, f.name)), f.name

    def test_generated_eyes_hold_about_their_pixel_bytes(self):
        """16 eyes hold at most twice their pixel bytes: no float32 copy of a
        field (4x the pixels) outlives `generate_dataset`."""
        generate_eye(0, 0)           # builds `_frame(64)`, a cache shared by later calls
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = generate_dataset(0, 16)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pixel_bytes = sum(s.pixels1.nbytes + s.pixels2.nbytes for s in samples)
        assert held <= 2 * pixel_bytes, f"{held} bytes held for {pixel_bytes} pixel bytes"


if __name__ == "__main__":
    import tempfile
    for case in _GOLDEN:
        seed, n, kw, _ = case.values
        with tempfile.TemporaryDirectory() as out_dir:
            digest = _written_digest(out_dir, seed, n, kw)
        print(json.dumps({"seed": seed, "eyes": n, "config": kw, "digest": digest}))
