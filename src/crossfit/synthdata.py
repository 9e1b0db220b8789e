"""Deterministic synthetic two-field fundus scenes with planted lesions.

One RetinaScene lives on a shared retina plane: the macula sits at the
origin, the optic disc a canonical distance away (sign set by laterality),
and lesions are placed with full knowledge of both camera apertures so that
visibility is crisp — every lesion is either wholly inside a field's view or
wholly outside it. The grade is a pure function of the lesion multiset.

Split-evidence eyes put every lesion in territory only field 2 can see, so
no function of field 1 alone can recover the grade; the rest spread their
lesions across field-1-only, overlap, and field-2-only zones, which makes
cross-field aggregation (not per-field maxing) the thing that resolves
grade boundaries.

Field images are rendered at S x S, quantized to 8 bits, and written as
binary PPM plus a JSON-Lines manifest. Everything is a pure function of
(seed, eye_id, config).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .geometry import RelCoord

__all__ = [
    "GenConfig", "Lesion", "RetinaScene", "TwoFieldSample", "ArrayDataset",
    "DataError", "grade_rule", "generate_scene", "render_field",
    "generate_eye", "generate_dataset", "write_dataset", "load_dataset",
    "write_ppm", "read_ppm", "grade_histogram",
]

APERTURE = 0.48          # fundus circle radius as a fraction of the field side
_EDGE_PAD = 1.5          # px of clearance when deciding in/out of a field
_DISC_DIST = 0.37        # canonical optic-disc-to-macula distance (fraction of S)
# Lesions stay inside this radius of whichever camera covers them.  The rim
# band between here and the aperture edge holds only vignetted background, so
# the darkest image regions are always lesion-free.  Clinically the extreme
# periphery of a field is ungradable anyway.
_LESION_ZONE = 0.375

_BASE_COLOR = np.array([0.82, 0.40, 0.13])
_OD_COLOR = np.array([1.00, 0.95, 0.78])
_DOT_COLOR = np.array([0.10, 0.01, 0.01])
_BLOB_COLOR = np.array([1.00, 0.93, 0.25])
_STREAK_COLOR = np.array([0.22, 0.00, 0.20])
_ARTIFACT_SHADE = 0.04


class DataError(ValueError):
    """Dataset files or manifest records that violate the format contract."""


@dataclass(frozen=True)
class GenConfig:
    size: int = 64
    num_classes: int = 5
    split_rate: float = 0.3
    artifact_rate: float = 0.25

    def __post_init__(self):
        for name in ("split_rate", "artifact_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:  # also refuses NaN
                raise DataError(f"{name} {rate} outside [0, 1]")


@dataclass(frozen=True)
class Lesion:
    kind: str                # dot | blob | streak
    x: float
    y: float
    radius: float            # disc radius, or half-width for streaks
    angle: float = 0.0
    length: float = 0.0
    shade: float = 1.0


@dataclass
class RetinaScene:
    size: int
    laterality: str          # OS | OD
    od_center: tuple[float, float]
    od_radius: float
    macula_center: tuple[float, float]
    macula_radius: float
    base_color: np.ndarray
    lesions: list[Lesion]
    grade: int
    split_evidence: bool
    field1_center: tuple[float, float]
    field2_center: tuple[float, float]
    artifact: tuple[int, np.ndarray] | None = None  # (field index, convex quad)


@dataclass
class TwoFieldSample:
    image1: np.ndarray       # (S, S, 3) float32 in [0,1], 8-bit quantized
    image2: np.ndarray
    od1: RelCoord
    od2: RelCoord
    grade: int
    eye_id: int
    split_evidence: bool


def grade_rule(lesions) -> int:
    """Severity from lesion counts; precedence runs from the worst down."""
    dots = sum(1 for l in lesions if l.kind == "dot")
    blobs = sum(1 for l in lesions if l.kind == "blob")
    streaks = sum(1 for l in lesions if l.kind == "streak")
    if streaks >= 1:
        return 4
    if dots > 10 or blobs >= 3:
        return 3
    if 4 <= dots <= 10 or 1 <= blobs <= 2:
        return 2
    if 1 <= dots <= 3:
        return 1
    return 0


# ---------------------------------------------------------------------------
# scene construction


def _eye_rng(seed: int, eye_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, eye_id])))


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _sample_counts(rng, grade: int, split: bool = False) -> list[tuple[str, int]]:
    """Lesion count menu per grade, kept clear of the rule boundaries.

    Split scenes cram every lesion into the crescent of field 2 that field 1
    cannot see, so their high-count menus are trimmed to what that crescent
    holds without forcing overlaps.
    """
    if grade == 0:
        return []
    if grade == 1:
        return [("dot", int(rng.integers(1, 4)))]
    if grade == 2:
        if rng.uniform() < 0.5:
            return [("dot", int(rng.integers(5, 9)))]
        return [("blob", int(rng.integers(1, 3))), ("dot", int(rng.integers(0, 3)))]
    if grade == 3:
        if split:
            return [("dot", int(rng.integers(12, 14)))]
        if rng.uniform() < 0.5:
            return [("dot", int(rng.integers(13, 17)))]
        return [("blob", int(rng.integers(3, 5))), ("dot", int(rng.integers(0, 3)))]
    return [("streak", int(rng.integers(1, 3))), ("dot", int(rng.integers(0, 4)))]


def _lesion_radius(rng, kind: str, s: int) -> tuple[float, float]:
    """(radius, length); length only meaningful for streaks.

    Radius jitter is kept narrow enough that total lesion area orders the
    same way counts do: the biggest legal set of n lesions stays smaller
    than the smallest legal set at the next count boundary.
    """
    if kind == "dot":
        return float(s * rng.uniform(0.034, 0.038)), 0.0
    if kind == "blob":
        return float(s * rng.uniform(0.060, 0.068)), 0.0
    return float(s * rng.uniform(0.020, 0.026)), float(s * rng.uniform(0.16, 0.24))


def _zone_weights(rng, kind: str, grade: int, placed_overlap: int) -> str:
    """Pick the visibility zone for the next lesion.

    Overlap-zone lesions are seen by both cameras and would double-count
    under naive per-field tallies, so grades near a count boundary keep
    them rare or forbidden.
    """
    if kind == "blob":
        choices, w = ("f1", "f2"), (0.45, 0.55)
    elif kind == "streak":
        choices, w = ("f1", "overlap", "f2"), (0.4, 0.2, 0.4)
    elif grade == 1 or (grade == 2 and placed_overlap >= 2):
        choices, w = ("f1", "f2"), (0.45, 0.55)
    else:
        choices, w = ("f1", "overlap", "f2"), (0.35, 0.25, 0.4)
    return str(rng.choice(choices, p=np.asarray(w) / sum(w)))


def _bounding_radius(lesion_r: float, length: float) -> float:
    return lesion_r + length / 2.0


# (sqrt, cos, sin, atan2, hypot) for one try at a time, and for a batch
_SCALAR_OPS = (math.sqrt, math.cos, math.sin, math.atan2, math.hypot)
_ARRAY_OPS = (np.sqrt, np.cos, np.sin, np.arctan2, np.hypot)
# numpy's arctan2/hypot/cos may differ from math's in the last bit, so the
# batched pass rejects only tries that miss a rule by more than this many px
_BATCH_TOL = 1e-6
_FIRST_BATCH = 64


def _place_lesion(rng, zone: str, scene_geo: dict, r: float, length: float,
                  existing: list[tuple[float, float, float]],
                  tries: int = 2000) -> tuple[float, float, float] | None:
    """Rejection-sample (x, y, angle) honoring the zone and keep-out discs.

    Streaks are tested at both endpoints rather than by bounding disc, and
    in exclusive zones they run tangentially to the excluded camera so the
    narrow crescent beyond its aperture stays feasible.

    Each try consumes three doubles (radius, bearing, angle).  Tries are
    drawn in growing batches and screened with numpy; the survivors are
    confirmed in order with scalar math, and the generator is rewound to
    just after the accepted try.  Result and generator state therefore
    match a loop that draws one try at a time with ``rng.uniform``.
    """
    s = scene_geo["size"]
    r_ap = APERTURE * s
    c1, c2 = scene_geo["c1"], scene_geo["c2"]
    od, od_r = scene_geo["od"], scene_geo["od_r"]
    mac, mac_r = scene_geo["mac"], scene_geo["mac_r"]
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
    tangential = half > 0 and zone in ("f1", "f2", "split")
    # Tangential streaks put their endpoints at hypot(rad, half) from the
    # camera, not rad + half, so exclusive zones may propose centers from a
    # wider disc; the endpoint checks below still reject any overshoot.
    if tangential:
        rad_cap = math.sqrt(max(inner * inner - half * half, 0.0))
    else:
        rad_cap = max(inner - half, 0.0)

    def attempt(u0, u1, u2, ops, tol):
        """Candidate from one try's doubles, and whether it breaks a rule
        by more than `tol`; works on floats and on arrays alike.  Each
        `lo + (hi - lo) * u` is what `rng.uniform(lo, hi)` makes of `u`."""
        sqrt, cos, sin, atan2, hypot = ops
        rad = rad_cap * sqrt(u0)
        theta = 2.0 * math.pi * u1
        x, y = base[0] + rad * cos(theta), base[1] + rad * sin(theta)
        if tangential:
            radial = atan2(y - excluded[1], x - excluded[0])
            ang = radial + math.pi / 2.0 + (-0.25 + 0.5 * u2)
        else:
            ang = math.pi * u2
        pts = [(x, y)]
        if half > 0:
            dx, dy = half * cos(ang), half * sin(ang)
            pts += [(x + dx, y + dy), (x - dx, y - dy)]
        bad = False
        for qx, qy in pts:
            d1 = hypot(qx - c1[0], qy - c1[1])
            d2 = hypot(qx - c2[0], qy - c2[1])
            if zone == "f1":
                bad = bad | (d1 > inner + tol) | (d2 < outer - tol)
            elif zone in ("f2", "split"):
                bad = bad | (d2 > inner + tol) | (d1 < outer - tol)
            else:
                bad = bad | (d1 > inner + tol) | (d2 > inner + tol)
        bad = bad | (hypot(x - od[0], y - od[1]) < od_r + bound + _EDGE_PAD - tol)
        bad = bad | (hypot(x - mac[0], y - mac[1]) < mac_r + bound + _EDGE_PAD - tol)
        for ex, ey, eb in existing:
            bad = bad | (hypot(x - ex, y - ey) < eb + bound + 1.0 - tol)
        return x, y, ang, bad

    start = rng.bit_generator.state
    done, batch = 0, _FIRST_BATCH
    while done < tries:
        u = rng.random((min(batch, tries - done), 3))
        *_, bad = attempt(u[:, 0], u[:, 1], u[:, 2], _ARRAY_OPS, _BATCH_TOL)
        for j in np.flatnonzero(~bad):
            x, y, ang, miss = attempt(*u[j].tolist(), _SCALAR_OPS, 0.0)
            if not miss:
                # Redraw rather than bit_generator.advance: advance drops
                # PCG64's cached 32-bit half, which later integers() use.
                rng.bit_generator.state = start
                rng.random(3 * (done + int(j) + 1))
                return x, y, ang
        done += len(u)
        batch *= 2
    return None


def _make_artifact(rng, scene: RetinaScene, cfg: GenConfig):
    """Dark occluding quad in at most one field, clear of the disc and of
    every lesion that field can see."""
    if rng.uniform() >= cfg.artifact_rate:
        return None
    s = cfg.size
    field = int(rng.integers(1, 3))
    center = scene.field1_center if field == 1 else scene.field2_center
    r_ap = APERTURE * s
    for _ in range(60):
        d = s * rng.uniform(0.12, 0.34)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        q = (center[0] + d * math.cos(ang), center[1] + d * math.sin(ang))
        radii = s * rng.uniform(0.06, 0.13, size=4)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=4))
        poly = np.stack([q[0] + radii * np.cos(angles),
                         q[1] + radii * np.sin(angles)], axis=1)
        bound = float(radii.max())
        if _dist(q, scene.od_center) < bound + scene.od_radius + 2.0:
            continue
        visible = [l for l in scene.lesions
                   if _dist((l.x, l.y), center) < r_ap + _bounding_radius(l.radius, l.length)]
        if any(_dist(q, (l.x, l.y)) < bound + _bounding_radius(l.radius, l.length) + 2.0
               for l in visible):
            continue
        return field, poly
    return None


def generate_scene(rng: np.random.Generator, target_grade: int,
                   cfg: GenConfig = GenConfig()) -> RetinaScene:
    if not (0 <= target_grade < cfg.num_classes):
        raise DataError(f"target grade {target_grade} outside [0,{cfg.num_classes})")
    s = cfg.size
    laterality = "OD" if rng.uniform() < 0.5 else "OS"
    sign = 1.0 if laterality == "OD" else -1.0
    dist = _DISC_DIST * s * (1.0 + rng.uniform(-0.05, 0.05))
    tilt = rng.uniform(-0.12, 0.12)
    mac = (0.0, 0.0)
    od = (sign * dist * math.cos(tilt), dist * math.sin(tilt))
    od_r = 0.07 * s * (1.0 + rng.uniform(-0.03, 0.03))
    mac_r = 0.055 * s * (1.0 + rng.uniform(-0.03, 0.03))
    # camera centers: landmark plus at most one pixel of jitter per axis
    c1 = (mac[0] + rng.uniform(-1.0, 1.0), mac[1] + rng.uniform(-1.0, 1.0))
    c2 = (od[0] + rng.uniform(-1.0, 1.0), od[1] + rng.uniform(-1.0, 1.0))
    split = bool(target_grade > 0 and rng.uniform() < cfg.split_rate)
    base = _BASE_COLOR + rng.uniform(-0.005, 0.005, size=3)

    geo = {"size": s, "c1": c1, "c2": c2, "od": od, "od_r": od_r,
           "mac": mac, "mac_r": mac_r}
    lesions: list[Lesion] = []
    existing: list[tuple[float, float, float]] = []
    placed_overlap = 0
    for kind, count in _sample_counts(rng, target_grade, split):
        for _ in range(count):
            r, length = _lesion_radius(rng, kind, s)
            zone = "split" if split else _zone_weights(rng, kind, target_grade,
                                                       placed_overlap)
            placed = _place_lesion(rng, zone, geo, r, length, existing)
            if placed is None and zone == "overlap":
                zone = "f2"
                placed = _place_lesion(rng, zone, geo, r, length, existing)
            if placed is None:
                # relax lesion separation but never the visibility zone
                placed = _place_lesion(rng, zone, geo, r, length, [], tries=6000)
            if placed is None:
                raise DataError(f"could not place a {kind} in zone {zone}")
            if zone == "overlap":
                placed_overlap += 1
            x, y, ang = placed
            lesions.append(Lesion(kind, x, y, r, angle=ang, length=length,
                                  shade=float(rng.uniform(0.9, 1.1))))
            existing.append((x, y, _bounding_radius(r, length)))
    grade = grade_rule(lesions)
    if grade != target_grade:
        raise DataError(f"count menu produced grade {grade}, wanted {target_grade}")
    scene = RetinaScene(s, laterality, od, od_r, mac, mac_r, base, lesions,
                        grade, split, c1, c2)
    scene.artifact = _make_artifact(rng, scene, cfg)
    return scene


# ---------------------------------------------------------------------------
# rendering


def _disc_alpha(sx, sy, cx, cy, r):
    d = np.hypot(sx - cx, sy - cy)
    return np.clip(r + 0.5 - d, 0.0, 1.0)


def _capsule_alpha(sx, sy, lesion: Lesion):
    hx = math.cos(lesion.angle) * lesion.length / 2.0
    hy = math.sin(lesion.angle) * lesion.length / 2.0
    ax, ay = lesion.x - hx, lesion.y - hy
    bx, by = lesion.x + hx, lesion.y + hy
    vx, vy = bx - ax, by - ay
    vv = vx * vx + vy * vy
    t = np.clip(((sx - ax) * vx + (sy - ay) * vy) / vv, 0.0, 1.0)
    d = np.hypot(sx - (ax + t * vx), sy - (ay + t * vy))
    return np.clip(lesion.radius + 0.5 - d, 0.0, 1.0)


def _quad_mask(sx, sy, poly: np.ndarray):
    """Inside test for a convex polygon with angle-ordered vertices."""
    inside = np.ones_like(sx, dtype=bool)
    n = len(poly)
    # vertex order is counterclockwise in (x, y); use a consistent sign
    area = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    want = area >= 0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = (x1 - x0) * (sy - y0) - (y1 - y0) * (sx - x0)
        inside &= (cross >= 0) if want else (cross <= 0)
    return inside


def _pixel_box(cx: float, cy: float, reach: float, s: int):
    """Row and column slices of the S x S grid covering every pixel whose
    center lies within `reach` of (cx, cy), in pixels from the top-left."""
    def span(c):
        return slice(min(max(math.floor(c - reach), 0), s),
                     min(max(math.ceil(c + reach), 0), s))
    return span(cy), span(cx)


def render_field(scene: RetinaScene, center: str):
    """Rasterize one camera view; returns (image, optic-disc RelCoord)."""
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
        box = _pixel_box(lesion.x - origin[0], lesion.y - origin[1],
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


def _quantize(img: np.ndarray) -> np.ndarray:
    return (np.round(img * 255.0) / 255.0).astype(np.float32)


def generate_eye(seed: int, eye_id: int, cfg: GenConfig = GenConfig()) -> TwoFieldSample:
    rng = _eye_rng(seed, eye_id)
    target = int(rng.integers(0, cfg.num_classes))
    scene = generate_scene(rng, target, cfg)
    img1, od1 = render_field(scene, "macula")
    img2, od2 = render_field(scene, "optic_disc")
    return TwoFieldSample(_quantize(img1), _quantize(img2), od1, od2,
                          scene.grade, eye_id, scene.split_evidence)


def generate_dataset(seed: int, n: int, cfg: GenConfig = GenConfig()) -> list[TwoFieldSample]:
    if n < 1:
        raise DataError(f"dataset size must be >= 1, got {n}")
    return [generate_eye(seed, eye_id, cfg) for eye_id in range(n)]


def grade_histogram(samples, num_classes: int = 5) -> dict:
    counts = [0] * num_classes
    split = 0
    for s in samples:
        counts[s.grade] += 1
        split += bool(s.split_evidence)
    return {"per_grade": counts, "split_evidence": split, "total": len(samples)}


# ---------------------------------------------------------------------------
# persistence


def write_ppm(path: str, img_u8: np.ndarray) -> None:
    h, w, c = img_u8.shape
    if c != 3 or img_u8.dtype != np.uint8:
        raise DataError(f"PPM wants (h,w,3) uint8, got {img_u8.shape} {img_u8.dtype}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img_u8.tobytes())


# magic, width, height, maxval: tokens separated by whitespace and '#'
# comments (to the end of the line); one whitespace byte ends the header
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(rb"P6" + (_SEP + rb"([^\s#]+)") * 3 + rb"\s")


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    m = _PPM_HEADER.match(blob)
    if m is None:
        raise DataError(f"{path}: not a binary PPM")
    try:
        w, h, maxval = (int(v) for v in m.groups())
    except ValueError:
        raise DataError(f"{path}: non-integer PPM header field") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PPM extent {w}x{h}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    raw = blob[m.end():m.end() + w * h * 3]
    if len(raw) != w * h * 3:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def write_dataset(samples, out_dir: str) -> None:
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    records = []
    for s in samples:
        f1 = f"images/{s.eye_id}_f1.ppm"
        f2 = f"images/{s.eye_id}_f2.ppm"
        write_ppm(os.path.join(out_dir, f1),
                  np.round(s.image1 * 255.0).astype(np.uint8))
        write_ppm(os.path.join(out_dir, f2),
                  np.round(s.image2 * 255.0).astype(np.uint8))
        records.append({"eye_id": int(s.eye_id), "field1_path": f1, "field2_path": f2,
                        "od1_x": float(s.od1.x), "od1_y": float(s.od1.y),
                        "od2_x": float(s.od2.x), "od2_y": float(s.od2.y),
                        "grade": int(s.grade),
                        "split_evidence": bool(s.split_evidence)})
    with open(os.path.join(out_dir, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@dataclass
class ArrayDataset:
    images1: np.ndarray      # (n, S, S, 3) float32 in [0,1]
    images2: np.ndarray
    od1: np.ndarray          # (n, 2)
    od2: np.ndarray
    grades: np.ndarray       # (n,) int64
    split_evidence: np.ndarray  # (n,) bool
    eye_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.grades)

    def subset(self, idx) -> "ArrayDataset":
        """Rows `idx` of every array: copies for an index array or a boolean
        mask, views for a slice."""
        if not isinstance(idx, slice):
            idx = np.asarray(idx)
        return ArrayDataset(self.images1[idx], self.images2[idx],
                            self.od1[idx], self.od2[idx], self.grades[idx],
                            self.split_evidence[idx], self.eye_ids[idx])

    def train_test_split(self, train_frac: float = 0.8):
        """The first round(n * train_frac) eyes, then the rest, as views of
        this set's arrays: neither part copies the images."""
        k = int(round(len(self) * train_frac))
        return self.subset(slice(None, k)), self.subset(slice(k, None))

    @classmethod
    def from_samples(cls, samples) -> "ArrayDataset":
        return cls(
            images1=np.stack([s.image1 for s in samples]),
            images2=np.stack([s.image2 for s in samples]),
            od1=np.array([[s.od1.x, s.od1.y] for s in samples]),
            od2=np.array([[s.od2.x, s.od2.y] for s in samples]),
            grades=np.array([s.grade for s in samples], dtype=np.int64),
            split_evidence=np.array([s.split_evidence for s in samples], dtype=bool),
            eye_ids=np.array([s.eye_id for s in samples], dtype=np.int64))


_MANIFEST_KEYS = ("eye_id", "field1_path", "field2_path", "od1_x", "od1_y",
                  "od2_x", "od2_y", "grade", "split_evidence")


def load_dataset(data_dir: str, num_classes: int = 5) -> ArrayDataset:
    manifest = os.path.join(data_dir, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise DataError(f"no manifest at {manifest}")
    root = os.path.abspath(data_dir)
    samples = []
    seen_ids: set[int] = set()
    try:
        with open(manifest, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise DataError(f"{manifest}: not UTF-8 text ({err})") from None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as err:  # the latter: nested too deep
            raise DataError(f"manifest line {line_no}: bad JSON ({err})") from None
        if not isinstance(rec, dict):
            raise DataError(f"manifest line {line_no}: not a JSON object")
        missing = [k for k in _MANIFEST_KEYS if k not in rec]
        eye = rec.get("eye_id", f"<line {line_no}>")
        if missing:
            raise DataError(f"eye {eye}: manifest record missing {missing}")
        for k in ("eye_id", "grade"):
            if isinstance(rec[k], bool) or not isinstance(rec[k], int):
                raise DataError(f"eye {eye}: {k}={rec[k]!r} is not an integer")
        if not -2**63 <= eye < 2**63:
            raise DataError(f"eye {eye}: eye_id does not fit in 64 bits")
        if eye in seen_ids:
            raise DataError(f"eye {eye}: duplicate eye_id (line {line_no})")
        seen_ids.add(eye)
        for k in ("od1_x", "od1_y", "od2_x", "od2_y"):
            if isinstance(rec[k], bool) or not isinstance(rec[k], (int, float)):
                raise DataError(f"eye {eye}: {k}={rec[k]!r} is not a number")
            if not (0.0 <= rec[k] <= 1.0):
                raise DataError(f"eye {eye}: {k}={rec[k]} outside [0,1]")
        if not (0 <= rec["grade"] < num_classes):
            raise DataError(f"eye {eye}: grade {rec['grade']} outside [0,{num_classes})")
        paths = []
        for k in ("field1_path", "field2_path"):
            if not isinstance(rec[k], str):
                raise DataError(f"eye {eye}: {k}={rec[k]!r} is not a path")
            p = os.path.normpath(os.path.join(root, rec[k]))
            if os.path.isabs(rec[k]) or os.path.commonpath([root, p]) != root:
                raise DataError(f"eye {eye}: {k}={rec[k]!r} leaves the data directory")
            if not os.path.isfile(p):
                raise DataError(f"eye {eye}: missing image file {rec[k]}")
            paths.append(p)
        img1 = read_ppm(paths[0]).astype(np.float32) / 255.0
        img2 = read_ppm(paths[1]).astype(np.float32) / 255.0
        want = samples[0].image1.shape if samples else img1.shape
        for k, img in (("field1_path", img1), ("field2_path", img2)):
            if img.shape != want:
                raise DataError(f"eye {eye}: {k} is {img.shape[1]}x{img.shape[0]}, "
                                f"expected {want[1]}x{want[0]} like the other images")
        samples.append(TwoFieldSample(
            img1, img2, RelCoord(rec["od1_x"], rec["od1_y"]),
            RelCoord(rec["od2_x"], rec["od2_y"]), int(rec["grade"]),
            int(rec["eye_id"]), bool(rec["split_evidence"])))
    if not samples:
        raise DataError(f"{manifest}: no records")
    return ArrayDataset.from_samples(samples)
