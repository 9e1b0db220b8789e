"""Float64 numerics pinned by SHA-256 digest.

One training step's logits, loss and every parameter gradient, at the CLI
default config on a fixed batch of four generated eyes, for all 8 strategies
with the mask on and off, and for `crossfit` under each of the 4 PE modes.
For the two decision-level strategies the logits also include the fused
probabilities (`fuse_decisions`), the only output that tells them apart.
A change to the model or the tape that alters a single bit shows here.

The digests are computed in a subprocess with `OPENBLAS_NUM_THREADS=1`,
because OpenBLAS changes its summation order with the thread count. They
also depend on the numpy version, its BLAS build and the CPU's SIMD
targets, recorded in PINNED_PLATFORM: on any other platform the tests skip
and say what differs. Each kind of output also pins its L2 norm and its
projection on a fixed random vector. On a mismatch the test reports the
relative L2 change these two numbers imply (a lower bound on the true one):
a few 1e-16 is a reordered sum, anything larger is a changed result.

Run as a script to print the current platform and values
(`python tests/test_numerics.py`).
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import crossfit.autodiff as ad
from crossfit.cli import _DEFAULTS, _build_configs
from crossfit.model import PE_MODES, STRATEGIES, CrossFiTModel, fuse_decisions
from crossfit.synthdata import ArrayDataset, generate_dataset

KINDS = ("logits", "loss", "gradients")

# what the digests depend on besides the code; see `_platform`
PINNED_PLATFORM = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
}

# row -> one (SHA-256 digest, L2 norm, projection) triple per kind
PINNED = {
    "crossfit/aligned/mask-on": (
        ("023eee7e7f7663a9d1230973b4892bdae4898a75a8402e8f5c4a399a7cd0987d",
         5.04214278022709, -0.635798542006777),
        ("c3ccf88d1bdcf3ed34ab056a21dff50013b54fa73b8c16fc5ced05516ea27c8e",
         1.8692493185298893, 1.8692493185298893),
        ("358528db6522b418edab348b3d30c9b62273f5f0b17333ab1436bb897e558c22",
         13.815551062072862, 0.04612511806244333)),
    "crossfit/aligned/mask-off": (
        ("c4a13e17820349b366d6967f1ca3ec86a1efa36e016d7f36215623459796b019",
         5.047108193864945, -0.6494298682187167),
        ("50230fd5eb127aac629fbb92fbf7f7d0de13883bab76e05b518eb09ebe77cc1a",
         1.8486458225973177, 1.8486458225973177),
        ("e068e157a06350f62bf61e9774b4fb671f35b0289a6e6b317b26322c3f9e746d",
         13.527218030996158, 0.047368134346053234)),
    "crossfit/regular/mask-on": (
        ("09326c70654fe6464f1444dbada67fbc39105e1640f66ff06183d828f30f8190",
         4.898459956720487, -0.6344797670119058),
        ("d79398d6273a53c0ea7cf3b411ded8757cc025443e850654c241b4d4ebca50ef",
         1.8723894843908964, 1.8723894843908964),
        ("013eb654dc7c3550124c514c14be45a152d36de89a6325f93382e3d41c623f09",
         13.91595928072189, 0.04577274656073024)),
    "crossfit/regular/mask-off": (
        ("486d7c869325dd688a17a28e7d6876fe55c5903603ff563397efcd9f4a8d3289",
         4.893842775930312, -0.645065108209456),
        ("df6ed95e8dec22669d4833f403cb585c6300128d3ccd0dbb72586ed053161ce5",
         1.8547491130056797, 1.8547491130056797),
        ("6eb963159055b0a8253efd2944caf1ce5bf1597658ef7d8bf9ce8d897152ef23",
         13.636056883591372, 0.0472619059285877)),
    "crossfit/learnable/mask-on": (
        ("f3e6e595fdc2e4f3de69e55798a13b4106fac0323626ae5d34458eece5fc70bd",
         2.3262745566770677, -0.20213066338025734),
        ("b589366e8d14706fbd7ca806074058e7ce3429f0c56db7d66198446bb02b471a",
         1.7399170385756202, 1.7399170385756202),
        ("882a8196a2b16d9e87178c321bb530692fdcf209dc6787a1ae31704693693074",
         12.483504867574705, -0.013757233881302311)),
    "crossfit/learnable/mask-off": (
        ("617cf94f40dd9872f3dd923b78da29f124126bf07cd6c9893b5267280a4a951c",
         2.290580294217358, -0.21468478380930128),
        ("3434cb2f7fb90407203d6619fde77b86224e66cd7d1a8fb505d712cceaebafcd",
         1.7394101155572608, 1.7394101155572608),
        ("b3621e9bca77d773b31974263ee72b30bde170e4c248a70d9eea3f23e327a251",
         12.679860395492408, -0.01336921359880219)),
    "crossfit/none/mask-on": (
        ("a7eed212b2417d2c1d606340e1263399f4ec648a14823dec5b9c869d0c4e11df",
         1.9639980908407675, -0.5218988288390756),
        ("1a4a5204e9640dd0db3aaf2ee3c292a9d758aa5325381ef52b752922ebde4e70",
         1.6806482647517338, 1.6806482647517338),
        ("302fd7ab8e3c601719e9172f065f355cc13d9a25b177ac0adc51ab21f2eb9d9a",
         14.76154289032744, -0.015018926105276689)),
    "crossfit/none/mask-off": (
        ("d5db87ea1878687e943464cbd2cc693bf31e15d5021737309486d1efcd04d227",
         1.9460868344066393, -0.5129428217225454),
        ("04ea0ca1e38628b58313a4c972b2d2962a55f52ba858db43a37ac87eb54f6d6c",
         1.6889267018272862, 1.6889267018272862),
        ("88e3be5f218e1146a15ac46e90b43c94852d7cd27424c547de6b8d776914c9e9",
         15.008285443684589, -0.011034236143713093)),
    "feat_max/-/mask-on": (
        ("1cf1eabb3c66482a4f5a2246bea5cce612f14de4d8fdc8c90e187e52ed7c751e",
         0.6638267145075035, 0.06867314098561358),
        ("0c2353536ccb852cc00b0ff2fe0497074c58cb07f2b0f928de92f0f2e66e9fdc",
         1.6726377634806697, 1.6726377634806697),
        ("081ab703293ad411d5fa5a8135d5db621a4edffbd9ecf81f972c973f50b558d3",
         2.1529113077566726, -0.006844291622804898)),
    "feat_max/-/mask-off": (
        ("db470418db9393fc79b1887634ee92d3315c4a091c741cc780002902428db351",
         0.650814686503524, 0.0753013489969591),
        ("50c10dfb361bcd86987eab4244aab20529a0160e0c0c5a214a6d92788bd3d0e4",
         1.6687113866131076, 1.6687113866131076),
        ("23e141d0812d68e70b362ff58ba16dcb4c9e63867c50dd1182501db41654c365",
         2.1030825249672764, -0.006710911084656127)),
    "feat_avg/-/mask-on": (
        ("3b0e388e9f4404fe660f7e5bee9edce8e84e0b6e7b4cceb42e0846aac7e3cdfa",
         0.647398343932768, 0.07163897023006291),
        ("7b3d867015d8d7b2344361afaf66c748fbaccb24aa3d1196afec1904669ce3e0",
         1.669044665814708, 1.669044665814708),
        ("ee7cd7a7c631e2d871f43781c45fbc0583c877aab93b175a3149e9ee78764340",
         2.0978296052745375, -0.006260448607210501)),
    "feat_avg/-/mask-off": (
        ("022563dc1fd799a916afe3f801a1783c7017701c789a60448d8673f4ee5106dd",
         0.6356479980974248, 0.0780818139136306),
        ("2dda516bfad4925a9d6620426de46d8eb402298e4558d07e25172b3866e33d3e",
         1.6653572169745245, 1.6653572169745245),
        ("7137d7524bf1e3053b47f743a67c89a56265c237d87147c0cb52da7ebdf41c1f",
         2.0523454659596263, -0.006170499274471494)),
    "feat_concat/-/mask-on": (
        ("53b4946ac366078f45f4a2fa0a87a892731bb5515664a177af373c8dcad8f9d9",
         0.6165710159117294, 0.09753828349557175),
        ("2a9f8bbe2f26533df9a8c745aba5e4304b3b6f0a430bd4779e38824404dd4927",
         1.6414882644897106, 1.6414882644897106),
        ("a26715a6bfe4154b5c99d6d06b43658e99891fb5e72a683b536b2b9e42fee5c8",
         2.532354383547131, -0.012639995390129593)),
    "feat_concat/-/mask-off": (
        ("54a73e3bdfefb184b512665f1691d2d49661957628b0eb2dff0a29596ff55bf5",
         0.621337535183724, 0.10783419660977914),
        ("cfe62ee6a8d2f4633bad42c24d1c73d80be283cd68c0a9de727bca1fc6d3cf7b",
         1.6397229412956924, 1.6397229412956924),
        ("10a3c5bef46b758d3df3c12d32595dfb85692e576d34b3602148af689f5b23c1",
         2.4860330656012577, -0.01245542543369062)),
    "pred_avg/-/mask-on": (
        ("e1394cafaf572406a85a1ea2cc34625f453c36254eb037fe09108bf04cdb5cc3",
         1.2878967818920786, 0.012672098454510913),
        ("af3d043bd805cbc79f9edfefa980b75924bc02eace087289781322ac028a7e91",
         3.3381778691725006, 3.3381778691725006),
        ("666503b1a17e42baa114284b9b29d4bbd121ed9a8fd11f469dade9879db3becd",
         4.195747487970774, -0.01250733566235456)),
    "pred_avg/-/mask-off": (
        ("04ad13065c39d9f39a7a2c306fc1da3c108b19aa78f287febe615d42954ad1fe",
         1.2755542799993407, 0.012101476808462016),
        ("7080b6399f78521bee2acd61c3b542125adffaf7ae3ff4279fb43fba2959d5f1",
         3.3307922231262506, 3.3307922231262506),
        ("b6a9943dad6376114571e16f76140c7eff6016544d2479c66af9210049b44990",
         4.104766673901025, -0.012329090481691505)),
    "pred_max/-/mask-on": (
        ("7eb4ff25879d89ec260506eb906242ae6405c84685f9434621288757d40574de",
         1.2882818032759227, 0.012494195576838221),
        ("af3d043bd805cbc79f9edfefa980b75924bc02eace087289781322ac028a7e91",
         3.3381778691725006, 3.3381778691725006),
        ("666503b1a17e42baa114284b9b29d4bbd121ed9a8fd11f469dade9879db3becd",
         4.195747487970774, -0.01250733566235456)),
    "pred_max/-/mask-off": (
        ("ff812349eb70316d0c6a6b31439757d362024cb15e6dc104f8e3f2821ec7830b",
         1.2759057606167574, 0.011933637498413011),
        ("7080b6399f78521bee2acd61c3b542125adffaf7ae3ff4279fb43fba2959d5f1",
         3.3307922231262506, 3.3307922231262506),
        ("b6a9943dad6376114571e16f76140c7eff6016544d2479c66af9210049b44990",
         4.104766673901025, -0.012329090481691505)),
    "single_field_1/-/mask-on": (
        ("afee6bf3d144986cbb538d429b183947e9e319e36b911447aad2250a7fd52318",
         0.6653565856839782, 0.06869538314568191),
        ("0ae46a84c79b07bddc3beeeba7e0f5545d2457a50701ffa7bf302ab70b517d9f",
         1.6723899726855556, 1.6723899726855556),
        ("c91868aeaa359d1258aed582d935ee4bc6ca0f80df9e08ba38ca7b26393422a3",
         2.1280569922387262, -0.005776725518170487)),
    "single_field_1/-/mask-off": (
        ("c9bb8b458f8610f577c05c476238cd50eecff6068b695037b50f63370e49f2e6",
         0.6523449428849368, 0.07532220102202306),
        ("94bd466d5ec9868757c901f560d78d75da6f406db2633e7350cbbf2dde0bad80",
         1.668474194436796, 1.668474194436796),
        ("c3ff0e7554a25590b49ca4000fa87d44b4eb8fd3203d99729d0dd9ef399d0eb7",
         2.080458250908505, -0.005719670263847294)),
    "single_field_2/-/mask-on": (
        ("6484a3f30580d52d30fd621b4d9837930ecb0ed4afb27cdb3accb4425f26ce89",
         0.6318497255881795, 0.0745825573144444),
        ("fb94eeb651b32de3aed293f7bbe24198096b9fd65691ad5b5e6e74363ff53bfc",
         1.665787896486945, 1.665787896486945),
        ("f5ddd9822f7ae2753e494ee16cabb3474349ef7cd6a4207135ddb6915c5fdfda",
         2.0886164122287822, -0.006730610144184074)),
    "single_field_2/-/mask-off": (
        ("ad8ce8e18b91bd346efe7957f2ea86932944924fd6e81099d12d8726419593db",
         0.6211126496658196, 0.080841426805238),
        ("24f4726075a01e256df574e7f7edc27b4aefcb80f515594c25d7693a171518ff",
         1.6623180286894543, 1.6623180286894543),
        ("b73ab38d40e502d302023406cf8d1934ed8693b8459b077a0dfe7b704bacc4c4",
         2.043026374277774, -0.0066094202178442075)),
}


def _platform() -> dict:
    """numpy's version, its BLAS build and the SIMD targets this CPU offers
    (OpenBLAS picks its kernels at run time from the same CPU features)."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": sorted(cfg.get("SIMD Extensions", {}).get("found", []))}


def _rows() -> list[str]:
    rows = []
    for strategy in STRATEGIES:
        for pe_mode in (PE_MODES if strategy == "crossfit" else ("-",)):
            for mask in ("on", "off"):
                rows.append(f"{strategy}/{pe_mode}/mask-{mask}")
    return rows


def _step(row: str) -> dict[str, list[np.ndarray]]:
    """kind -> arrays: the logits, the loss and every gradient of one step.

    Every parameter gets fixed normal noise on top of its initial value, so
    the zero-initialised output projections pass gradients on too."""
    strategy, pe_mode, mask = row.split("/")
    cfg = dict(_DEFAULTS, **{"model.strategy": strategy, "model.mask": mask == "mask-on"})
    if pe_mode != "-":
        cfg["model.pe_mode"] = pe_mode
    model_cfg, _, _ = _build_configs(cfg)
    model = CrossFiTModel(ad.make_rng(0), model_cfg)
    noise = ad.make_rng(1)
    for _, p in model.parameters():
        p.data = p.data + noise.normal(0.0, 0.02, p.shape)
    d = ArrayDataset.from_samples(generate_dataset(5, 4))
    batch = (d.images1, d.images2, d.od1, d.od2)
    with ad.no_grad():
        logits, _ = model.forward_batch(*batch)
    loss = model.loss_batch(*batch, d.grades)
    ad.backward(loss)
    if isinstance(logits, tuple):
        logits = [t.data for t in logits]
        logits.append(fuse_decisions(*logits, strategy))
    else:
        logits = [logits.data]
    return {"logits": logits, "loss": [loss.data],
            "gradients": [p.grad for _, p in model.parameters()]}


def _fingerprint(arrays) -> tuple[str, float, float]:
    """(SHA-256 of shapes and bytes, L2 norm, projection on a fixed unit vector)
    of the arrays taken as one vector."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    v = np.concatenate([a.ravel() for a in arrays]).astype(np.float64)
    r = ad.make_rng(7).uniform(-1.0, 1.0, v.size)
    r /= np.sqrt((r * r).sum())
    return h.hexdigest(), float(np.sqrt((v * v).sum())), float((v * r).sum())


def _relative_change(got, want) -> float:
    """|v - v0| / |v0| is at least |norm - norm0| and at least
    |projection - projection0| (r is a unit vector), each over |v0|."""
    (_, norm, proj), (_, norm0, proj0) = got, want
    return max(abs(norm - norm0), abs(proj - proj0)) / norm0


@pytest.fixture(scope="module")
def one_thread_fingerprints():
    if _platform() != PINNED_PLATFORM:
        pytest.skip(f"digests pinned on {PINNED_PLATFORM}, this platform is {_platform()}; "
                    "regenerate them with `python tests/test_numerics.py`")
    src = os.path.dirname(os.path.dirname(ad.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    return json.loads(out.stdout)["rows"]


@pytest.mark.parametrize("row", _rows())
def test_float64_step_matches_pinned_digest(one_thread_fingerprints, row):
    got, want = one_thread_fingerprints[row], PINNED[row]
    moved = [f"{kind} (relative L2 change >= {_relative_change(g, w):.1e})"
             for kind, g, w in zip(KINDS, got, want) if g[0] != w[0]]
    assert not moved, f"{row}: " + ", ".join(moved)


if __name__ == "__main__":
    print(json.dumps({"platform": _platform(),
                      "rows": {row: [_fingerprint(a) for a in _step(row).values()]
                               for row in _rows()}}, indent=1))
