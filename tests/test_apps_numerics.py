"""Bit-for-bit pins of the six Rodinia ports' outputs (repro.apps).

The simulated times come from fitted per-cell constants, not from the
numpy numerics, so a faster kernel may change how the numerics run but
never what they compute.  ``test_apps.py`` only checks that each
unified variant matches its explicit baseline within a relative
tolerance, which a drift shared by both variants would pass; this file
pins every variant's checksum, total and compute time (as
``float.hex()``) and peak memory exactly, at a tiny size and at the
quick size the ``apps`` experiment and the host-time benchmark use.

The second half checks the blocked kernels against the straightforward
whole-array versions they replaced, kept here as references, byte for
byte over chained steps and awkward shapes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import make_runtime
from repro.apps import ALL_APPS, common, nn
from repro.apps.dwt2d import _haar_level, dwt_forward
from repro.apps.heartwall import TEMPLATE, _preprocess_frame, _track
from repro.apps.hotspot import AMB_TEMP, CAP, RX, RY, RZ, _stencil_step
from repro.apps.srad import LAMBDA, _srad_iteration
from repro.exp.experiments import APP_QUICK_PARAMS

TINY = {
    "backprop": {"input_units": 1 << 10},
    "dwt2d": {"dim": 64, "levels": 3},
    "heartwall": {"frame_dim": 64, "frames": 3, "points": 8},
    "hotspot": {"grid": 24, "iterations": 3},
    "nn": {"records": 1 << 12, "k": 4},
    "srad_v1": {"dim": 24, "iterations": 3},
}

SIZES = {"tiny": TINY, "quick": APP_QUICK_PARAMS}

#: (size, app, variant) -> (checksum, total_time_s, compute_time_s as
#: float.hex(), peak_memory_bytes).
PINNED = {
    ("tiny", "backprop", "explicit"): (
        "0x1.01d4380000000p+12", "0x1.dab852b08a0b8p-13",
        "0x1.b3a766a5a4699p-14", 151552,
    ),
    ("tiny", "backprop", "unified"): (
        "0x1.01d4380000000p+12", "0x1.421156f7e224ap-13",
        "0x1.8fcec9e501700p-16", 77824,
    ),
    ("tiny", "dwt2d", "explicit"): (
        "0x1.b585100000000p+16", "0x1.0906049742a39p-13",
        "0x1.21fd980654d79p-15", 61440,
    ),
    ("tiny", "dwt2d", "unified"): (
        "0x1.b585100000000p+16", "0x1.82c44b31b12e2p-14",
        "0x1.92f66143d3935p-18", 61440,
    ),
    ("tiny", "heartwall", "explicit"): (
        "0x1.fc00000000000p+8", "0x1.ef2939495432ep-15",
        "0x1.b83c522c5575ep-16", 32768,
    ),
    ("tiny", "heartwall", "unified-v1"): (
        "0x1.fc00000000000p+8", "0x1.c8a62bd450923p-16",
        "0x1.3f35cc9319dd8p-16", 16384,
    ),
    ("tiny", "heartwall", "unified-v2"): (
        "0x1.fc00000000000p+8", "0x1.d09e6b4b09b70p-15",
        "0x1.c8411ec6a62a6p-16", 32768,
    ),
    ("tiny", "hotspot", "explicit"): (
        "0x1.44d5820000000p+8", "0x1.a2c69eeff9be9p-14",
        "0x1.47b43132e3d47p-14", 20480,
    ),
    ("tiny", "hotspot", "unified"): (
        "0x1.44d5820000000p+8", "0x1.e3fee0cd27a8dp-15",
        "0x1.0ca0f46b1a29ep-16", 12288,
    ),
    ("tiny", "nn", "explicit"): (
        "0x1.63b9020000000p+3", "0x1.bb83ffc742599p-14",
        "0x1.128c931d5dd68p-16", 98304,
    ),
    ("tiny", "nn", "unified"): (
        "0x1.63b9020000000p+3", "0x1.21d68c035a9dap-14",
        "0x1.464eeeb37a526p-16", 49152,
    ),
    ("tiny", "nn", "unified-hipalloc"): (
        "0x1.63b9020000000p+3", "0x1.1526a05845ab7p-14",
        "0x1.176e39fc1b8aep-19", 49152,
    ),
    ("tiny", "srad_v1", "explicit"): (
        "0x1.c313d00000000p+0", "0x1.bb275c950dd2bp-14",
        "0x1.0d50628a1dcfdp-14", 20480,
    ),
    ("tiny", "srad_v1", "unified"): (
        "0x1.c313d00000000p+0", "0x1.6d4f1ae76713ap-15",
        "0x1.9700787b04e67p-17", 8192,
    ),
    ("quick", "backprop", "explicit"): (
        "0x1.ffb8520000000p+18", "0x1.be4bc559a0445p-7",
        "0x1.0317014e3b8dep-9", 17838080,
    ),
    ("quick", "backprop", "unified"): (
        "0x1.ffb8520000000p+18", "0x1.605f706edb6e8p-7",
        "0x1.4d86046144b08p-10", 8921088,
    ),
    ("quick", "dwt2d", "explicit"): (
        "0x1.b841400000000p+26", "0x1.2062ad35a13a6p-5",
        "0x1.bafb6b053dfe2p-11", 62914560,
    ),
    ("quick", "dwt2d", "unified"): (
        "0x1.b841400000000p+26", "0x1.e86075669191bp-6",
        "0x1.a801065c37b0cp-14", 62914560,
    ),
    ("quick", "heartwall", "explicit"): (
        "0x1.0a3a000000000p+15", "0x1.a8ad53d3764a4p-10",
        "0x1.770396d93435ep-11", 2097152,
    ),
    ("quick", "heartwall", "unified-v1"): (
        "0x1.0a3a000000000p+15", "0x1.72bba77686f01p-10",
        "0x1.d296906aa076ep-11", 1048576,
    ),
    ("quick", "heartwall", "unified-v2"): (
        "0x1.0a3a000000000p+15", "0x1.5a2b97e62727ap-10",
        "0x1.71b80a12e7771p-11", 2097152,
    ),
    ("quick", "hotspot", "explicit"): (
        "0x1.447dfe0000000p+8", "0x1.5f7e006417a44p-9",
        "0x1.5ee79b7831dd7p-12", 5242880,
    ),
    ("quick", "hotspot", "unified"): (
        "0x1.447dfe0000000p+8", "0x1.fd3e7cd300313p-10",
        "0x1.3f958b24de420p-13", 3145728,
    ),
    ("quick", "nn", "explicit"): (
        "0x1.6da2ac0000000p+0", "0x1.3dd305aa24f2dp-7",
        "0x1.185e2a045dfbcp-13", 25165824,
    ),
    ("quick", "nn", "unified"): (
        "0x1.6da2ac0000000p+0", "0x1.0e441df28f041p-7",
        "0x1.6c57c89ea34f9p-12", 12582912,
    ),
    ("quick", "nn", "unified-hipalloc"): (
        "0x1.6da2ac0000000p+0", "0x1.08eee16293f4bp-7",
        "0x1.8165ed59021c3p-16", 12582912,
    ),
    ("quick", "srad_v1", "explicit"): (
        "0x1.c1efe20000000p+0", "0x1.0ffc691624fb2p-9",
        "0x1.1a40b58abab93p-11", 3153920,
    ),
    ("quick", "srad_v1", "unified"): (
        "0x1.c1efe20000000p+0", "0x1.a7a023f8adcc8p-10",
        "0x1.b149d34c8787fp-12", 2097152,
    ),
}


def test_every_variant_is_pinned():
    expected = {
        (size, app, variant)
        for size in SIZES
        for app, cls in ALL_APPS.items()
        for variant in cls.variants
    }
    assert set(PINNED) == expected


@pytest.mark.parametrize("size,app,variant", sorted(PINNED))
def test_output_is_bit_identical(size, app, variant):
    result = ALL_APPS[app]().run(variant, params=dict(SIZES[size][app]))
    checksum, total, compute, peak = PINNED[size, app, variant]
    assert result.checksum.hex() == checksum
    assert result.total_time_s.hex() == total
    assert result.compute_time_s.hex() == compute
    assert result.peak_memory_bytes == peak


@pytest.mark.parametrize("allocator", ["malloc", "hipMalloc"])
def test_nn_vector_holds_the_seeded_records(allocator):
    """``_nearest`` reads the seeded records, not the variant's vector,
    so the vector the record loader builds must hold exactly them."""
    records = (nn.CHUNK_ELEMENTS // 2) + 3  # two read chunks, one partial
    vector = nn.NearestNeighbor()._build_records(
        make_runtime(memory_gib=1), records, allocator)
    assert_same_bytes(vector.data, nn._records(records))


# ----------------------------------------------------------------------
# Reference kernels: whole-array numpy, one temporary per operation
# ----------------------------------------------------------------------


def ref_stencil_step(temp, power):
    north = np.vstack([temp[:1], temp[:-1]])
    south = np.vstack([temp[1:], temp[-1:]])
    west = np.hstack([temp[:, :1], temp[:, :-1]])
    east = np.hstack([temp[:, 1:], temp[:, -1:]])
    delta = (CAP) * (
        power
        + (south + north - 2.0 * temp) / RY
        + (east + west - 2.0 * temp) / RX
        + (AMB_TEMP - temp) / RZ
    )
    return temp + delta * 0.001


def ref_srad_iteration(image):
    north = np.vstack([image[:1], image[:-1]])
    south = np.vstack([image[1:], image[-1:]])
    west = np.hstack([image[:, :1], image[:, :-1]])
    east = np.hstack([image[:, 1:], image[:, -1:]])

    mean = image.mean()
    var = image.var()
    q0_sq = var / (mean * mean + 1e-12)

    grad = north + south + east + west - 4.0 * image
    num = (north - image) ** 2 + (south - image) ** 2
    num += (east - image) ** 2 + (west - image) ** 2
    denom = image * image + 1e-12
    q_sq = (0.5 * num / denom - (0.0625 * (grad / image) ** 2)) / (
        (1.0 + 0.25 * grad / image) ** 2 + 1e-12
    )
    coeff = 1.0 / (1.0 + (q_sq - q0_sq) / (q0_sq * (1.0 + q0_sq) + 1e-12))
    coeff = np.clip(coeff, 0.0, 1.0)
    return image + (LAMBDA / 4.0) * coeff * grad


def ref_haar_level(image):
    rows = image.reshape(image.shape[0], -1, 2)
    low = (rows[:, :, 0] + rows[:, :, 1]) / 2.0
    high = (rows[:, :, 0] - rows[:, :, 1]) / 2.0
    horiz = np.hstack([low, high])
    cols = horiz.reshape(-1, 2, horiz.shape[1])
    low2 = (cols[:, 0, :] + cols[:, 1, :]) / 2.0
    high2 = (cols[:, 0, :] - cols[:, 1, :]) / 2.0
    return np.vstack([low2, high2])


def ref_dwt_forward(image, levels):
    out = image.astype(np.float32).copy()
    h, w = out.shape
    for _ in range(levels):
        out[:h, :w] = ref_haar_level(out[:h, :w])
        h, w = h // 2, w // 2
        if h < 2 or w < 2:
            break
    return out


def ref_preprocess_frame(rng, shape):
    frame = rng.random(shape, dtype=np.float32)
    frame = (frame + np.roll(frame, 1, axis=0) + np.roll(frame, 1, axis=1)) / 3.0
    return frame


def ref_track(frame, points):
    h, w = frame.shape
    out = points.copy()
    for i, (y, x) in enumerate(points):
        y0, y1 = max(0, int(y) - TEMPLATE), min(h, int(y) + TEMPLATE + 1)
        x0, x1 = max(0, int(x) - TEMPLATE), min(w, int(x) + TEMPLATE + 1)
        patch = frame[y0:y1, x0:x1]
        dy, dx = np.unravel_index(int(patch.argmax()), patch.shape)
        out[i, 0] = np.clip(y0 + dy, TEMPLATE, h - TEMPLATE - 1)
        out[i, 1] = np.clip(x0 + dx, TEMPLATE, w - TEMPLATE - 1)
    return out


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------

#: 1xN, Nx1 and 1x1 grids are among the drawn shapes.
dims = st.integers(1, 40)
#: Tiny strips make most grids span many strips, with a ragged last
#: one; the module's own size keeps these grids in one strip.
strip_bytes = st.sampled_from([1, 8, 24, 100, common.STRIP_BYTES])


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(h=dims, w=dims, strip=strip_bytes, steps=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stencil_step_matches_reference(h, w, strip, steps, seed):
    rng = np.random.default_rng(seed)
    temp = 320.0 + 10.0 * rng.random((h, w), dtype=np.float32)
    power = rng.random((h, w), dtype=np.float32)
    got, want = temp, temp
    with mock.patch.object(common, "STRIP_BYTES", strip):
        for _ in range(steps):
            got = _stencil_step(got, power)
            want = ref_stencil_step(want, power)
            assert_same_bytes(got, want)


@settings(max_examples=80, deadline=None)
@given(h=dims, w=dims, strip=strip_bytes, steps=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_srad_iteration_matches_reference(h, w, strip, steps, seed):
    rng = np.random.default_rng(seed)
    image = np.exp(rng.random((h, w), dtype=np.float32)).astype(np.float64)
    got, want = image, image
    with mock.patch.object(common, "STRIP_BYTES", strip):
        for _ in range(steps):
            got = _srad_iteration(got)
            want = ref_srad_iteration(want)
            assert_same_bytes(got, want)


@pytest.mark.parametrize("kernel,reference,dtype", [
    (_stencil_step, ref_stencil_step, np.float32),
    (_srad_iteration, ref_srad_iteration, np.float64),
])
def test_kernels_match_reference_across_real_strips(kernel, reference, dtype):
    # Taller than two strips of the module's size, not a multiple of it.
    width = 64
    rows = common.STRIP_BYTES // (width * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(5)
    grid = np.exp(rng.random((2 * rows + 7, width))).astype(dtype)
    power = rng.random(grid.shape).astype(dtype)
    extra = (power,) if kernel is _stencil_step else ()
    assert len(list(common.stencil_strips(grid, 0))) == 3
    got, want = grid, grid
    for _ in range(3):
        got, want = kernel(got, *extra), reference(want, *extra)
        assert_same_bytes(got, want)


def _dwt_levels_valid(h, w, levels):
    """Whether the reference transform accepts (h, w) for *levels*."""
    for _ in range(levels):
        if h % 2 or w % 2:
            return False
        h, w = h // 2, w // 2
        if h < 2 or w < 2:
            return True
    return True


@settings(max_examples=80, deadline=None)
@given(scale=st.integers(1, 5), mh=st.integers(1, 5), mw=st.integers(1, 5),
       levels=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_dwt_forward_matches_reference(scale, mh, mw, levels, seed):
    h, w = mh << scale, mw << scale
    if not _dwt_levels_valid(h, w, levels):
        levels = scale  # every level the shape halves evenly through
    image = np.random.default_rng(seed).integers(0, 256, size=(h, w))
    image = image.astype(np.float32)
    assert_same_bytes(dwt_forward(image, levels), ref_dwt_forward(image, levels))


def test_dwt_levels_past_exhaustion_stop_at_the_last_quadrant():
    image = np.random.default_rng(3).random((4, 16), dtype=np.float32)
    # 4x16 -> 2x8 -> 1x4: the third and later levels never run.
    assert_same_bytes(dwt_forward(image, 9), ref_dwt_forward(image, 2))


def test_haar_level_writes_only_its_quadrant():
    image = np.random.default_rng(4).random((8, 12), dtype=np.float32)
    out = image.copy()
    _haar_level(out[:4, :6], np.empty((4, 6), np.float32))
    want = image.copy()
    want[:4, :6] = ref_haar_level(image[:4, :6])
    assert_same_bytes(out, want)


def test_int32_pixel_draw_is_the_default_draw():
    # dwt2d draws its bitmap as int32 straight into a float32 image;
    # the values and the generator state after the draw must match the
    # default int64 draw cast to float32.
    for shape in ((1, 1), (3, 5), (64, 64), (257, 129)):
        a, b = np.random.default_rng(23), np.random.default_rng(23)
        image = np.empty(shape, np.float32)
        image[:] = a.integers(0, 256, size=shape, dtype=np.int32)
        want = b.integers(0, 256, size=shape).astype(np.float32)
        assert_same_bytes(image, want)
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(h=dims, w=dims, frames=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_preprocess_frame_matches_reference(h, w, frames, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(frames):
        assert_same_bytes(_preprocess_frame(a, (h, w)),
                          ref_preprocess_frame(b, (h, w)))
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(data=st.data(), h=st.integers(1, 48), w=st.integers(1, 48),
       frames=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_track_matches_reference(data, h, w, frames, seed):
    coord = st.tuples(
        st.sampled_from([0, h - 1]) | st.integers(0, h - 1),
        st.sampled_from([0, w - 1]) | st.integers(0, w - 1),
    )
    points = np.array(
        data.draw(st.lists(coord, max_size=12)), dtype=np.int64
    ).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    got, want = points, points
    for _ in range(frames):
        frame = rng.random((h, w), dtype=np.float32)
        got, want = _track(frame, got), ref_track(frame, want)
        assert_same_bytes(got, want)
