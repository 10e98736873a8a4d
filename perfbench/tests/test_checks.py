"""Each output check fails on a deliberately broken output.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import base64

import numpy as np
import pytest

from checks import (
    bound_violations,
    check_identical,
    check_roundtrip,
    check_service_decode,
    error_bound,
    over_eb,
    psnr_db,
)

FILL = np.float32(9.96921e36)


@pytest.fixture(params=[np.float32, np.float64])
def masked(request):
    rng = np.random.default_rng(0)
    data = (250.0 + 10.0 * rng.standard_normal((6, 7, 8))).astype(request.param)
    mask = rng.random(data.shape) > 0.3
    data[~mask] = FILL
    return data, mask


def edge_recon(data, mask, eb):
    """The reconstruction farthest above the input that the check accepts."""
    inf = data.dtype.type(np.inf)
    up = (data.astype(np.float64) + eb).astype(data.dtype)
    bad = bound_violations(data, up, eb) & mask
    while bad.any():  # step down into the accepted range ...
        up = np.where(bad, np.nextafter(up, -inf), up)
        bad = bound_violations(data, up, eb) & mask
    while True:  # ... then up to its last value
        nxt = np.nextafter(up, inf)
        more = ~bound_violations(data, nxt, eb) & mask
        if not more.any():
            break
        up = np.where(more, nxt, up)
    return np.where(mask, up, data)


def test_bound_at_the_edge_passes_and_one_ulp_beyond_fails(masked):
    data, mask = masked
    eb = error_bound(data, mask, 1e-3)
    recon = edge_recon(data, mask, eb)
    assert check_roundtrip(data, recon, mask, eb) is None
    point = tuple(np.argwhere(mask)[0])
    recon[point] = np.nextafter(recon[point], data.dtype.type(np.inf))
    why = check_roundtrip(data, recon, mask, eb)
    assert why is not None and "1 valid points exceed the bound" in why


def test_plain_bound_one_ulp_beyond_eb_is_counted(masked):
    data, mask = masked
    eb = error_bound(data, mask, 1e-3)
    wide = data.astype(np.float64)
    point = tuple(np.argwhere(mask)[0])
    within = wide.copy()
    within[point] += eb
    while over_eb(wide, within, mask, eb):  # the last value within eb
        within[point] = np.nextafter(within[point], -np.inf)
    beyond = within.copy()
    beyond[point] = np.nextafter(within[point], np.inf)
    assert over_eb(wide, beyond, mask, eb) == 1
    # the dtype-rounding rule of check_roundtrip still accepts it
    assert check_roundtrip(wide, beyond, mask, eb) is None
    # a masked point far off does not count: it is checked against the fill
    off = wide.copy()
    off[tuple(np.argwhere(~mask)[0])] += 10 * eb
    assert over_eb(wide, off, mask, eb) == 0


def test_nan_reconstruction_fails(masked):
    data, mask = masked
    recon = data.copy()
    recon[tuple(np.argwhere(mask)[0])] = np.nan
    assert check_roundtrip(data, recon, mask, 1.0) is not None


def test_masked_point_not_restored_fails(masked):
    data, mask = masked
    recon = data.copy()
    recon[tuple(np.argwhere(~mask)[0])] = 0.0
    why = check_roundtrip(data, recon, mask, 1.0)
    assert why is not None and "masked points" in why


def test_changed_dtype_fails(masked):
    data, mask = masked
    other = np.float64 if data.dtype == np.float32 else np.float32
    why = check_roundtrip(data, data.astype(other), mask, 1.0)
    assert why is not None and "dtype" in why


def test_changed_shape_fails(masked):
    data, mask = masked
    why = check_roundtrip(data, data.reshape(6, 56), mask, 1.0)
    assert why is not None and "shape" in why


def service_doc(arr, salvaged=False):
    return {"salvaged": salvaged, "array": {
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": arr.dtype.str, "shape": list(arr.shape)}}


def test_service_decode_accepts_a_plain_200(masked):
    data, mask = masked
    assert check_service_decode(200, service_doc(data), data, mask, 0.1) is None


def test_service_206_salvaged_response_fails(masked):
    data, mask = masked
    assert check_service_decode(206, service_doc(data, True), data, mask, 0.1) is not None
    # a salvaged body behind a 200 fails as well
    assert check_service_decode(200, service_doc(data, True), data, mask, 0.1) is not None


def test_service_decode_out_of_bound_fails(masked):
    data, mask = masked
    recon = data.copy()
    recon[tuple(np.argwhere(mask)[0])] += np.float32(1.0)
    assert check_service_decode(200, service_doc(recon), data, mask, 0.1) is not None


def test_one_differing_byte_between_pool_and_serial_fails():
    serial = bytes(range(256)) * 4
    pool = bytearray(serial)
    pool[517] ^= 0x01
    assert check_identical(serial, serial, "x") is None
    why = check_identical(bytes(pool), serial, "pool vs serial")
    assert why is not None and "byte 517" in why


def test_psnr_matches_definition():
    data = np.linspace(0.0, 10.0, 1000)
    recon = data + 0.01
    assert psnr_db(data, recon, None) == pytest.approx(20 * np.log10(10.0) - 10 * np.log10(1e-4))
