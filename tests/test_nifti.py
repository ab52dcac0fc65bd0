"""NIfTI-1 parser/writer contracts, including an independent byte-level oracle."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szdl.cli import main
from szdl.errors import DataError
from szdl.nifti import Volume, parse_nifti, write_nifti


def build_nifti_bytes(values, extents, *, order="<", datatype=16, bitpix=32,
                      scl_slope=1.0, scl_inter=0.0, pixdim=(1.0, 1.0, 1.0),
                      magic=b"n+1\x00", ndim=3, vox_offset=352.0):
    """Hand-rolled NIfTI-1 byte builder, independent of the production writer."""
    hdr = bytearray(348)
    struct.pack_into(order + "i", hdr, 0, 348)
    dims = [ndim, *extents] + [1] * (7 - len(extents))
    struct.pack_into(order + "8h", hdr, 40, *dims)
    struct.pack_into(order + "2h", hdr, 70, datatype, bitpix)
    struct.pack_into(order + "8f", hdr, 76, 1.0, *pixdim, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into(order + "3f", hdr, 108, vox_offset, scl_slope, scl_inter)
    hdr[344:348] = magic
    np_dtype = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}.get(datatype)
    if np_dtype is None:  # unsupported-code fixtures: emit opaque bytes
        payload = bytes(len(values) * bitpix // 8)
    else:
        payload = np.asarray(values, dtype=order + np_dtype).tobytes()
    return bytes(hdr) + b"\x00" * 4 + payload


def header_fields(blob):
    """The header fields a little-endian file declares, read with struct, not the parser."""
    return {"sizeof_hdr": struct.unpack_from("<i", blob, 0)[0],
            "dim": struct.unpack_from("<8h", blob, 40),
            "datatype_bitpix": struct.unpack_from("<2h", blob, 70),
            "pixdim": struct.unpack_from("<8f", blob, 76),
            "vox_offset_scl": struct.unpack_from("<3f", blob, 108),
            "magic": blob[344:348]}


class TestParse:
    def test_hand_built_file_field_by_field(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2))
        header, vol = header_fields(blob), parse_nifti(blob)
        assert header["sizeof_hdr"] == 348
        assert header["dim"][:4] == (3, 2, 2, 2)
        assert header["datatype_bitpix"] == (16, 32)
        assert header["vox_offset_scl"][0] == 352.0
        assert header["magic"] == b"n+1\x00"
        assert vol.extents == (2, 2, 2)
        np.testing.assert_array_equal(vol.data.reshape(-1), np.arange(8, dtype=np.float32))

    def test_detached_header_magic_rejected(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2), magic=b"ni1\x00")
        with pytest.raises(DataError, match="unsupported magic"):
            parse_nifti(blob)

    def test_scl_slope_applied(self):
        blob = build_nifti_bytes([3.0] * 8, (2, 2, 2), scl_slope=2.0, scl_inter=1.0)
        vol = parse_nifti(blob)
        assert vol.data[0, 0, 0] == pytest.approx(7.0)

    def test_big_endian_parses_identically(self):
        values = np.arange(24.0)
        le = parse_nifti(build_nifti_bytes(values, (2, 3, 4), order="<"))
        be = parse_nifti(build_nifti_bytes(values, (2, 3, 4), order=">"))
        np.testing.assert_array_equal(le.data, be.data)
        assert le.voxel_size == be.voxel_size

    @pytest.mark.parametrize("code,np_dtype", [(2, "u1"), (4, "i2"), (8, "i4"), (64, "f8")])
    def test_integer_and_double_datatypes(self, code, np_dtype):
        bitpix = {2: 8, 4: 16, 8: 32, 64: 64}[code]
        blob = build_nifti_bytes(np.arange(8), (2, 2, 2), datatype=code, bitpix=bitpix)
        vol = parse_nifti(blob)
        assert vol.data.dtype == np.float32
        np.testing.assert_array_equal(vol.data.reshape(-1), np.arange(8, dtype=np.float32))

    def test_unsupported_datatype(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2), datatype=128, bitpix=24)
        with pytest.raises(DataError, match="datatype code 128 not supported"):
            parse_nifti(blob)

    def test_truncated_payload(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2))
        with pytest.raises(DataError, match="payload needs"):
            parse_nifti(blob[:-4])

    def test_too_short_file(self):
        with pytest.raises(DataError, match="file has 100 bytes"):
            parse_nifti(b"x" * 100)

    def test_dim0_below_3_rejected(self):
        blob = build_nifti_bytes(np.arange(4.0), (2, 2), ndim=2)
        with pytest.raises(DataError, match=r"dim\[0\]=2"):
            parse_nifti(blob)

    def test_trailing_singleton_squeezed(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2, 1), ndim=4)
        vol = parse_nifti(blob)
        assert vol.extents == (2, 2, 2)

    def test_4d_with_real_time_axis_rejected(self):
        blob = build_nifti_bytes(np.arange(16.0), (2, 2, 2, 2), ndim=4)
        with pytest.raises(DataError, match="only 3-d volumes"):
            parse_nifti(blob)

    def test_strict_rejects_nan(self):
        blob = build_nifti_bytes([np.nan] * 8, (2, 2, 2))
        with pytest.raises(DataError):
            parse_nifti(blob)

    @pytest.mark.parametrize("vox_offset", [100.0, -4.0, float("nan")])
    def test_vox_offset_inside_header_rejected(self, vox_offset):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2), vox_offset=vox_offset)
        with pytest.raises(DataError, match="vox_offset"):
            parse_nifti(blob)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pixdim_rejected(self, bad):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2), pixdim=(bad, 1.0, 1.0))
        with pytest.raises(DataError, match="is not three positive finite lengths"):
            parse_nifti(blob)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sform_rejected(self, bad):
        blob = bytearray(build_nifti_bytes(np.arange(8.0), (2, 2, 2)))
        struct.pack_into("<h", blob, 254, 1)  # sform_code: scanner
        struct.pack_into("<12f", blob, 280, 1, 0, 0, bad, 0, 1, 0, 0, 0, 0, 1, 0)
        with pytest.raises(DataError, match="world_transform must be a finite 4x4"):
            parse_nifti(bytes(blob))

    def test_non_finite_pixdim_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.nii"
        path.write_bytes(build_nifti_bytes(np.arange(8.0), (2, 2, 2),
                                           pixdim=(float("nan"), 1.0, 1.0)))
        assert main(["augment-preview", "--volume", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "voxel_size" in capsys.readouterr().err

    def test_zero_vox_offset_means_352(self):
        blob = build_nifti_bytes(np.arange(8.0), (2, 2, 2), vox_offset=0.0)
        vol = parse_nifti(blob)
        np.testing.assert_array_equal(vol.data.reshape(-1), np.arange(8, dtype=np.float32))


class TestWrite:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        vol = Volume(rng.random((3, 4, 5), dtype=np.float32), voxel_size=(1.0, 2.0, 0.5))
        blob = write_nifti(vol)
        back = parse_nifti(blob)
        assert back.extents == vol.extents
        np.testing.assert_array_equal(back.data, vol.data)
        assert back.voxel_size == pytest.approx(vol.voxel_size)
        assert header_fields(blob)["vox_offset_scl"][1:] == (1.0, 0.0)  # slope, intercept

    def test_unit_pixdim(self):
        vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        assert header_fields(write_nifti(vol))["pixdim"][1:4] == (1.0, 1.0, 1.0)

    def test_payload_offset_and_length(self):
        vol = Volume(np.zeros((2, 3, 4), dtype=np.float32))
        blob = write_nifti(vol)
        assert len(blob) == 352 + 24 * 4
        assert header_fields(blob)["vox_offset_scl"][0] == 352.0

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
           st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, extents, seed):
        rng = np.random.default_rng(seed)
        vol = Volume((rng.random(extents) * 10 - 5).astype(np.float32),
                     voxel_size=tuple(rng.uniform(0.1, 4.0, 3)))
        back = parse_nifti(write_nifti(vol))
        np.testing.assert_array_equal(back.data, vol.data)
        np.testing.assert_allclose(back.voxel_size, vol.voxel_size, rtol=1e-6)
