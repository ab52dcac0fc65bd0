"""Minimal NIfTI-1 reader/writer for uncompressed single-file volumes.

Only the "n+1\\0" single-file form is supported; detached headers ("ni1\\0")
and compressed containers are rejected so the parser stays small and
bit-exactly testable.  Readers auto-detect endianness from ``sizeof_hdr``;
writers always emit little-endian float32 with ``vox_offset`` 352.

The voxel payload maps directly onto the row-major ``Volume.data`` buffer
of shape ``(nx, ny, nz)``: the first header dim is our slowest axis.  A
write -> parse round trip is bit-exact on the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

# NIfTI-1 datatype code -> numpy dtype character
_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}
_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64}


@dataclass
class Volume:
    """A 3D scalar field: voxel grid, spacing in mm, optional world affine."""

    data: np.ndarray
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    world_transform: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise DataError(f"volume data must be 3-d, got {self.data.ndim}-d")
        self.voxel_size = tuple(float(v) for v in self.voxel_size)
        if len(self.voxel_size) != 3 or not all(0 < v < np.inf for v in self.voxel_size):
            raise DataError(f"voxel_size {self.voxel_size} is not three positive finite lengths")
        if self.world_transform is not None:
            self.world_transform = np.asarray(self.world_transform, dtype=np.float64)
            if self.world_transform.shape != (4, 4) or not np.isfinite(self.world_transform).all():
                raise DataError("world_transform must be a finite 4x4 matrix")

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.data.shape

    def validate(self) -> None:
        if self.data.size == 0:
            raise DataError("volume has an empty axis")
        if not np.isfinite(self.data).all():
            raise DataError("volume contains non-finite voxels")


def parse_nifti(blob: bytes) -> Volume:
    """Decode an in-memory NIfTI-1 file into a volume.

    Non-finite voxel values after scaling are rejected.
    """
    if len(blob) < VOX_OFFSET:
        raise DataError(f"file has {len(blob)} bytes, need at least {VOX_OFFSET}")

    magic = blob[344:348]
    if magic != MAGIC:
        raise DataError(
            f"unsupported magic {magic!r}: only uncompressed single-file NIfTI-1 "
            "('n+1') is handled; detached headers and compressed files are not"
        )

    byteorder = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    if sizeof_hdr != HEADER_SIZE:
        byteorder = ">"
        (sizeof_hdr,) = struct.unpack_from(">i", blob, 0)
        if sizeof_hdr != HEADER_SIZE:
            raise DataError(f"sizeof_hdr decodes to {sizeof_hdr} under either endianness")

    dim = struct.unpack_from(byteorder + "8h", blob, 40)
    datatype, bitpix = struct.unpack_from(byteorder + "2h", blob, 70)
    pixdim = struct.unpack_from(byteorder + "8f", blob, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(byteorder + "3f", blob, 108)
    (sform_code,) = struct.unpack_from(byteorder + "h", blob, 254)
    sform = None
    if sform_code > 0:
        rows = struct.unpack_from(byteorder + "12f", blob, 280)
        sform = np.array([rows[0:4], rows[4:8], rows[8:12], [0, 0, 0, 1]], dtype=np.float64)

    if datatype not in _DTYPES:
        raise DataError(f"datatype code {datatype} not supported")
    if bitpix != _BITPIX[datatype]:
        raise DataError(f"bitpix {bitpix} inconsistent with datatype {datatype}")

    ndim = dim[0]
    if ndim < 3:
        raise DataError(f"dim[0]={ndim}, need a 3-d or 4-d volume")
    if ndim > 4 or any(dim[i] != 1 for i in range(4, ndim + 1)):
        raise DataError("only 3-d volumes (or 4-d with trailing singleton) are supported")
    extents = dim[1:4]
    if any(e <= 0 for e in extents):
        raise DataError(f"spatial extents {extents} must be positive")

    count = extents[0] * extents[1] * extents[2]
    if vox_offset and not VOX_OFFSET <= vox_offset <= len(blob):  # NaN fails too
        raise DataError(f"vox_offset {vox_offset} lies outside bytes {VOX_OFFSET}..{len(blob)}")
    offset = int(vox_offset) if vox_offset else VOX_OFFSET
    nbytes = count * bitpix // 8
    if len(blob) < offset + nbytes:
        raise DataError(f"payload needs {nbytes} bytes at offset {offset}, file has {len(blob)}")

    raw = np.frombuffer(blob, dtype=np.dtype(byteorder + _DTYPES[datatype]),
                        count=count, offset=offset)
    values = raw.reshape(extents).astype(np.float32)
    # apply intensity scaling unless it is the exact identity (keeps round
    # trips bit-identical, -0.0 included)
    if scl_slope != 0.0 and (scl_slope != 1.0 or scl_inter != 0.0):
        values = (np.float32(scl_slope) * values + np.float32(scl_inter)).astype(np.float32)
    if not np.isfinite(values).all():
        raise DataError("volume contains NaN/Inf voxels")

    voxel_size = tuple(abs(float(p)) or 1.0 for p in pixdim[1:4])
    return Volume(values, voxel_size=voxel_size, world_transform=sform)


def write_nifti(volume: Volume) -> bytes:
    """Encode a volume as little-endian float32 single-file NIfTI-1 bytes."""
    volume.validate()
    nx, ny, nz = volume.extents
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 16, 32)  # float32
    struct.pack_into("<8f", header, 76, 1.0, *volume.voxel_size, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", header, 108, float(VOX_OFFSET), 1.0, 0.0)
    header[123] = 2  # spatial units: mm
    transform = volume.world_transform
    if transform is None:
        transform = np.diag([*volume.voxel_size, 1.0])
    struct.pack_into("<2h", header, 252, 0, 1)  # qform none, sform scanner
    struct.pack_into("<12f", header, 280, *transform[:3].reshape(-1).tolist())
    header[344:348] = MAGIC

    payload = np.ascontiguousarray(volume.data, dtype="<f4").tobytes()
    return bytes(header) + b"\x00\x00\x00\x00" + payload


def load_volume(path) -> Volume:
    with open(path, "rb") as fh:
        return parse_nifti(fh.read())


def save_volume(volume: Volume, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_nifti(volume))
