"""Cine volume / label mask containers and the on-disk exchange format.

A volume file is one JSON header line followed by the raw little-endian
C-order buffer:

    {"dims": [T,Z,H,W], "dtype": "f32"|"u8", "spacing_mm": [sx,sy],
     "slice_thickness_mm": ..., "slice_gap_mm": ..., "label_names": [...]}

f32 buffers hold image intensities (CineVolume), u8 buffers hold integer
label maps (LabelMask, stored with T=1).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .schema import NUMBER, PRESENT, check, dumps, is_int, read_record, write_file

LABEL_NAMES = ("background", "rv", "myocardium", "lv")
BACKGROUND, RV, MYO, LV = 0, 1, 2, 3
MAX_MM = 1e6  # largest spacing, thickness or gap: keeps every volume and distance finite


class VolumeFormatError(ValueError):
    """Base class for volume-file problems."""


class HeaderError(VolumeFormatError):
    """Missing/unparseable header or inconsistent header fields."""


class DtypeError(VolumeFormatError):
    """Header declares a dtype this format does not define."""


class TruncationError(VolumeFormatError):
    """Buffer length does not match the header's dims product."""


@dataclass
class Geometry:
    """Physical pixel geometry shared by a volume and its masks."""

    pixel_spacing_mm: tuple = (1.5, 1.5)
    slice_thickness_mm: float = 8.0
    slice_gap_mm: float = 2.0

    def __post_init__(self):
        sx, sy = self.pixel_spacing_mm
        if not (0 < sx < np.inf and 0 < sy < np.inf and 0 < self.slice_thickness_mm < np.inf
                and 0 <= self.slice_gap_mm < np.inf):  # NaN fails every comparison
            raise ValueError("geometry values must be finite and positive (gap may be 0)")
        for name in ("pixel_spacing_mm", "slice_thickness_mm", "slice_gap_mm"):
            try:  # a JSON integer may pass the bounds and still overflow a float
                value = np.asarray(getattr(self, name), dtype=float)
            except OverflowError:
                raise ValueError("geometry %s is too large for a float" % name) from None
            if np.any(value > MAX_MM):
                raise ValueError("geometry %s must be at most %g mm, got %r"
                                 % (name, MAX_MM, getattr(self, name)))
        self.pixel_spacing_mm = (float(sx), float(sy))

    def slice_step_mm(self):
        return self.slice_thickness_mm + self.slice_gap_mm

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(d, where="geometry"):
        """The geometry a JSON object describes; ValueError naming the field
        for a non-object, a missing key or a wrongly typed value."""
        check(d, {"pixel_spacing_mm": (lambda s: isinstance(s, (list, tuple)) and len(s) == 2
                                       and all(map(NUMBER[0], s)), "a list of two numbers"),
                  "slice_thickness_mm": NUMBER, "slice_gap_mm": NUMBER}, ValueError, where)
        return Geometry(tuple(d["pixel_spacing_mm"]), d["slice_thickness_mm"],
                        d["slice_gap_mm"])


class CineVolume:
    """T frames x Z slices of H x W intensities with physical geometry."""

    def __init__(self, data, geometry: Geometry | None = None):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float32)
        if data.ndim != 4:
            raise ValueError("cine volume needs (T,Z,H,W) data, got %s" % (data.shape,))
        for dim, n in zip("TZHW", data.shape):
            if n == 0:
                raise ValueError("cine volume has an empty %s dim: shape %s" % (dim, data.shape))
        finite = np.isfinite(data)
        if not finite.all():  # counted and located only on failure
            first = tuple(map(int, np.unravel_index(finite.argmin(), finite.shape)))
            raise ValueError("cine volume has %d values that are not finite, the first at"
                             " (t, z, y, x) = %s" % (finite.size - np.count_nonzero(finite), first))
        self.data = data
        self.geometry = geometry or Geometry()

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def slices(self):
        return self.data.shape[1]


class LabelMask:
    """Integer label map over (..., H, W); one entry per pixel.

    Used both for (Z,H,W) anatomical stacks and (B,H,W) training batches.
    """

    def __init__(self, data, num_classes=len(LABEL_NAMES), label_names=None):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("label mask needs integer data, got %s" % data.dtype)
        if data.ndim < 2:
            raise ValueError("label mask needs at least (H,W) dims")
        if data.size and (data.min() < 0 or data.max() >= num_classes):
            raise ValueError("labels outside [0, %d)" % num_classes)
        self.data = data.astype(np.uint8)
        self.num_classes = num_classes
        self.label_names = tuple(label_names) if label_names else LABEL_NAMES[:num_classes]

    @property
    def shape(self):
        return self.data.shape

    def total_pixels(self):
        return int(self.data.size)

    def class_counts(self):
        return np.bincount(self.data.ravel(), minlength=self.num_classes)


# -- file format -------------------------------------------------------

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
# header key -> Geometry field; Geometry.from_dict checks the values load_volume reads
_GEOMETRY_KEYS = {"spacing_mm": "pixel_spacing_mm", "slice_thickness_mm": "slice_thickness_mm",
                  "slice_gap_mm": "slice_gap_mm"}
_HEADER = {"dims": (lambda d: isinstance(d, list) and len(d) == 4
                    and all(is_int(n) and n >= 1 for n in d), "4 positive ints"),
           "dtype": PRESENT, **dict.fromkeys(_GEOMETRY_KEYS, PRESENT)}
_DTYPE_TAG = {"dtype": (lambda t: t in tuple(_DTYPES), "f32 or u8")}


def save_volume(path, obj):
    """Write a CineVolume or LabelMask in the documented binary format."""
    if isinstance(obj, CineVolume):
        dims = list(obj.data.shape)
        dtype_tag = "f32"
        buf = np.ascontiguousarray(obj.data, dtype=_DTYPES["f32"])
        label_names = None
        geom = obj.geometry.to_dict()
    elif isinstance(obj, LabelMask):
        if obj.data.ndim != 3:
            raise ValueError("only (Z,H,W) masks are saved to files")
        dims = [1] + list(obj.data.shape)
        dtype_tag = "u8"
        buf = np.ascontiguousarray(obj.data, dtype=_DTYPES["u8"])
        label_names = list(obj.label_names)
        geom = Geometry().to_dict()
    else:
        raise TypeError("save_volume handles CineVolume or LabelMask, not %r"
                        % type(obj).__name__)
    if 0 in dims:  # load_volume accepts positive dims only
        raise ValueError("refusing to save an empty volume of shape %s" % (obj.data.shape,))
    header = {"dims": dims, "dtype": dtype_tag, "label_names": label_names,
              **{key: geom[name] for key, name in _GEOMETRY_KEYS.items()}}
    write_file(path, (dumps(header), buf.tobytes()))


def load_volume(path):
    """Read a volume file; returns CineVolume (f32) or LabelMask (u8)."""
    header, blob = read_record(path, HeaderError, "%s: header line" % path)
    dims = check(header, _HEADER, HeaderError, "%s: header" % path)["dims"]
    tag = check(header, _DTYPE_TAG, DtypeError, "%s: header" % path)["dtype"]
    dt = _DTYPES[tag]
    expected = math.prod(dims) * dt.itemsize
    if len(blob) != expected:
        raise TruncationError("%s: buffer is %d bytes, header dims need %d"
                              % (path, len(blob), expected))
    arr = blob.view(dt).reshape(dims)  # the record's own array: no copy
    try:
        geom = Geometry.from_dict({name: header[key] for key, name in _GEOMETRY_KEYS.items()})
    except ValueError as err:
        raise HeaderError("%s: bad geometry: %s" % (path, err)) from None
    if tag == "f32":
        try:
            return CineVolume(arr, geom)
        except ValueError as err:  # a NaN or infinite intensity
            raise VolumeFormatError("%s: %s" % (path, err)) from None
    names = LABEL_NAMES if header.get("label_names") is None else header["label_names"]
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise HeaderError("%s: label_names must be a list of strings, got %r" % (path, names))
    if dims[0] != 1:
        raise HeaderError("%s: label masks must have T=1, got %d" % (path, dims[0]))
    try:
        return LabelMask(arr[0], num_classes=len(names), label_names=names)
    except ValueError as err:  # a label outside label_names
        raise HeaderError("%s: %s" % (path, err)) from None


def load_kind(path, kind):
    """The volume at `path`, which must be a `kind`; else ValueError naming both."""
    vol = load_volume(path)
    if not isinstance(vol, kind):
        raise ValueError("%s holds a %s, expected a %s" % (path, type(vol).__name__, kind.__name__))
    return vol
