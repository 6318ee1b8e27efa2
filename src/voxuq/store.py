"""Versioned binary serialization for heads, density models and calibration
parameters.

File layout (all integers little-endian):
  magic "OCUQ" (4 bytes)
  format version (u16)
  kind tag: u16 length + ascii name ("head" | "gda" | "calib")
  metadata: u64 length + UTF-8 JSON (sorted keys)
  tensor count (u32), then per tensor in sorted-name order:
    u16 name length + name, u16 dtype length + numpy dtype string,
    u8 ndim, ndim x u64 shape, raw little-endian data
"""

import io
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .calibration import CalibrationParams
from .gda import GdaModel
from .head import HeadConfig, ResidualMlpHead

MAGIC = b"OCUQ"
FORMAT_VERSION = 1
KINDS = ("head", "gda", "calib")
# the dtypes a tensor may have, by name: little-endian booleans, integers and floats
DTYPES = {d.str: d for d in (np.dtype(c).newbyteorder("<")
                             for c in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"])}


class StoreError(RuntimeError):
    """Raised on malformed, truncated, or mismatched artifact files."""


def _write_str(f, s, width="H"):
    raw = s.encode("utf-8")
    f.write(struct.pack("<" + width, len(raw)))
    f.write(raw)


def _read_exact(f, n):
    if n > len(f.getvalue()) - f.tell():
        raise StoreError("truncated artifact file")
    return f.read(n)


def _read_str(f, width="H"):
    size = struct.calcsize("<" + width)
    (n,) = struct.unpack("<" + width, _read_exact(f, size))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise StoreError("artifact text is not UTF-8: %s" % e)


def write_artifact(path, kind, metadata, tensors):
    """Low-level writer: named float arrays plus a JSON metadata block."""
    if kind not in KINDS:
        raise ValueError("unknown artifact kind %r" % kind)
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    _write_str(buf, kind)
    meta_raw = json.dumps(metadata, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<Q", len(meta_raw)))
    buf.write(meta_raw)
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        dtype = arr.dtype.newbyteorder("<")
        _write_str(buf, name)
        _write_str(buf, dtype.str)
        buf.write(struct.pack("<B", arr.ndim))
        for s in arr.shape:
            buf.write(struct.pack("<Q", s))
        buf.write(arr.astype(dtype).tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_artifact(path, expected_kind=None):
    """Low-level reader; validates magic, version and (optionally) kind."""
    with io.BytesIO(Path(path).read_bytes()) as f:
        if _read_exact(f, 4) != MAGIC:
            raise StoreError("bad magic bytes in %s" % path)
        (version,) = struct.unpack("<H", _read_exact(f, 2))
        if version > FORMAT_VERSION:
            raise StoreError("unsupported artifact version %d" % version)
        kind = _read_str(f)
        if kind not in KINDS:
            raise StoreError("unknown artifact kind %r" % kind)
        if expected_kind is not None and kind != expected_kind:
            raise StoreError("artifact kind mismatch: expected %r, found %r"
                             % (expected_kind, kind))
        try:
            metadata = json.loads(_read_str(f, "Q"))
        except ValueError as e:
            raise StoreError("artifact metadata is not JSON: %s" % e)
        if not isinstance(metadata, dict):
            raise StoreError("artifact metadata is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        tensors = {}
        for _ in range(count):
            name = _read_str(f)
            dtype = DTYPES.get(_read_str(f))
            if dtype is None:
                raise StoreError("tensor %r has an unknown dtype" % name)
            (ndim,) = struct.unpack("<B", _read_exact(f, 1))
            shape = tuple(struct.unpack("<Q", _read_exact(f, 8))[0]
                          for _ in range(ndim))
            nbytes = np.prod(shape, dtype=object) * dtype.itemsize  # Python ints: no wrap
            tensors[name] = np.frombuffer(_read_exact(f, nbytes),
                                          dtype=dtype).reshape(shape).copy()
        return kind, metadata, tensors


# -- head ------------------------------------------------------------------

def save_head(head, path):
    """The head's config as metadata, its parameters as float32 tensors under
    their parameters() names, and each hidden layer's power-iteration
    vectors in float64."""
    tensors = {name: p.astype("<f4") for name, p in head.parameters().items()}
    for i, layer in enumerate(head.layers):
        tensors["layer%d.sn_u" % i] = layer.sn_state.u
        tensors["layer%d.sn_v" % i] = layer.sn_state.v
    write_artifact(path, "head", asdict(head.config), tensors)


def _tensor(tensors, name, shape):
    """The artifact tensor `name`, which must be there with `shape`."""
    if name not in tensors or tensors[name].shape != tuple(shape):
        raise StoreError("artifact has no tensor %r of shape %s" % (name, tuple(shape)))
    return tensors[name]


def load_head(path):
    _, metadata, tensors = read_artifact(path, expected_kind="head")
    try:
        head = ResidualMlpHead(HeadConfig(**metadata), seed=0)
    except (TypeError, ValueError) as e:
        raise StoreError("head metadata: %s" % e)
    arrays = head.parameters()
    for i, layer in enumerate(head.layers):
        arrays.update({"layer%d.sn_u" % i: layer.sn_state.u, "layer%d.sn_v" % i: layer.sn_state.v})
    for name, p in arrays.items():
        p[...] = _tensor(tensors, name, p.shape)
    head.fix_weights()
    return head


# -- gda -------------------------------------------------------------------

def save_gda(model, path):
    metadata = {"dim": model.dim, "num_classes": model.num_classes,
                "eps_used": model.eps_used}
    tensors = {
        "means": model.means, "chols": model.chols,
        "log_dets": model.log_dets, "log_priors": model.log_priors,
        "counts": model.counts,
    }
    write_artifact(path, "gda", metadata, tensors)


def load_gda(path):
    _, metadata, tensors = read_artifact(path, expected_kind="gda")
    try:
        k, d, eps_used = (metadata[key] for key in ("num_classes", "dim", "eps_used"))
    except (KeyError, TypeError) as e:
        raise StoreError("malformed gda metadata: %r" % e)
    shapes = {"means": (k, d), "chols": (k, d, d), "log_dets": (k,), "log_priors": (k,),
              "counts": (k,)}
    return GdaModel(eps_used=eps_used, **{name: _tensor(tensors, name, shape)
                                          for name, shape in shapes.items()})


# -- calibration -----------------------------------------------------------

# "mode" names the UGTS rule t_train + lambda * gap, the only one there is
CALIB_MODE = "additive"


def save_calibration(params, path):
    metadata = {"t_train": params.t_train, "lambda": params.lam,
                "u_bar_train": params.u_bar_train, "mode": CALIB_MODE,
                "t_min": params.t_min, "t_max": params.t_max}
    write_artifact(path, "calib", metadata, {})


def load_calibration(path):
    _, metadata, _ = read_artifact(path, expected_kind="calib")
    if metadata.get("mode") != CALIB_MODE:
        raise StoreError("unsupported UGTS mode %r" % metadata.get("mode"))
    # CalibrationParams' fields in order
    values = [metadata.get(key) for key in ("t_train", "lambda", "u_bar_train", "t_min", "t_max")]
    try:
        if not all(type(v) in (int, float) and np.isfinite(v) for v in values):
            raise ValueError("a value is missing or not a finite number")
        return CalibrationParams(*values)
    except ValueError as e:
        raise StoreError("malformed calib metadata: %s" % e)
