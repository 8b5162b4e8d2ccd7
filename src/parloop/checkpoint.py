"""Single-file checkpoint format, the one form ``load_checkpoint`` reads.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest (version, model config, payload dtype, the caller's ``extra``
object, and name/shape/offset per tensor, offsets relative to the start of
the payload), then the payload: the ``model.param_shapes`` table at
contiguous offsets as little-endian float64, and nothing else. Any other
form (version, config key, dtype or tensor table) raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from itertools import accumulate, zip_longest

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import (ModelConfig, Parameters, build_parameters, count_params_from_config,
                    param_shapes)
from .tensor import is_int

MAGIC = b"PLTCKPT1"
VERSION = 1
DTYPE = "float64"
ITEMSIZE = 8   # bytes per float64


def _layout(cfg: ModelConfig) -> list:
    """The manifest's ``tensors`` entries for ``cfg``: the ``param_shapes``
    table in order, at contiguous offsets."""
    shapes = param_shapes(cfg)
    offsets = accumulate((math.prod(shape) * ITEMSIZE for shape in shapes.values()), initial=0)
    return [{"name": name, "shape": list(shape), "offset": offset}
            for (name, shape), offset in zip(shapes.items(), offsets)]


def save_checkpoint(path, params: Parameters, extra: dict | None = None) -> None:
    manifest = {
        "version": VERSION,
        "config": asdict(params.config),
        "dtype": DTYPE,
        "extra": extra or {},
        "tensors": _layout(params.config),
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        for t in params.named_tensors().values():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (Parameters, extra dict). Corrupt or foreign files raise
    CheckpointError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if len(data) < len(MAGIC) + 8 or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (mlen,) = struct.unpack("<Q", data[8:16])
    if 16 + mlen > len(data):
        raise CheckpointError("truncated manifest")
    try:
        manifest = json.loads(data[16:16 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    version, extra = manifest.get("version"), manifest.get("extra", {})
    if not (is_int(version) and version == VERSION):   # JSON true and 1.0 both == 1
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    if not isinstance(extra, dict):
        raise CheckpointError("manifest 'extra' is not a JSON object")
    try:
        cfg = ModelConfig(**manifest["config"])
    except (TypeError, KeyError, ConfigError) as e:
        raise CheckpointError(f"bad config in manifest: {e}") from e
    if manifest.get("dtype") != DTYPE:
        raise CheckpointError(
            f"unsupported payload dtype {manifest.get('dtype')!r}, expected {DTYPE!r}")
    payload = memoryview(data)[16 + mlen:]   # a view: no copy of the payload
    n_params = count_params_from_config(cfg)
    if len(payload) != n_params * ITEMSIZE:   # checked before the model is allocated
        raise CheckpointError(f"payload of {len(payload)} bytes is not the config's "
                              f"{n_params} parameters of {DTYPE}")
    tensors, entries = manifest.get("tensors"), _layout(cfg)
    if not isinstance(tensors, list):
        raise CheckpointError("manifest 'tensors' is not a list")
    for i, (got, want) in enumerate(zip_longest(tensors, entries)):
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):   # 8.0 != 8
            raise CheckpointError(f"tensor entry {i} is {got}, the config implies {want}")
    try:
        params = build_parameters(cfg, np.zeros)
    except ConfigError as e:
        raise CheckpointError(f"bad config in manifest: {e}") from e
    named = params.named_tensors()
    for entry in entries:
        view = named[entry["name"]].data
        view[...] = np.frombuffer(payload, "<f8", view.size, entry["offset"]).reshape(view.shape)
    return params, extra
