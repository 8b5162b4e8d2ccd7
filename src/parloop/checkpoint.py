"""Single-file checkpoint format.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest, then the raw tensor payload. The manifest records the model
config, the payload dtype, and per-tensor name/shape/offset, with offsets
relative to the start of the payload. Tensors are stored little-endian in
the order listed. Saves write float64; a float32 payload is read and
widened to float64, the only dtype a Tensor holds.

Tensor names are those of ``model.param_shapes``, where each gswa layer
holds its gates stacked as ``layers.{i}.gate_weight`` / ``gate_bias``.
Files written before the gates were stacked name one gate per entry,
``layers.{i}.gates.{g}.weight`` / ``.bias``; they still load, each entry
into slice g, and every slice must be present.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import ModelConfig, Parameters, build_parameters, count_params_from_config

MAGIC = b"PLTCKPT1"
VERSION = 1
DTYPES = ("float64", "float32")


def save_checkpoint(path, params: Parameters, extra: dict | None = None) -> None:
    tensors = []
    offset = 0
    chunks = []
    for name, t in params.named_tensors().items():
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(t.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "version": VERSION,
        "config": asdict(params.config),
        "dtype": "float64",
        "extra": extra or {},
        "tensors": tensors,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for raw in chunks:
            f.write(raw)


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
    if manifest.get("version") != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('version')}")
    try:
        config = manifest["config"]
        config.pop("kv_share", None)   # older manifests stored it; mode now implies it
        cfg = ModelConfig(**config)
    except (TypeError, KeyError, AttributeError, ConfigError) as e:
        raise CheckpointError(f"bad config in manifest: {e}") from e
    if manifest.get("dtype") not in DTYPES:
        raise CheckpointError(
            f"unsupported payload dtype {manifest.get('dtype')!r}, expected one of {DTYPES}")
    dtype = np.dtype(manifest["dtype"]).newbyteorder("<")
    if not isinstance(manifest.get("tensors"), list):
        raise CheckpointError("manifest 'tensors' is not a list")
    payload = data[16 + mlen:]
    n_params = count_params_from_config(cfg)
    if n_params * dtype.itemsize > len(payload):   # checked before the model is allocated
        raise CheckpointError(
            f"payload of {len(payload)} bytes cannot hold the config's {n_params} parameters")

    params = build_parameters(cfg, np.zeros)
    named = params.named_tensors()
    slots = {name: (name, None) for name in named}   # file name -> (tensor, slice)
    for name, t in named.items():   # older files store each gate on its own
        stem, sep, kind = name.rpartition(".gate_")
        if sep:
            slots.update((f"{stem}.gates.{g}.{kind}", (name, g)) for g in range(len(t.data)))
    seen = set()
    for entry in manifest["tensors"]:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        except (TypeError, KeyError) as e:
            raise CheckpointError(f"malformed tensor entry {entry!r}: {e!r}") from e
        if not isinstance(offset, int) or offset < 0:
            raise CheckpointError(f"bad offset {offset!r} for tensor {name!r}")
        if not isinstance(name, str) or name not in slots:
            raise CheckpointError(f"unknown tensor {name!r} in checkpoint")
        target, g = slots[name]
        t = named[target]
        want = t.data.shape if g is None else t.data.shape[1:]
        if want != shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: config implies {want}, file has {shape}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CheckpointError(f"truncated payload at tensor {name!r}")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        if g is None:
            t.data = arr.astype(np.float64).reshape(shape)
        else:
            t.data[g] = arr.reshape(shape)
        seen.add((target, g))
    # a tensor is loaded whole, or (stacked gates) slice by slice
    missing = [name for name, t in named.items() if (name, None) not in seen
               and not all((name, g) in seen for g in range(len(t.data)))]
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
    return params, manifest.get("extra", {})
