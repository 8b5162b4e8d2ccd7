"""Single-file checkpoint format.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest, then the raw tensor payload. The manifest records the model
config, the payload dtype and the tensor table: name/shape/offset per
tensor, offsets relative to the start of the payload. The payload is the
``model.param_shapes`` table at contiguous offsets, little-endian, and
nothing else. Saves write float64; a float32 payload is read and widened
to float64, the only dtype a Tensor holds.

Each gswa layer holds its gates stacked (``layers.{i}.gate_weight`` /
``gate_bias``). Files in the older per-gate layout still load: there each
gate's ``layers.{i}.gates.{g}.weight``, then ``.bias``, sit where the
stacked tensors sit now.
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

MAGIC = b"PLTCKPT1"
VERSION = 1
DTYPES = ("float64", "float32")


def _layout(cfg: ModelConfig, itemsize: int, per_gate: bool = False) -> tuple:
    """(entries, slots): the manifest's ``tensors`` entries for ``cfg`` in
    file order at contiguous offsets, and the (tensor name, index) each
    fills, the index being ``...`` or, for a per-gate entry, its gate."""
    shapes, parts = param_shapes(cfg), []   # (file name, shape, slot)
    for name, shape in shapes.items():
        stem, gate, kind = name.rpartition(".gate_")
        if not (per_gate and gate):
            parts.append((name, shape, (name, ...)))
        elif kind == "weight":   # each gate's weight, then its bias
            parts += [(f"{stem}.gates.{g}.{k}", shapes[f"{stem}.gate_{k}"][1:],
                       (f"{stem}.gate_{k}", g))
                      for g in range(shape[0]) for k in ("weight", "bias")]
    offsets = accumulate((math.prod(shape) * itemsize for _, shape, _ in parts), initial=0)
    entries = [{"name": n, "shape": list(s), "offset": o} for (n, s, _), o in zip(parts, offsets)]
    return entries, [slot for _, _, slot in parts]


def save_checkpoint(path, params: Parameters, extra: dict | None = None) -> None:
    manifest = {
        "version": VERSION,
        "config": asdict(params.config),
        "dtype": "float64",
        "extra": extra or {},
        "tensors": _layout(params.config, 8)[0],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
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
    payload = data[16 + mlen:]
    n_params = count_params_from_config(cfg)
    if len(payload) != n_params * dtype.itemsize:   # checked before the model is allocated
        raise CheckpointError(f"payload of {len(payload)} bytes is not the config's "
                              f"{n_params} parameters of {dtype.name}")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise CheckpointError("manifest 'tensors' is not a list")
    layouts = [_layout(cfg, dtype.itemsize, per_gate) for per_gate in (False, True)]
    differ = [next((i for i, (a, b) in enumerate(zip_longest(tensors, entries)) if a != b),
                   None) for entries, _ in layouts]
    if None not in differ:   # name the first difference from the table followed longest
        i = max(differ)
        entries = layouts[differ.index(i)][0]
        raise CheckpointError(f"tensor entry {i} is {(tensors + [None])[i]}, "
                              f"the config implies {(entries + [None])[i]}")
    entries, slots = layouts[differ.index(None)]
    try:
        params = build_parameters(cfg, np.zeros)
    except ConfigError as e:
        raise CheckpointError(f"bad config in manifest: {e}") from e
    named = params.named_tensors()
    for entry, (name, index) in zip(entries, slots):
        view = named[name].data[index]   # the whole tensor, or one gate of it
        view[...] = np.frombuffer(payload, dtype, view.size, entry["offset"]).reshape(view.shape)
    return params, manifest.get("extra", {})
