"""Checkpointing: save and restore trained agents.

Long QAT runs (the paper's schedule is one million timesteps) need restart
support: the checkpoint captures the actor/critic (and target) parameters,
the numeric regime's state — including the captured activation range and
whether the precision switch has already happened — and enough metadata to
rebuild a compatible agent.  Checkpoints are plain ``.npz`` archives with a
JSON metadata blob, so they need nothing beyond numpy.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from ..fixedpoint import AffineQuantizer, RangeTracker
from ..nn import MLP, DynamicFixedPointNumerics
from .ddpg import DDPGAgent

__all__ = [
    "save_agent",
    "read_checkpoint",
    "restore_agent",
    "load_agent_into",
    "checkpoint_metadata",
]

_FORMAT_VERSION = 1
#: The one learner a checkpoint holds.
_AGENT_CLASS = "DDPGAgent"

#: Metadata keys every restore path reads.
_REQUIRED_METADATA = (
    "format_version",
    "agent_class",
    "state_dim",
    "action_dim",
    "update_count",
    "numerics",
)


def _network_arrays(prefix: str, network: MLP) -> Dict[str, np.ndarray]:
    return {f"{prefix}::{name}": value for name, value in network._parameters().items()}


def _agent_networks(agent: DDPGAgent) -> Dict[str, MLP]:
    return {
        "actor": agent.actor,
        "critic": agent.critic,
        "target_actor": agent.target_actor,
        "target_critic": agent.target_critic,
    }


def checkpoint_metadata(agent: DDPGAgent) -> Dict[str, object]:
    """The JSON-serialisable metadata stored alongside the parameters."""
    metadata: Dict[str, object] = {
        "format_version": _FORMAT_VERSION,
        "agent_class": _AGENT_CLASS,
        "state_dim": agent.state_dim,
        "action_dim": agent.action_dim,
        "update_count": agent.update_count,
        "numerics": agent.numerics.describe(),
    }
    numerics = agent.numerics
    if isinstance(numerics, DynamicFixedPointNumerics):
        layers: Dict[str, object] = {}
        for layer in sorted(numerics.layer_trackers):
            tracker = numerics.layer_trackers[layer]
            quantizer = numerics.layer_quantizers.get(layer)
            layers[layer] = {
                "switched": quantizer is not None,
                "bits": numerics.layer_bits.get(layer),
                # The quantizer (if frozen) rebuilds bit-exactly from its
                # recorded range; unswitched layers carry the live tracker.
                "min": (
                    quantizer.min_value
                    if quantizer is not None
                    else (tracker.min_value if tracker.initialized else None)
                ),
                "max": (
                    quantizer.max_value
                    if quantizer is not None
                    else (tracker.max_value if tracker.initialized else None)
                ),
                "tracker_min": tracker.min_value if tracker.initialized else None,
                "tracker_max": tracker.max_value if tracker.initialized else None,
                "tracker_count": tracker.count,
            }
        metadata["qat"] = {
            "half_mode": numerics.half_mode,
            "num_bits": numerics.num_bits,
            "range_min": numerics.range_tracker.min_value if numerics.range_tracker.initialized else None,
            "range_max": numerics.range_tracker.max_value if numerics.range_tracker.initialized else None,
            "range_count": numerics.range_tracker.count,
            "layers": layers,
        }
    return metadata


def save_agent(agent: DDPGAgent, path: Union[str, Path]) -> Path:
    """Write an agent checkpoint to ``path`` (``.npz``)."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    for prefix, network in _agent_networks(agent).items():
        arrays.update(_network_arrays(prefix, network))
    arrays["__metadata__"] = np.frombuffer(
        json.dumps(checkpoint_metadata(agent)).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    # numpy appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_checkpoint(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """A checkpoint's metadata and ``network::parameter`` arrays, validated.

    The one place a checkpoint file is opened and its ``__metadata__``
    decoded.  Raises ``ValueError`` for an archive that cannot be read (not
    a zip, truncated, a corrupt member), a missing or undecodable
    ``__metadata__``, a missing required metadata key, a ``format_version``
    other than the one this module writes, an ``agent_class`` other than
    ``DDPGAgent``, and a ``numerics`` entry that names no regime; a path
    that cannot be opened stays an ``OSError``.
    Whether the arrays fit an agent is :func:`restore_agent`'s check.
    """
    import zipfile  # numpy loads it on first .npz use; keep it off `import repro`

    try:
        archive = np.load(Path(path), allow_pickle=False)
        if isinstance(archive, np.ndarray):
            raise ValueError("a bare .npy array, not an .npz archive")
        with archive:
            arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, EOFError, zlib.error, ValueError) as error:
        raise ValueError(f"not a readable checkpoint archive: {error}") from None
    blob = arrays.pop("__metadata__", None)
    if blob is None:
        raise ValueError("checkpoint archive has no __metadata__ entry")
    try:
        metadata = json.loads(blob.tobytes().decode("utf-8"))
    except ValueError as error:  # bad UTF-8 or bad JSON
        raise ValueError(f"checkpoint __metadata__ does not decode: {error}") from None
    if not isinstance(metadata, dict):
        raise ValueError("checkpoint __metadata__ is not a JSON object")
    missing = [key for key in _REQUIRED_METADATA if key not in metadata]
    if missing:
        raise ValueError(f"checkpoint __metadata__ is missing {missing}")
    if metadata["format_version"] != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format_version {metadata['format_version']!r} is not "
            f"the supported version {_FORMAT_VERSION}"
        )
    if metadata["agent_class"] != _AGENT_CLASS:
        raise ValueError(
            f"checkpoint holds a {metadata['agent_class']!r}, not a {_AGENT_CLASS}"
        )
    if not isinstance(metadata["numerics"], dict) or "name" not in metadata["numerics"]:
        raise ValueError("checkpoint __metadata__ numerics names no regime")
    return metadata, arrays


def load_agent_into(agent: DDPGAgent, path: Union[str, Path]) -> Dict[str, object]:
    """Restore a checkpoint into an already-constructed compatible agent.

    The agent must have the same dimensions and network shapes as the one
    that was saved.  Returns the checkpoint metadata.  If the checkpoint
    was taken after the QAT precision switch, the agent's dynamic numeric
    policy is switched back into half mode with the captured range.
    """
    metadata, arrays = read_checkpoint(path)
    restore_agent(agent, metadata, arrays)
    return metadata


def restore_agent(
    agent: DDPGAgent,
    metadata: Dict[str, object],
    arrays: Dict[str, np.ndarray],
) -> None:
    """Apply an already-read checkpoint (:func:`read_checkpoint`'s pair) to
    a compatible agent — :func:`load_agent_into` without the file read.

    All or nothing: a checkpoint that lacks any of the agent's parameters,
    holds one the agent does not have, holds one in another shape, or holds a
    malformed ``qat`` block raises ``ValueError`` before anything is written;
    then each network is written with one ``set_parameters`` call.
    """
    if metadata["state_dim"] != agent.state_dim or metadata["action_dim"] != agent.action_dim:
        raise ValueError(
            "checkpoint dimensions "
            f"({metadata['state_dim']}, {metadata['action_dim']}) do not match the agent "
            f"({agent.state_dim}, {agent.action_dim})"
        )
    networks = _agent_networks(agent)
    _check_parameter_set(networks, arrays)
    _restore_numerics(agent.numerics, metadata.get("qat"))
    for prefix, network in networks.items():
        network.set_parameters(
            {name: arrays[f"{prefix}::{name}"] for name in network._parameters()}
        )
    agent.update_count = int(metadata["update_count"])


def _check_parameter_set(networks: Dict[str, MLP], arrays: Dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` unless ``arrays`` holds exactly every parameter of
    every network, each in its shape — before anything is written."""
    expected = {
        f"{prefix}::{name}": value.shape
        for prefix, network in networks.items()
        for name, value in network._parameters().items()
    }
    problems = []
    missing = [key for key in expected if key not in arrays]
    unknown = [key for key in arrays if key not in expected]
    mismatched = [
        f"{key} {arrays[key].shape} vs {shape}"
        for key, shape in expected.items()
        if key in arrays and arrays[key].shape != shape
    ]
    if missing:
        problems.append(f"missing {missing}")
    if unknown:
        problems.append(f"unknown {unknown}")
    if mismatched:
        problems.append(f"shape mismatch {mismatched}")
    if problems:
        raise ValueError(
            "checkpoint parameters do not fit the agent: " + "; ".join(problems)
        )


def _restore_numerics(numerics, qat_state) -> None:
    """Apply a checkpoint's ``qat`` block to a dynamic numeric policy.

    The whole block is read first — every value converted, every frozen
    quantizer rebuilt — so a malformed one raises ``ValueError`` and leaves
    the live numerics, which the agent's replicas share, untouched.
    """
    if not qat_state or not isinstance(numerics, DynamicFixedPointNumerics):
        return
    try:
        global_range, layers, half_mode = _read_qat(qat_state, numerics)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"checkpoint qat metadata is malformed: {error!r}") from None
    if global_range is not None:
        tracker = numerics.range_tracker
        tracker.min_value, tracker.max_value, tracker.count = global_range
    for layer, (tracker_range, quantizer) in layers.items():
        tracker = numerics.layer_trackers.get(layer)
        if tracker is None:
            tracker = numerics.layer_trackers[layer] = RangeTracker()
        if tracker_range is not None:
            tracker.min_value, tracker.max_value, tracker.count = tracker_range
        if quantizer is not None:
            numerics.layer_quantizers[layer] = quantizer
            numerics.layer_bits[layer] = quantizer.num_bits
    if half_mode and not numerics.half_mode:
        numerics.switch_to_half()


def _read_qat(qat_state, numerics) -> tuple:
    """A ``qat`` block as ``(global range, {layer: (tracker range,
    quantizer)}, half_mode)``, each range ``(min, max, count)`` or ``None``.

    Raises ``KeyError`` / ``TypeError`` / ``ValueError`` for a malformed
    block, without touching ``numerics``.
    """
    if not isinstance(qat_state, dict):
        raise TypeError(f"qat is a {type(qat_state).__name__}, not an object")
    half_mode = qat_state["half_mode"]
    if not isinstance(half_mode, bool):
        raise TypeError(f"half_mode is {half_mode!r}, not a boolean")
    global_range = None
    if qat_state["range_min"] is not None:
        global_range = (
            float(qat_state["range_min"]),
            float(qat_state["range_max"]),
            int(qat_state["range_count"]),
        )
    layer_states = qat_state.get("layers") or {}
    if not isinstance(layer_states, dict):
        raise TypeError(f"layers is a {type(layer_states).__name__}, not an object")
    layers = {}
    for layer, layer_state in layer_states.items():
        if not isinstance(layer_state, dict):
            raise TypeError(f"layer {layer!r} is a {type(layer_state).__name__}, not an object")
        tracker_range = None
        if layer_state.get("tracker_min") is not None:
            tracker_range = (
                float(layer_state["tracker_min"]),
                float(layer_state["tracker_max"]),
                int(layer_state["tracker_count"]),
            )
        quantizer = None
        if layer_state.get("switched"):
            # Rebuilding from the recorded range reproduces the frozen
            # quantizer exactly (delta / zero_point are pure functions of
            # bits and range).
            quantizer = AffineQuantizer(
                int(layer_state["bits"]), float(layer_state["min"]), float(layer_state["max"])
            )
        layers[layer] = (tracker_range, quantizer)
    if half_mode and not numerics.half_mode:
        # The switch freezes the restored global range; it must build.
        restored = RangeTracker(*global_range) if global_range else numerics.range_tracker
        AffineQuantizer.from_tracker(numerics.num_bits, restored)
    return global_range, layers, half_mode
