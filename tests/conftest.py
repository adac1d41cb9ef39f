"""Shared fixtures for the FIXAR reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import HalfCheetahEnv
from repro.rl import DDPGAgent, DDPGConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_env() -> HalfCheetahEnv:
    """A HalfCheetah instance with a short horizon for fast tests."""
    return HalfCheetahEnv(seed=0, max_episode_steps=50)


@pytest.fixture
def small_agent(rng) -> DDPGAgent:
    """A tiny DDPG agent matching the small environment's dimensions."""
    return DDPGAgent(
        state_dim=17,
        action_dim=6,
        config=DDPGConfig(hidden_sizes=(32, 24)),
        rng=rng,
    )


@pytest.fixture
def checkpoints(tmp_path, rng):
    """``good`` — a real HalfCheetah checkpoint — plus every way a restore
    must reject one, as ``{name: path}`` (all but ``good`` are unusable; the
    last four read fine and only fail to fit the agent)."""
    import json

    from repro.nn import make_numerics
    from repro.rl import save_agent

    agent = DDPGAgent(
        17, 6, DDPGConfig(hidden_sizes=(16, 12)),
        numerics=make_numerics("fixar-dynamic"), rng=rng,
    )
    good = save_agent(agent, tmp_path / "good.npz")
    data = good.read_bytes()
    with np.load(good) as archive:
        arrays = dict(archive)
    metadata = json.loads(arrays["__metadata__"].tobytes().decode("utf-8"))

    def write(name, payload):
        path = tmp_path / f"{name}.npz"
        path.write_bytes(payload)
        return path

    def resave(name, **replaced):
        path = tmp_path / f"{name}.npz"
        kept = {key: value for key, value in {**arrays, **replaced}.items() if value is not None}
        np.savez_compressed(path, **kept)
        return path

    def encoded(meta):
        return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

    # A qat block that would change the numerics' ranges and a layer's
    # quantizer before the reader reached what is wrong with it.
    qat = {
        **metadata["qat"],
        "range_min": -2.0, "range_max": 3.0, "range_count": 7,
        "layers": {
            "actor_fc0": {
                "switched": True, "bits": 8, "min": -1.0, "max": 1.0,
                "tracker_min": -1.0, "tracker_max": 1.0, "tracker_count": 5,
            },
        },
    }
    flipped = bytearray(data)
    for offset in range(200, 260):  # inside the first member's compressed stream
        flipped[offset] ^= 0xFF
    np.save(tmp_path / "bare.npy", np.zeros(3))
    return {
        "good": good,
        "garbage": write("garbage", b"PK\x03\x04garbage"),
        "empty": write("empty", b""),
        "truncated-64": write("truncated-64", data[:64]),
        "truncated-half": write("truncated-half", data[: len(data) // 2]),
        "truncated-tail": write("truncated-tail", data[:-16]),
        "corrupt-member": write("corrupt-member", bytes(flipped)),
        "bare-npy": tmp_path / "bare.npy",
        "no-metadata": resave("no-metadata", __metadata__=None),
        "metadata-not-json": resave(
            "metadata-not-json", __metadata__=np.frombuffer(b"{nope", dtype=np.uint8)
        ),
        "missing-key": resave(
            "missing-key",
            __metadata__=encoded({k: v for k, v in metadata.items() if k != "numerics"}),
        ),
        "format-version-2": resave(
            "format-version-2", __metadata__=encoded({**metadata, "format_version": 2})
        ),
        "foreign-agent-class": resave(
            "foreign-agent-class", __metadata__=encoded({**metadata, "agent_class": "TD3Agent"})
        ),
        "missing-parameter": resave(
            "missing-parameter", **{"actor::0.actor_fc0.weight": None}
        ),
        "unknown-parameter": resave(
            "unknown-parameter", **{"actor::9.bogus.weight": np.zeros((2, 2))}
        ),
        "qat-layers-not-dict": resave(
            "qat-layers-not-dict",
            __metadata__=encoded({**metadata, "qat": {**qat, "layers": ["actor_fc0"]}}),
        ),
        "qat-missing-half-mode": resave(
            "qat-missing-half-mode",
            __metadata__=encoded(
                {**metadata, "qat": {k: v for k, v in qat.items() if k != "half_mode"}}
            ),
        ),
    }
