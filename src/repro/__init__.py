"""FIXAR reproduction: fixed-point deep reinforcement learning platform.

A pure-Python reproduction of "FIXAR: A Fixed-Point Deep Reinforcement
Learning Platform with Quantization-Aware Training and Adaptive Parallelism"
(DAC 2021).  The package provides:

* ``repro.fixedpoint`` — Q-format descriptors and quantizers, the PE's
  decomposed multiplier, and the affine activation quantizer;
* ``repro.nn`` — a minimal dense-layer library with explicit forward /
  backward passes and pluggable numeric regimes;
* ``repro.rl`` — DDPG, replay, exploration noise, quantization-aware
  training (Algorithm 1), and the training/evaluation loops;
* ``repro.envs`` — synthetic continuous-control benchmarks standing in for
  MuJoCo's HalfCheetah, Hopper, and Swimmer;
* ``repro.accelerator`` — the FPGA accelerator's raw-code datapath kernel
  (the integer dense layer, pinned against ``repro.nn`` in LSBs) and its
  analytical dataflow, timing, resource and power models;
* ``repro.platform`` — end-to-end CPU-FPGA platform and CPU-GPU baseline
  models;
* ``repro.core`` — configuration, the assembled :class:`FixarSystem`, the
  Table II comparison, and report formatting.
"""

from . import accelerator, core, envs, fixedpoint, nn, platform, rl
from .core import FixarConfig, FixarSystem, paper_config, smoke_test_config

__version__ = "1.0.0"

__all__ = [
    "accelerator",
    "core",
    "envs",
    "fixedpoint",
    "nn",
    "platform",
    "rl",
    "FixarConfig",
    "FixarSystem",
    "paper_config",
    "smoke_test_config",
    "__version__",
]
