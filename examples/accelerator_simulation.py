#!/usr/bin/env python3
"""Drive the accelerator's integer datapath and its analytical models.

Builds the paper's full-size actor and critic (400/300 hidden units) under
32-bit fixed-point numerics, runs the actor's forward pass through the
raw-code datapath kernel (``repro.accelerator.datapath``) and prints its
error against the software network in LSBs, then prints the modelled
on-chip memory footprint, the cycle breakdown, throughput and utilization
of a training timestep, the half-precision datapath's speed-up, the
resource usage and the power.

Run:
    python examples/accelerator_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator import (
    AcceleratorConfig,
    PowerModel,
    ResourceModel,
    TimingModel,
    memory_footprint_report,
    network_forward,
)
from repro.core import format_table
from repro.nn import FixedPointNumerics
from repro.rl import DDPGAgent, DDPGConfig


def main() -> None:
    rng = np.random.default_rng(7)
    print("=== FIXAR accelerator: integer datapath and models ===")

    # The paper's HalfCheetah workload: 17-dim state, 6-dim action, 400/300
    # hidden units for both the actor and the critic.
    numerics = FixedPointNumerics()
    agent = DDPGAgent(17, 6, DDPGConfig(), numerics=numerics, rng=rng)
    actor_shapes, critic_shapes = agent.actor.layer_shapes, agent.critic.layer_shapes
    config = AcceleratorConfig()

    memory = memory_footprint_report(actor_shapes, critic_shapes, config)
    print(f"actor layers   : {actor_shapes}")
    print(f"critic layers  : {critic_shapes}")
    print(f"weight memory  : {memory['weight_bytes'] / 1024:.1f} KB used "
          f"of {memory['weight_memory_bytes'] / 1024:.1f} KB "
          f"({100 * memory['weight_memory_utilization']:.1f}%) — no external DRAM needed")
    print()

    # The integer datapath against the software network.  The host ships
    # fixed-point states, so the state goes onto the activation grid first.
    fmt = numerics.activation_format
    state = fmt.quantize(rng.normal(size=17))
    software = agent.actor.forward(state)[0]
    datapath = network_forward(agent.actor, state)[0]
    error = int(np.max(np.abs(fmt.to_raw(software) - fmt.to_raw(datapath))))
    print("actor forward on one state (software nn vs raw-code datapath):")
    print("  software :", np.round(software, 4))
    print("  datapath :", np.round(datapath, 4))
    print(f"  max error: {error} LSB of {fmt}")
    print()

    # Timing: one full DDPG training timestep (critic FP/BP/WU, actor
    # FP/BP/WU, actor inference) at each paper batch size.
    timing = TimingModel(config)
    print("Training-timestep cycle counts (full precision):")
    for batch in (64, 128, 256, 512):
        breakdown = timing.timestep_breakdown(actor_shapes, critic_shapes, batch)
        seconds = breakdown.seconds(config.clock_hz)
        utilization = timing.hardware_utilization(actor_shapes, critic_shapes, batch)
        print(
            f"  batch {batch:4d}: {breakdown.total_cycles:9d} cycles "
            f"= {seconds * 1e3:6.2f} ms -> {batch / seconds:8.0f} IPS, "
            f"utilization {100 * utilization:5.1f}%"
        )
    print()

    print("Phase breakdown at batch 256 (cycles):")
    for phase, cycles in timing.timestep_breakdown(actor_shapes, critic_shapes, 256).phases.items():
        print(f"  {phase:24s} {cycles:9d}")
    print()

    # The configurable datapath: after the QAT switch the PEs process two
    # 16-bit activations per cycle.
    full_ips = timing.accelerator_ips(actor_shapes, critic_shapes, 256)
    half_ips = timing.accelerator_ips(actor_shapes, critic_shapes, 256, half_precision=True)
    print(f"half-precision datapath: {full_ips:.0f} IPS -> {half_ips:.0f} IPS "
          f"({half_ips / full_ips:.2f}x) at batch 256")
    print()

    resources = ResourceModel(config)
    print(format_table(resources.table(), title="Table I — modelled FPGA resource usage (Alveo U50)"))
    print()

    # Power and efficiency of the half-precision datapath at batch 512.
    power = PowerModel(config)
    utilization = timing.hardware_utilization(actor_shapes, critic_shapes, 512, half_precision=True)
    breakdown = power.breakdown(utilization=utilization)
    print("Power model (half precision):")
    for key, value in breakdown.as_dict().items():
        print(f"  {key:18s} {value:6.2f} W")
    ips_512 = timing.accelerator_ips(actor_shapes, critic_shapes, 512, half_precision=True)
    print(f"  energy efficiency  {ips_512 / breakdown.total_watts:6.1f} IPS/W at batch 512")


if __name__ == "__main__":
    main()
