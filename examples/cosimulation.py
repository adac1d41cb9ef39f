#!/usr/bin/env python3
"""Trace-driven co-simulation of a real QAT training run.

Instead of asking the analytic models "how fast would a timestep be", an
actual reduced-scale QAT training run is executed and every timestep is
priced with the platform timing models (host environment, PCIe runtime,
FPGA accelerator, including the effect of the precision switch).  The same
trace is priced on the CPU-GPU baseline, giving an end-to-end simulated
speedup for a *real* run.

Run:
    python examples/cosimulation.py [--timesteps 2000]
"""

from __future__ import annotations

import argparse

from repro.core import FixarSystem, smoke_test_config


def run_cosimulation(timesteps: int) -> None:
    print("--- trace-driven co-simulation (DDPG + QAT on HalfCheetah) ---")
    config = smoke_test_config(
        "HalfCheetah", total_timesteps=timesteps, batch_size=64, hidden_sizes=(64, 48)
    )
    system = FixarSystem(config)
    result = system.cosimulate()

    print(f"timesteps simulated        : {result.timesteps}")
    print(f"training updates           : {result.training_updates}")
    print(f"precision switch at        : t={result.precision_switch_timestep}")
    print(f"simulated platform time    : {result.simulated_seconds:.3f} s "
          f"(wall clock {result.wall_clock_seconds:.1f} s)")
    for component, seconds in result.component_seconds.items():
        share = 100.0 * seconds / result.simulated_seconds
        print(f"  {component:16s} {seconds:8.3f} s  ({share:4.1f}%)")
    print(f"simulated platform IPS     : {result.platform_ips:10.1f}")
    print(f"CPU-GPU baseline IPS       : {result.baseline_ips:10.1f}")
    print(f"end-to-end speedup         : {result.speedup_vs_baseline:10.2f}x")
    if result.episode_returns:
        print(f"last episode return        : {result.episode_returns[-1]:10.1f}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timesteps", type=int, default=2_000)
    args = parser.parse_args()
    run_cosimulation(args.timesteps)


if __name__ == "__main__":
    main()
