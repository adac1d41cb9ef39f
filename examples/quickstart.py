#!/usr/bin/env python3
"""Quickstart: train a FIXAR system at reduced scale and print its reports.

Builds the full FIXAR stack for the HalfCheetah benchmark — synthetic
environment on the "host CPU", a DDPG agent under the dynamic fixed-point
regime, the Algorithm 1 QAT controller, and the platform timing and FPGA
resource models — runs a short quantization-aware training run,
and prints the learning curve, the throughput/efficiency report, and the
Table I resource summary.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    FixarConfig,
    FixarSystem,
    format_breakdown,
    format_curve,
    format_series,
    format_table,
    smoke_test_config,
)


def main() -> None:
    # A reduced-scale configuration: every moving part of the paper's
    # pipeline, but small networks and a few thousand timesteps so the run
    # finishes in well under a minute.
    config = smoke_test_config(
        benchmark="HalfCheetah",
        total_timesteps=3_000,
        batch_size=32,
        hidden_sizes=(64, 48),
    )
    system = FixarSystem(config)

    print("=== FIXAR quickstart ===")
    print(f"benchmark            : {system.env.name}")
    print(f"state / action dims  : {system.env.state_dim} / {system.env.action_dim}")
    print(f"numeric regime       : {config.numeric_regime}")
    print(f"quantization delay   : {config.qat.quantization_delay} timesteps")
    print(f"accelerator          : {config.accelerator.num_cores} AAP cores, "
          f"{config.accelerator.geometry.rows}x{config.accelerator.geometry.cols} PEs each")
    print()

    print("Training with quantization-aware training (Algorithm 1)...")
    result = system.train()
    print(format_curve(result.curve.timesteps, result.curve.returns, label="reward curve"))
    if result.qat_event is not None:
        event = result.qat_event
        print(
            f"precision switch at t={event.timestep}: activations 32b -> {event.num_bits}b, "
            f"range [{event.activation_min:.2f}, {event.activation_max:.2f}], delta={event.delta:.5f}"
        )
    print()

    print("Platform throughput vs the CPU-GPU baseline (Fig. 8 style),")
    print(f"for this quickstart's reduced-size networks {config.ddpg.hidden_sizes}:")
    report = system.throughput_report()
    print(format_series(report.platform_ips, name="FIXAR platform IPS "))
    print(format_series(report.baseline_platform_ips, name="CPU-GPU platform IPS"))
    print(format_series(report.platform_speedups, name="speedup             ", precision=2))
    print()

    print("Single-timestep breakdown at batch 256 (Fig. 9 style):")
    print(format_breakdown(report.time_breakdowns[256]))
    print()

    # The paper's numbers use the full 400/300 networks; report those too so
    # the headline matches the evaluation section.
    paper_system = FixarSystem(FixarConfig(benchmark=config.benchmark))
    summary = paper_system.headline_summary()
    print("Headline summary for the paper-scale workload (400/300 hidden units):")
    for key, value in summary.items():
        print(f"  {key:32s} {value:10.1f}")
    print()

    print(format_table(system.resource_table(), title="Table I — FPGA resource usage (modelled)"))


if __name__ == "__main__":
    main()
