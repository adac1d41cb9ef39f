"""The FIXAR system: the paper's contribution assembled end to end.

:class:`FixarSystem` wires together everything the platform needs for one
benchmark: the environment (host CPU side), the DDPG agent under a numeric
regime, the run's precision driver (Algorithm 1's QAT controller unless the
training config names another policy), and the platform / baseline timing
models with the accelerator's resource model.  On top of that it provides
the experiment drivers used by the benchmark harness:

* :meth:`train` — run quantization-aware training and return the learning
  curve (Fig. 7);
* :meth:`throughput_report` — platform and accelerator throughput, time
  breakdowns, and the CPU-GPU baseline (Figs. 8–10);
* :meth:`headline_summary` — the abstract's headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accelerator import ResourceModel
from ..envs import make as make_env
from ..nn import DynamicFixedPointNumerics, make_numerics
from ..platform import (
    PAPER_BATCH_SIZES,
    AcceleratorPool,
    CoSimulationResult,
    CpuGpuPlatform,
    FixarPlatform,
    PlatformCoSimulation,
    WorkloadSpec,
    average_ips,
    speedup,
)
from ..rl import (
    DDPGAgent,
    QATController,
    QATSchedule,
    TrainingResult,
    resolve_precision,
    train,
)
from .comparison import comparison_table, fixar_entry
from .config import FixarConfig

__all__ = ["FixarSystem", "ThroughputReport", "run_precision_driver"]


def run_precision_driver(
    numerics, schedule: QATSchedule, policy: Optional[str], spec: Optional[str]
):
    """The precision driver of a configured run (``None`` off the dynamic regime).

    ``policy`` / ``spec`` are ``TrainingConfig.precision`` /
    ``.precision_spec``.  The global switch without a spec runs the run's own
    ``schedule`` (``FixarConfig.qat``) whether the policy is named or left
    unset — both spell the same driver; an explicit spec, or another policy,
    resolves through the registry.
    """
    if not isinstance(numerics, DynamicFixedPointNumerics):
        return None
    if policy in (None, QATController.name) and spec is None:
        return QATController(numerics, schedule)
    return resolve_precision(policy, numerics, spec)


@dataclass
class ThroughputReport:
    """Throughput and efficiency of FIXAR vs the CPU-GPU baseline."""

    benchmark: str
    batch_sizes: List[int]
    platform_ips: Dict[int, float] = field(default_factory=dict)
    baseline_platform_ips: Dict[int, float] = field(default_factory=dict)
    accelerator_ips: Dict[int, float] = field(default_factory=dict)
    gpu_accelerator_ips: Dict[int, float] = field(default_factory=dict)
    accelerator_ips_per_watt: Dict[int, float] = field(default_factory=dict)
    gpu_ips_per_watt: Dict[int, float] = field(default_factory=dict)
    time_breakdowns: Dict[int, Dict[str, float]] = field(default_factory=dict)
    time_ratios: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def platform_speedups(self) -> Dict[int, float]:
        """FIXAR platform speedup over the CPU-GPU platform per batch size."""
        return {
            batch: speedup(self.platform_ips[batch], self.baseline_platform_ips[batch])
            for batch in self.batch_sizes
        }

    @property
    def accelerator_speedups(self) -> Dict[int, float]:
        """FIXAR accelerator speedup over the GPU per batch size."""
        return {
            batch: speedup(self.accelerator_ips[batch], self.gpu_accelerator_ips[batch])
            for batch in self.batch_sizes
        }

    def summary(self) -> Dict[str, float]:
        """Aggregate numbers in the style of the paper's abstract."""
        mean_platform = average_ips(list(self.platform_ips.values()))
        mean_accelerator = average_ips(list(self.accelerator_ips.values()))
        mean_efficiency = average_ips(list(self.accelerator_ips_per_watt.values()))
        mean_platform_speedup = float(np.mean(list(self.platform_speedups.values())))
        mean_accelerator_speedup = float(np.mean(list(self.accelerator_speedups.values())))
        mean_gpu_efficiency = average_ips(list(self.gpu_ips_per_watt.values()))
        return {
            "platform_ips": mean_platform,
            "accelerator_ips": mean_accelerator,
            "accelerator_ips_per_watt": mean_efficiency,
            "platform_speedup_vs_cpu_gpu": mean_platform_speedup,
            "accelerator_speedup_vs_gpu": mean_accelerator_speedup,
            "efficiency_gain_vs_gpu": mean_efficiency / mean_gpu_efficiency,
        }


class FixarSystem:
    """A complete FIXAR platform instance for one benchmark.

    Holds the environments, the agent with its numerics and precision
    driver, and the modelled hardware: :attr:`platform` (a
    :class:`~repro.platform.FixarPlatform` over the configured accelerator),
    the CPU-GPU :attr:`baseline` and the :attr:`resources` model.  The
    accelerator appears only through these models; its integer datapath is
    :mod:`repro.accelerator.datapath`, which needs no system.
    """

    def __init__(self, config: Optional[FixarConfig] = None):
        self.config = config or FixarConfig()
        rng = np.random.default_rng(self.config.seed)

        # Host side: the environment the CPU emulates.
        self.env = make_env(self.config.benchmark, seed=self.config.seed)
        self.eval_env = make_env(self.config.benchmark, seed=None if self.config.seed is None else self.config.seed + 1)

        # Numeric regime and agent.
        self.numerics = make_numerics(self.config.numeric_regime, num_bits=self.config.qat.num_bits)
        self.agent = DDPGAgent(
            self.env.state_dim,
            self.env.action_dim,
            config=self.config.ddpg,
            numerics=self.numerics,
            rng=rng,
        )

        # The run's precision driver (only meaningful for the dynamic
        # regime): Algorithm 1 on ``config.qat`` unless ``training.precision``
        # names another policy or spec.  Resolved here, once, so a malformed
        # spec fails at construction and train()/cosimulate() share it.
        self.qat_controller = run_precision_driver(
            self.numerics,
            self.config.qat,
            self.config.training.precision,
            self.config.training.precision_spec,
        )

        # Platform timing models.
        self.workload = WorkloadSpec(
            benchmark=self.env.name,
            state_dim=self.env.state_dim,
            action_dim=self.env.action_dim,
            hidden_sizes=tuple(self.config.ddpg.hidden_sizes),
        )
        self.platform = FixarPlatform(self.workload, self.config.accelerator)
        self.baseline = CpuGpuPlatform()
        self.resources = ResourceModel(self.config.accelerator)

    # ------------------------------------------------------------------ #
    # Training (Fig. 7)
    # ------------------------------------------------------------------ #
    def train(
        self, label: Optional[str] = None, profiler=None
    ) -> TrainingResult:
        """Run quantization-aware DDPG training for this system's regime.

        Afterwards :attr:`platform` is the platform priced under the precision
        driver's final state (``with_precision_state``), so timing queries
        reflect the layers the run switched to 16 bits; the platform the run
        started with is a separate object and is not modified.

        With ``config.training.devices > 1`` the run is priced on an
        :class:`~repro.platform.AcceleratorPool` built over this system's
        platform: the rollout engine's batched inferences shard across the
        pool's collection devices (the training numerics are unchanged —
        only the modelled platform accounting differs).

        ``profiler`` optionally attaches a
        :class:`~repro.rl.StageTimers` accumulator to the collection hot
        path (the CLI's ``--profile``); the trajectories are unaffected.
        """
        platform_hook = None
        if self.config.training.devices > 1:
            platform_hook = AcceleratorPool(
                self.platform, self.config.training.devices
            )
        training = self.config.training
        if self.qat_controller is not None:
            # train() takes the driver as the explicit object and rejects a
            # config that names one as well.
            training = replace(training, precision=None, precision_spec=None)
        result = train(
            self.env,
            self.agent,
            training,
            eval_env=self.eval_env,
            qat_controller=self.qat_controller,
            label=label or self.config.numeric_regime,
            platform=platform_hook,
            profiler=profiler,
        )
        if self.qat_controller is not None:
            self.platform = self.platform.with_precision_state(
                self.qat_controller.precision_state()
            )
        return result

    def cosimulate(self) -> CoSimulationResult:
        """Run a trace-driven co-simulation of this system's training config.

        Every real timestep of the (reduced-scale) training loop is priced
        with the platform timing models, including the effect of the QAT
        precision switch on the accelerator time; the same trace is priced on
        the CPU-GPU baseline for comparison.
        """
        cosim = PlatformCoSimulation(
            self.env,
            self.agent,
            self.platform,
            self.config.training,
            qat_controller=self.qat_controller,
            baseline=self.baseline,
        )
        return cosim.run()

    # ------------------------------------------------------------------ #
    # Throughput and efficiency (Figs. 8–10)
    # ------------------------------------------------------------------ #
    def throughput_report(self, batch_sizes: Sequence[int] = PAPER_BATCH_SIZES) -> ThroughputReport:
        """Platform / accelerator throughput and efficiency vs the baseline."""
        report = ThroughputReport(benchmark=self.env.name, batch_sizes=list(batch_sizes))
        for batch in batch_sizes:
            report.platform_ips[batch] = self.platform.platform_ips(batch)
            report.baseline_platform_ips[batch] = self.baseline.ips(self.env.name, batch)
            report.accelerator_ips[batch] = self.platform.accelerator_ips(batch)
            report.gpu_accelerator_ips[batch] = self.baseline.gpu.ips(batch)
            report.accelerator_ips_per_watt[batch] = self.platform.accelerator_ips_per_watt(batch)
            report.gpu_ips_per_watt[batch] = self.baseline.gpu.ips_per_watt(batch)
            report.time_breakdowns[batch] = self.platform.timestep_breakdown(batch)
            report.time_ratios[batch] = self.platform.timestep_ratio(batch)
        return report

    def resource_table(self) -> List[Dict[str, object]]:
        """Table I for the configured accelerator."""
        return self.resources.table()

    def comparison_table(self) -> List[Dict[str, object]]:
        """Table II using this accelerator's modelled peak performance."""
        peak_ips = max(
            self.platform.accelerator_ips(batch) for batch in PAPER_BATCH_SIZES
        )
        efficiency = max(
            self.platform.accelerator_ips_per_watt(batch) for batch in PAPER_BATCH_SIZES
        )
        dsp = self.resources.total().dsp
        entry = fixar_entry(
            peak_ips=peak_ips,
            energy_efficiency=efficiency,
            dsp_count=dsp,
            clock_mhz=self.config.accelerator.clock_hz / 1e6,
        )
        return comparison_table(entry)

    def headline_summary(self, batch_sizes: Sequence[int] = PAPER_BATCH_SIZES) -> Dict[str, float]:
        """The abstract's headline numbers for this benchmark."""
        return self.throughput_report(batch_sizes).summary()
