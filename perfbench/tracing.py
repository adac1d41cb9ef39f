"""Span tracing of the program's layers, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`tracing` wraps the
layers' public callables (class attributes, and module functions wherever
they were imported by name), and every wrapped call becomes one span.  Spans
nest through a parent stack, so a span's **self time** is its duration minus
the time its child spans cover, and the self times of all spans add up to
the traced part of the wall clock.

Per ``(span, parent)`` edge the tracer keeps calls, total and child time in
memory; the composite spans additionally keep every raw duration.  Nothing is
written while the program runs.  The wrappers only read a clock, so a traced
run computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(span, "module:Class.attribute")`` — the class and every subclass that
#: overrides the attribute — or ``"module:function"`` for a module function.
#: Several callables may feed one span.  Layers are this repository's
#: modules; the prefix of a span names its layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("fixedpoint.quantize", "repro.fixedpoint.qformat:QFormat.quantize"),
    ("fixedpoint.affine_apply", "repro.fixedpoint.quantizer:AffineQuantizer.apply"),
    ("fixedpoint.range_update", "repro.fixedpoint.quantizer:RangeTracker.update"),
    ("nn.forward", "repro.nn.network:MLP.forward"),
    ("nn.backward", "repro.nn.network:MLP.backward"),
    ("nn.optim_step", "repro.nn.optim:Optimizer.step"),
    ("nn.soft_update", "repro.nn.network:MLP.soft_update_from"),
    ("nn.project_weight", "repro.nn.numerics:Numerics.project_weight"),
    ("nn.project_activation", "repro.nn.numerics:Numerics.project_activation"),
    ("nn.project_gradient", "repro.nn.numerics:Numerics.project_gradient"),
    ("nn.observe_activation", "repro.nn.numerics:Numerics.observe_activation"),
    ("ddpg.update", "repro.rl.ddpg:DDPGAgent.update"),
    ("ddpg.act", "repro.rl.ddpg:DDPGAgent.act"),
    ("ddpg.act_batch", "repro.rl.ddpg:DDPGAgent.act_batch"),
    ("evaluation.evaluate_policy", "repro.rl.evaluation:evaluate_policy"),
    ("replay.add", "repro.rl.replay_buffer:ReplayBuffer.add"),
    ("replay.add", "repro.rl.replay_buffer:ReplayBuffer.add_batch"),
    ("replay.add", "repro.rl.replay_buffer:ReplayBuffer.add_batch_trusted"),
    ("replay.sample", "repro.rl.replay_buffer:ReplayBuffer.sample"),
    ("rollout.step", "repro.rl.rollout:RolloutEngine.step"),
    ("rollout.collect", "repro.rl.rollout:RolloutEngine.collect"),
    ("workers.step_sync", "repro.rl.workers:AsyncCollector.step_sync"),
    ("workers.drain", "repro.rl.workers:AsyncCollector.drain"),
    ("workers.broadcast_weights", "repro.rl.workers:AsyncCollector.broadcast_weights"),
    ("workers.act_batch", "repro.rl.workers:ActorPolicy.act_batch"),
    ("scheduler.run", "repro.rl.scheduler:RoundScheduler.run"),
    ("precision.on_timestep", "repro.rl.qat:QATController.on_timestep"),
    ("precision.on_timestep", "repro.rl.precision:PrecisionPolicy.on_timestep"),
    ("envs.vector_step", "repro.envs.vector:VectorEnv.step"),
    ("envs.scalar_step", "repro.envs.base:Environment.step"),
    ("envs.reset", "repro.envs.base:Environment.reset"),
    ("envs.reset", "repro.envs.vector:VectorEnv.reset"),
    *(
        (span, f"repro.platform.{module}.{method}")
        for module in ("fixar_platform:FixarPlatform", "pool:AcceleratorPool")
        for span, method in (
            ("platform.infer_batch", "infer_batch"),
            ("platform.serving_round_seconds", "serving_round_seconds"),
            ("platform.with_precision_state", "with_precision_state"),
            ("platform.fleet_oracles", "infer_fleet"),
            ("platform.fleet_oracles", "fleet_collection_round_seconds"),
            ("platform.fleet_oracles", "fleet_collection_steps_per_second"),
            ("platform.fleet_oracles", "fleet_sequential_round_seconds"),
            ("platform.fleet_oracles", "fleet_pipelined_round_seconds"),
            ("platform.fleet_oracles", "fleet_training_steps_per_second"),
            ("platform.fleet_oracles", "fleet_pipelined_speedup"),
        )
    ),
    ("serving.generate", "repro.serving.load:SyntheticLoadGenerator.generate"),
    ("serving.enqueue", "repro.serving.request_queue:RequestQueue.enqueue"),
    ("serving.enqueue", "repro.serving.request_queue:RequestQueue.enqueue_many"),
    ("serving.pop_batch", "repro.serving.request_queue:RequestQueue.pop_batch"),
    ("serving.drain_next", "repro.serving.batcher:DynamicBatcher.drain"),
    ("serving.serve", "repro.serving.server:PolicyServer.serve"),
    ("checkpoint.save_agent", "repro.rl.checkpoint:save_agent"),
    ("checkpoint.restore", "repro.serving.server:restore_serving_agent"),
    ("core.system_init", "repro.core.fixar:FixarSystem.__init__"),
    ("cli.main", "repro.cli:main"),
)

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(span for span, _target in TARGETS))

#: Spans that contain most of a workload; their raw durations are kept and
#: they also report ``total_s``.
COMPOSITES = (
    "ddpg.update",
    "evaluation.evaluate_policy",
    "rollout.step",
    "serving.serve",
)

#: ``drain`` is a generator: each ``next()`` that yields a flush is one span.
GENERATORS = ("serving.drain_next",)

#: Work units per call, where one call is not one unit of work.
WORK: Dict[str, Callable[..., int]] = {
    "envs.vector_step": lambda env, *_args, **_kwargs: env.num_envs,
}

#: ``(name, unit, better)`` of the metrics derived from several spans.
DERIVED = (
    ("nn.project_weight_per_optim_step", "ratio", "lower"),
    ("evaluation.forwards_per_env_step", "ratio", "lower"),
    ("serving.flushes", "count", "lower"),
    ("serving.mean_batch_size", "count", "higher"),
    ("platform.prices_per_flush", "ratio", "lower"),
    ("fixedpoint.self_share", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: An edge is ``[calls, total_ns, child_ns, work]`` keyed ``(span, parent)``;
#: the parent of a root span is ``""``.
Edges = Dict[Tuple[str, str], List[int]]


def layer_metric_table() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    table: List[Tuple[str, str, str]] = []
    for span in SPANS:
        table.append((f"{span}.calls", "count", "lower"))
        table.append((f"{span}.self_s", "s", "lower"))
        if span in COMPOSITES:
            table.append((f"{span}.total_s", "s", "lower"))
    table.extend(DERIVED)
    return table


class Tracer:
    """The parent stack and the per-edge aggregates of one traced region."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self.edges: Edges = {}
        self.durations: Dict[str, List[int]] = {span: [] for span in COMPOSITES}
        #: Targets that no longer exist in the program (renamed or removed).
        self.missing: List[str] = []

    def take(self) -> Tuple[Edges, Dict[str, List[int]]]:
        """Hand over and reset what was recorded since the last call."""
        if self._stack:
            raise RuntimeError(f"take() inside open span {self._stack[-1][0]!r}")
        edges, durations = self.edges, self.durations
        self.edges = {}
        self.durations = {span: [] for span in COMPOSITES}
        return edges, durations

    def _open(self, span: str) -> list:
        frame = [span, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: int, work: int) -> None:
        stack = self._stack
        stack.pop()
        span = frame[0]
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            key = (span, parent[0])
        else:
            key = (span, "")
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0, 0, 0]
        edge[0] += 1
        edge[1] += elapsed
        edge[2] += frame[1]
        edge[3] += work
        raw = self.durations.get(span)
        if raw is not None:
            raw.append(elapsed)

    def wrap(self, span: str, func: Callable) -> Callable:
        """``func`` with every call (or yielded item) recorded as ``span``."""
        open_span, close_span, clock = self._open, self._close, perf_counter_ns
        work = WORK.get(span)

        if span in GENERATORS:

            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                iterator = func(*args, **kwargs)
                while True:
                    frame = open_span(span)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        # The exhausting call did no flush: not a span.  What
                        # its children took still belongs to the caller's
                        # child time, or it would be counted twice.
                        self._stack.pop()
                        if self._stack:
                            self._stack[-1][1] += frame[1]
                        return
                    except BaseException:
                        close_span(frame, clock() - start, 1)
                        raise
                    close_span(frame, clock() - start, 1)
                    yield item

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = open_span(span)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                close_span(
                    frame,
                    clock() - start,
                    1 if work is None else work(*args, **kwargs),
                )

        return wrapper


def _subclasses(cls: type) -> List[type]:
    found = []
    for subclass in cls.__subclasses__():
        found.append(subclass)
        found.extend(_subclasses(subclass))
    return found


def _holders(target: str) -> List[Tuple[object, str, Callable]]:
    """``(holder, attribute, original)`` for every binding of one target.

    A class target covers the class and each loaded subclass that overrides
    the attribute, so an override added later is traced without an edit
    here.  A module function is also bound wherever it was imported by name.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attribute = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None:
            return []
        return [
            (cls, attribute, vars(cls)[attribute])
            for cls in dict.fromkeys([owner, *_subclasses(owner)])
            if attribute in vars(cls)
        ]
    original = getattr(module, attribute, None)
    if original is None:
        return []
    return [
        (candidate, attribute, original)
        for name, candidate in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(candidate, attribute, None) is original
    ]


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the span wrappers; restore every original on exit.

    Install before building the objects of a workload: an agent binds
    ``numerics.project_weight`` when it is constructed.
    """
    tracer = Tracer()
    undo = []
    try:
        for span, target in TARGETS:
            holders = _holders(target)
            if not holders:
                tracer.missing.append(target)
            for holder, attribute, original in holders:
                setattr(holder, attribute, tracer.wrap(span, original))
                undo.append((holder, attribute, original))
        yield tracer
    finally:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)


def span_sums(edges: Edges) -> Dict[str, List[int]]:
    """``span -> [calls, total_ns, self_ns, work]`` summed over its parents."""
    sums: Dict[str, List[int]] = {}
    for (span, _parent), (calls, total, child, work) in edges.items():
        entry = sums.setdefault(span, [0, 0, 0, 0])
        entry[0] += calls
        entry[1] += total
        entry[2] += total - child
        entry[3] += work
    return sums


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _under(edges: Edges, parent: str, spans: Sequence[str], field: int) -> int:
    return sum(edges.get((span, parent), (0, 0, 0, 0))[field] for span in spans)


def layer_metrics(
    units: Sequence[Edges],
    traced_walls: Sequence[float],
    plain_walls: Sequence[float],
    ops: Sequence[int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``units`` holds the edges of each traced unit of work, ``traced_walls``
    and ``plain_walls`` the wall seconds of each unit traced and untraced,
    ``ops`` the operations each unit attempted.  Counts are those of the
    first unit, which repeat exactly for a fixed seed; times are the median
    over the units.
    """
    sums = [span_sums(edges) for edges in units]
    first, first_edges = sums[0], units[0]

    def calls(span: str) -> int:
        return first.get(span, (0, 0, 0, 0))[0]

    def median_seconds(span: str, field: int) -> float:
        return statistics.median(
            unit.get(span, (0, 0, 0, 0))[field] for unit in sums
        ) / 1e9

    metrics: Dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = median_seconds(span, 2)
        if span in COMPOSITES:
            metrics[f"{span}.total_s"] = median_seconds(span, 1)

    evaluation = "evaluation.evaluate_policy"
    flushes = calls("serving.drain_next")
    metrics["nn.project_weight_per_optim_step"] = _ratio(
        calls("nn.project_weight"), calls("nn.optim_step")
    )
    metrics["evaluation.forwards_per_env_step"] = _ratio(
        _under(first_edges, evaluation, ("ddpg.act", "ddpg.act_batch"), 0),
        _under(first_edges, evaluation, ("envs.scalar_step", "envs.vector_step"), 3),
    )
    metrics["serving.flushes"] = flushes
    metrics["serving.mean_batch_size"] = _ratio(ops[0] if flushes else 0, flushes)
    metrics["platform.prices_per_flush"] = _ratio(
        _under(
            first_edges,
            "serving.drain_next",
            ("platform.infer_batch", "platform.serving_round_seconds"),
            0,
        ),
        flushes,
    )
    self_seconds = [
        sum(entry[2] for entry in unit.values()) / 1e9 for unit in sums
    ]
    fixedpoint_seconds = [
        sum(
            entry[2] for span, entry in unit.items() if span.startswith("fixedpoint.")
        )
        / 1e9
        for unit in sums
    ]
    metrics["fixedpoint.self_share"] = statistics.median(
        _ratio(part, wall) for part, wall in zip(fixedpoint_seconds, traced_walls)
    )
    metrics["trace.coverage"] = statistics.median(
        _ratio(part, wall) for part, wall in zip(self_seconds, traced_walls)
    )
    metrics["trace.overhead_ratio"] = _ratio(
        statistics.median(traced_walls), statistics.median(plain_walls)
    )
    return metrics


def duration_summary(raw_ns: Sequence[int]) -> Optional[Dict[str, float]]:
    """Median and the highest percentile with ten samples beyond it."""
    if not raw_ns:
        return None
    ordered = sorted(raw_ns)
    count = len(ordered)
    summary = {
        "count": count,
        "p50_s": statistics.median(ordered) / 1e9,
        "max_s": ordered[-1] / 1e9,
    }
    for label, fraction in (("p99.9_s", 0.999), ("p99_s", 0.99), ("p90_s", 0.9)):
        if count - int(fraction * count) > 10:
            summary[label] = ordered[int(fraction * count)] / 1e9
            break
    return summary
