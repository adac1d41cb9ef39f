"""Timeout-or-full dynamic batching as a deterministic event simulation.

The batcher coalesces queued requests into accelerator flushes: a batch
opens when the server frees up and the head request has arrived, admits
later arrivals until either the batch cap is hit (*full* flush, priced
immediately) or the flush timeout measured from the head request's arrival
expires (*timeout* flush), and each flush is priced as **one**
``infer_batch`` pass — N states ride a single PCIe round trip and one
amortised forward pass, the marginal-request economics
``FixarPlatform.infer_batch`` already models.  Time is entirely modelled:
the simulation advances a server-free clock from flush to flush, so the
same queue contents always produce the same flush plan.

The default timeout is derived from the latency SLO: ``slo_seconds`` minus
the cap-sized flush's service time, i.e. the longest the head request can
wait and still complete inside its SLO when its flush fills to the cap.
With ``batch_cap=1`` every flush is a singleton priced the moment the
server and the request are both ready — bit-exact with a sequential
``infer_batch(1)`` loop, the equivalence the property suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .request_queue import InferenceRequest, RequestQueue

__all__ = ["BatchFlush", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchFlush:
    """One priced flush: which requests rode it and what it cost.

    Carries only plain tuples and floats, so whole flush plans (and the
    :class:`~repro.serving.server.ServingReport` built from them) compare
    with ``==`` — the exact-equality determinism tests rely on that.
    """

    request_ids: Tuple[int, ...]
    arrival_seconds: Tuple[float, ...]
    flush_seconds: float
    service_seconds: float
    completion_seconds: float
    pcie_bytes: int
    energy_joules: float

    @property
    def batch_size(self) -> int:
        return len(self.request_ids)

    @property
    def latencies(self) -> Tuple[float, ...]:
        """Modelled arrival-to-completion latency of each rider."""
        return tuple(
            self.completion_seconds - arrival for arrival in self.arrival_seconds
        )


class DynamicBatcher:
    """Coalesces a request queue into SLO-bounded accelerator flushes.

    ``platform`` is any object with the serving oracle surface —
    ``serving_round_seconds`` and ``infer_batch`` — so a single
    :class:`~repro.platform.FixarPlatform` and a sharding
    :class:`~repro.platform.AcceleratorPool` are interchangeable here,
    exactly like at the rollout engine's pricing joint.
    """

    def __init__(
        self,
        platform,
        batch_cap: int,
        slo_seconds: float,
        timeout_seconds=None,
    ):
        if batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {batch_cap}")
        if slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
        self.platform = platform
        self.batch_cap = int(batch_cap)
        self.slo_seconds = float(slo_seconds)
        if timeout_seconds is None:
            timeout_seconds = max(
                0.0,
                self.slo_seconds - platform.serving_round_seconds(self.batch_cap),
            )
        if timeout_seconds < 0:
            raise ValueError(
                f"timeout_seconds must be non-negative, got {timeout_seconds}"
            )
        self.timeout_seconds = float(timeout_seconds)

    def drain(
        self, queue: RequestQueue
    ) -> Iterator[Tuple[List[InferenceRequest], BatchFlush]]:
        """Drain the queue into priced flushes, FIFO within and across.

        Yields ``(requests, flush)`` pairs in service order.  The event
        loop per flush: the batch opens at ``max(server free,
        head arrival)``; requests already waiting (or arriving before the
        head's ``arrival + timeout`` deadline) join until the cap; a full
        batch flushes as soon as its last rider and the server are both
        ready, a partial one at the deadline (or at open time when the
        backlog already blew past it).
        """
        free_at = 0.0
        while True:
            head_batch = queue.pop_batch(1)
            if not head_batch:
                return
            head = head_batch[0]
            open_seconds = max(free_at, head.arrival_seconds)
            deadline = head.arrival_seconds + self.timeout_seconds
            join_by = max(open_seconds, deadline)
            batch = [head]
            while len(batch) < self.batch_cap:
                candidate = queue.peek()
                if candidate is None or candidate.arrival_seconds > join_by:
                    break
                batch.extend(queue.pop_batch(1))
            if len(batch) == self.batch_cap:
                flush_at = max(open_seconds, batch[-1].arrival_seconds)
            else:
                flush_at = join_by
            report = self.platform.infer_batch(len(batch))
            service = report.total_seconds
            completion = flush_at + service
            flush = BatchFlush(
                request_ids=tuple(request.request_id for request in batch),
                arrival_seconds=tuple(
                    request.arrival_seconds for request in batch
                ),
                flush_seconds=flush_at,
                service_seconds=service,
                completion_seconds=completion,
                pcie_bytes=report.pcie_bytes,
                energy_joules=report.energy_joules,
            )
            free_at = completion
            yield batch, flush

    def plan(self, queue: RequestQueue) -> List[BatchFlush]:
        """The full flush plan of a queue (drains it), without the requests."""
        return [flush for _batch, flush in self.drain(queue)]
