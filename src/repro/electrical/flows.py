"""Max-min fair fluid flow simulation (the SimGrid-equivalent core).

Flow-level ("fluid") network models replace per-packet events with rate
shares: at any instant, every active flow gets its max-min fair share of
each link it crosses; the simulation jumps from flow completion to flow
completion, recomputing shares in between. This is the same family of model
SimGrid's network layer uses, which is why it is a faithful substitute for
the paper's electrical baseline (DESIGN.md §5).

:func:`max_min_rates` implements classic progressive filling:

1. every unfrozen link's fair share is ``residual_capacity / unfrozen_flows``;
2. the link with the smallest share is the bottleneck; its flows are frozen
   at that rate;
3. residual capacities shrink accordingly (clamped at 0); repeat until all
   flows are frozen.

Tie-break contract: the bottleneck is the link with the lowest share and,
among links tied at that share, the one seen first when walking ``flows`` in
order and each flow's ``links`` in order. One link is frozen per pass, so
the rates are a deterministic function of the inputs, down to the last bit.
A lazy-deletion heap keyed ``(share, first-seen rank)`` finds the
bottleneck, and each pass recomputes only the links its frozen flows cross;
the full-rescan seed solver it replaced is kept bit-identical in
:mod:`repro.electrical._flows_reference` as the parity oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Flow:
    """One fluid flow.

    Attributes:
        flow_id: Caller-chosen identifier.
        links: Link ids the flow crosses.
        size: Total bytes to move.
        latency: Fixed delay added to the fluid finish time (router
            forwarding delays).
        remaining: Bytes still to move (mutated by the simulation).
        finish_time: Set when the flow completes.
    """

    flow_id: int
    links: tuple[int, ...]
    size: float
    latency: float = 0.0
    remaining: float = field(init=False)
    finish_time: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"flow size must be >= 0, got {self.size!r}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency!r}")
        if not self.links:
            raise ValueError("a flow needs at least one link")
        for link in self.links:
            if not isinstance(link, (int, np.integer)) or isinstance(link, bool):
                raise ValueError(
                    f"flow {self.flow_id!r}: link ids must be integers, got {link!r}"
                )
            if link < 0:
                raise ValueError(
                    f"flow {self.flow_id!r}: link ids must be >= 0, got {link!r}"
                )
        self.remaining = self.size


def max_min_rates(flows: list[Flow], capacities: list[float]) -> np.ndarray:
    """Max-min fair rates for ``flows`` over links with ``capacities``.

    Args:
        flows: Active flows (each with at least one link).
        capacities: Bytes/second per link id.

    Returns:
        Array of rates (bytes/second), one per flow, in input order.
    """
    n_flows = len(flows)
    if n_flows == 0:
        return np.zeros(0)
    capacity = np.asarray(capacities, dtype=float).tolist()
    # Loaded links are numbered by first-seen rank; everything below is
    # indexed by rank. members[r] lists each flow on link r once; ranks[i]
    # lists flow i's links as given (a link listed twice is charged twice),
    # distinct[i] once each (it counts as one flow on that link).
    rank_of: dict[int, int] = {}
    residual: list[float] = []
    members: list[list[int]] = []
    ranks: list[list[int]] = []
    distinct: list[list[int]] = []
    for i, flow in enumerate(flows):
        flow_ranks = []
        for link in flow.links:
            r = rank_of.get(link)
            if r is None:
                r = rank_of[link] = len(residual)
                residual.append(capacity[link])
                members.append([])
            if not members[r] or members[r][-1] != i:
                members[r].append(i)
            flow_ranks.append(r)
        ranks.append(flow_ranks)
        distinct.append(list(dict.fromkeys(flow_ranks)))
    n_links = len(residual)
    count = [len(m) for m in members]
    share_of = [residual[r] / count[r] for r in range(n_links)]
    # Lazy-deletion heap: an entry is live while its share is still the
    # link's current share and the link still carries unfrozen flows.
    heap = list(zip(share_of, range(n_links)))
    heapq.heapify(heap)
    rates = [0.0] * n_flows
    frozen = [False] * n_flows
    unfrozen = n_flows
    # The first pass clamps every link (capacities may be negative); later
    # passes only change the links their frozen flows cross. A link that
    # several of them cross is revisited harmlessly: its share is settled.
    touched = list(range(n_links))
    while unfrozen:
        while True:
            if not heap:
                raise AssertionError("unfrozen flows with no loaded links")
            share, r = heapq.heappop(heap)
            if count[r] and share == share_of[r]:
                break
        # The stored share, not the key: they compare equal but may differ
        # in the sign of a zero.
        share = share_of[r]
        for i in members[r]:
            if frozen[i]:
                continue
            frozen[i] = True
            rates[i] = share
            unfrozen -= 1
            for q in ranks[i]:
                residual[q] -= share
            for q in distinct[i]:
                count[q] -= 1
            touched.extend(distinct[i])
        for q in touched:
            # Numerical guard: residuals may go slightly negative from float
            # accumulation; clamp (to +0.0, as np.clip does) so later shares
            # stay non-negative.
            if residual[q] <= 0.0:
                residual[q] = 0.0
            if count[q]:
                new = residual[q] / count[q]
                if new != share_of[q]:
                    heapq.heappush(heap, (new, q))
                share_of[q] = new
        touched = []
    return np.array(rates)


class FluidSimulation:
    """Run a set of flows to completion under max-min fair sharing."""

    def __init__(self, capacities: list[float]) -> None:
        if not capacities:
            raise ValueError("need at least one link")
        if any(c <= 0 for c in capacities):
            raise ValueError("all link capacities must be positive")
        self.capacities = list(capacities)

    def run(self, flows: list[Flow]) -> float:
        """Advance all ``flows`` to completion.

        Returns:
            The time the last flow finishes, *including* per-flow fixed
            latencies. Each flow's :attr:`Flow.finish_time` is set.

        Raises:
            ValueError: if a flow crosses a link id outside the capacity
                table.
        """
        n_links = len(self.capacities)
        for f in flows:
            if max(f.links) >= n_links:
                raise ValueError(
                    f"flow {f.flow_id!r} crosses link {max(f.links)}, but the "
                    f"network has only {n_links} links"
                )
        clock = 0.0
        zero_flows = [f for f in flows if f.size == 0]
        for f in zero_flows:
            f.remaining = 0.0
            f.finish_time = f.latency
        active = [f for f in flows if f.size > 0]
        while active:
            rates = max_min_rates(active, self.capacities)
            if not np.all(rates > 0):
                raise AssertionError("max-min assigned a zero rate to an active flow")
            # Jump to the next completion.
            dt = min(f.remaining / r for f, r in zip(active, rates))
            clock += dt
            still_active = []
            for f, r in zip(active, rates):
                f.remaining -= r * dt
                if f.remaining <= 1e-9 * max(f.size, 1.0):
                    f.remaining = 0.0
                    f.finish_time = clock + f.latency
                else:
                    still_active.append(f)
            active = still_active
        return max((f.finish_time for f in flows), default=0.0)
