"""Seeded inputs: a family of small request-ack PIMs and schemes.

The sweep and daemon workloads need a *large* space of small models so
that a verdict cache cannot answer everything after a few requests.
This module draws that space from a :class:`random.Random` seeded by
the run's ``--seed``: PIM timing constants (processing time, deadline,
think time) and scheme parameters (buffer size, period, WCET, read
policy, I/O delays).

The factories are plain module-level functions taking keyword
arguments, so the ``repro serve`` daemon can also resolve them by
reference (``perfbench.models:build_pim``) for ``monitor`` requests.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from repro.core.pim import PIM
from repro.core.scheme import (
    DeliveryMechanism,
    ImplementationScheme,
    InputSpec,
    InvocationKind,
    InvocationSpec,
    IOSpec,
    OutputSpec,
    ReadMechanism,
    ReadPolicy,
    SignalType,
)
from repro.ta.builder import NetworkBuilder

INPUT, OUTPUT = "m_Req", "c_Ack"


def build_pim(*, prime: int = 3, deadline: int = 12,
              think: int = 20) -> PIM:
    """A one-input/one-output request-ack PIM.

    ``M`` answers a request after ``prime`` to ``deadline`` ms; the
    environment issues the next request ``think`` ms after the answer.
    """
    net = NetworkBuilder("req_ack", constants={
        "PRIME": prime, "DEADLINE": deadline, "THINK": think})
    net.channel(INPUT)
    net.channel(OUTPUT)
    m = net.automaton("M", clocks=["x"])
    m.location("Idle", initial=True)
    m.location("Busy", invariant="x <= DEADLINE")
    m.edge("Idle", "Busy", sync=f"{INPUT}?", update="x = 0")
    m.edge("Busy", "Idle", guard="x >= PRIME", sync=f"{OUTPUT}!",
           update="x = 0")
    env = net.automaton("ENV", clocks=["ex"])
    env.location("Rest", initial=True)
    env.location("Wait")
    env.edge("Rest", "Wait", guard="ex >= THINK", sync=f"{INPUT}!",
             update="ex = 0")
    env.edge("Wait", "Rest", sync=f"{OUTPUT}?", update="ex = 0")
    return PIM(network=net.build(), controller="M", environment="ENV")


def build_scheme(*, buffer_size: int = 2, period: int = 5,
                 wcet: int = 1, read_policy: str = "read-all",
                 delay_max: int = 2) -> ImplementationScheme:
    """An interrupt-driven, periodically invoked, buffered scheme."""
    return ImplementationScheme(
        name="req-ack",
        inputs={INPUT: InputSpec(
            signal=SignalType.PULSE, mechanism=ReadMechanism.INTERRUPT,
            delay_min=1, delay_max=delay_max)},
        outputs={OUTPUT: OutputSpec(
            mechanism=ReadMechanism.INTERRUPT, delay_min=1,
            delay_max=delay_max)},
        io_inputs={INPUT: IOSpec(
            delivery=DeliveryMechanism.BUFFER, buffer_size=buffer_size,
            read_policy=ReadPolicy(read_policy))},
        io_outputs={OUTPUT: IOSpec(
            delivery=DeliveryMechanism.BUFFER, buffer_size=buffer_size)},
        invocation=InvocationSpec(kind=InvocationKind.PERIODIC,
                                  period=period, bcet=0, wcet=wcet),
    ).validate()


#: The PIM and scheme parameters that set a small PSM's cost.
PIM_AXES = {"prime": range(2, 6), "slack": range(4, 11)}
SCHEME_AXES = {"period": range(4, 10), "wcet": (1, 2),
               "read_policy": ("read-all", "read-one"),
               "delay_max": (2, 3)}
#: Buffer sizes of the siblings drawn for every base scheme.
BUFFER_SIZES = (1, 2, 3)
#: Requests in one simulated request-ack trace.
TRACE_REQUESTS = 4


class _Strata:
    """Every combination of some axes, in a seeded order, reshuffled
    each time it runs out."""

    def __init__(self, rng: random.Random, axes: dict):
        self.rng, self.axes = rng, axes
        self._left: list[dict] = []

    def next(self) -> dict:
        if not self._left:
            self._left = [dict(zip(self.axes, combo)) for combo in
                          itertools.product(*self.axes.values())]
            self.rng.shuffle(self._left)
        return self._left.pop()


class GridDrawer:
    """Seeded sweeps over the small-model space.

    The parameters that set a model's cost are *stratified*: PIM
    timing (28 combinations) and base schemes (48) each walk through
    every combination in a seeded order before any repeats, so every
    seed draws the same mix of cheap and costly models; the PIM think
    time (21 values) is drawn freely.  That keeps the work per run
    level across seeds while the space stays far larger than any
    verdict cache warmed during one run.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._pims = _Strata(rng, PIM_AXES)
        self._bases = _Strata(rng, SCHEME_AXES)

    def pim_params(self) -> dict:
        timing = self._pims.next()
        return {"prime": timing["prime"],
                "deadline": timing["prime"] + timing["slack"],
                "think": self.rng.randint(10, 30)}

    def scheme_params(self) -> dict:
        return self._bases.next()

    def grid(self, *, bases: int = 2) -> tuple[dict, list[dict]]:
        """One sweep: PIM parameters and ``bases`` x
        :data:`BUFFER_SIZES` schemes.  The verdict memo answers the
        buffer-size siblings whose capacity is inert, so the draw sets
        the share of rows the memo serves."""
        pim_params = self.pim_params()
        schemes = [{**base, "buffer_size": size}
                   for base in (self.scheme_params()
                                for _ in range(bases))
                   for size in BUFFER_SIZES]
        return pim_params, schemes


def simulate_trace(pim_params: dict, scheme_params: dict, *,
                   seed: int) -> list:
    """One closed-loop run of the implemented platform, as events."""
    from repro.codegen import build_controller
    from repro.envs import ClosedLoopRequester
    from repro.platforms import ImplementedSystem

    pim = build_pim(**pim_params)
    scheme = build_scheme(**scheme_params)
    controller = build_controller(pim.m,
                                  constants=pim.network.constants)
    system = ImplementedSystem(controller, scheme,
                               pim.input_channels(),
                               pim.output_channels(), seed=seed)
    requester = ClosedLoopRequester(system, INPUT, OUTPUT,
                                    count=TRACE_REQUESTS,
                                    think_ms=(20, 40), timeout_ms=500,
                                    first_press_ms=5)
    system.start()
    requester.start()
    system.run_for(TRACE_REQUESTS * 600 + 1000)
    return list(system.trace)


def push_late(trace: list, index: int, delta_us: int) -> list:
    """``trace`` with event ``index`` and every later one ``delta_us``
    later: only the gap before ``index`` grows, order is kept."""
    return [dataclasses.replace(event, time_us=event.time_us + delta_us)
            if i >= index else event
            for i, event in enumerate(trace)]
