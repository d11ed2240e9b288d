"""Cross-scheme verdict memo — exploration reuse for the portfolio.

The Table-I sweep is massively redundant: schemes differing only in
buffer capacity produce bit-identical zone graphs whenever the
platform's timing keeps buffer occupancy strictly below *both*
capacities (the committed benchmarks show 16 grid points collapsing
to ~8 distinct explorations).  :class:`VerdictMemo` turns that
redundancy into reuse:

* Jobs are keyed by the **canonical capacity-erased hash** of their
  compiled PSM network (:func:`repro.ta.rename.canonical_network`)
  plus every knob that can change a verdict — query channels,
  deadlines, backend, abstraction, state budget (the portfolio
  builds the key; the memo stores whatever tuple it gets).
* A completed job commits a :class:`MemoEntry` carrying its verified
  results **and an occupancy certificate**: the maximum value each
  capacity variable (and hence each erased comparison's left-hand
  sum) attained over the *complete* reachable state space of the
  job's PSM sweep.
* A later job with the same key hits iff the erasure was semantically
  inert — either every erased literal matches the donor's exactly
  (the networks are syntactically identical), or the certificate
  shows each erased site's sum stayed strictly below both the donor's
  and the candidate's literal.  In the latter case every erased
  comparison is uniformly decided the same way in both networks
  (``<``/``<=`` true, ``==``/``>``/``>=`` false, ``!=`` true), the
  networks are bisimilar by induction over transitions, and verdicts,
  bounds, suprema and the states/transitions tallies all coincide —
  the memoized row is *exact*, not approximate.

The memo is content-addressed and thread-safe; the in-flight map
lets concurrent portfolio coordinators dedupe work the same way the
PIM obligation cache does (first claimant computes, the rest wait and
re-check).  Entries are plain picklable data so the process executor
can populate the parent-side memo from worker rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.ta.rename import CanonicalModel, ErasedSite, canonical_network

__all__ = [
    "InFlight",
    "MemoEntry",
    "VerdictMemo",
    "capacity_bounds",
    "occupancy_targets",
    "psm_canonical_model",
]


def capacity_bounds(psm) -> dict[str, int]:
    """Map each of a PSM's buffer-capacity variables to its capacity.

    These are the count/staged variables of every interface channel;
    their declared ``hi`` *is* the effective capacity the transform
    assigned (Section IV's buffered communication).  The map doubles
    as the erasure spec for :func:`canonical_network` and as the
    watch-list for the occupancy certificate.
    """
    bounds: dict[str, int] = {}
    for vars_ in (*psm.input_vars.values(), *psm.output_vars.values()):
        for name in (vars_.count, vars_.staged):
            if name:
                bounds[name] = psm.network.variable(name).hi
    return bounds


def psm_canonical_model(psm) -> CanonicalModel:
    """Canonical capacity-erased form of a compiled PSM network."""
    return canonical_network(psm.network,
                             erase_capacities=capacity_bounds(psm))


def occupancy_targets(model: CanonicalModel,
                      ) -> tuple[tuple[str, ...], ...]:
    """The watch list certifying ``model``'s erasure: one target per
    distinct erased left-hand side, tracked as the *sum* of its
    variables (``check_many``'s ``track_maxima`` accepts tuples).
    Tracking the sum directly matters: ``count`` and ``staged`` may
    each reach 1 without their sum ever reaching 2, and adding
    per-variable maxima would needlessly fail the certificate."""
    return tuple(sorted({site.variables for site in model.erased}))


@dataclass
class MemoEntry:
    """One completed job's reusable verdicts plus its certificate.

    ``maxima`` maps each occupancy target — a tuple of the donor's
    *original* variable names, one per distinct erased left-hand
    side (:func:`occupancy_targets`) — to the maximum its sum
    attained over the PSM sweep's complete reachable state
    space; ``None`` when the sweep stopped early (then only
    literal-identical candidates may reuse the entry).
    The result objects are the donor's own (immutable by convention);
    memoized rows share them, so witness strings may mention the
    donor's literals — verdicts, bounds and tallies are what the
    bisimulation argument transfers.
    """

    donor: str
    erased: tuple[ErasedSite, ...]
    maxima: Mapping[tuple[str, ...], int] | None
    constraints: object
    original: object
    relaxed: object
    symbolic: Mapping[str, object] = field(default_factory=dict)

    def covers(self, model: CanonicalModel) -> bool:
        """Is reusing this entry for ``model`` semantically exact?"""
        if len(self.erased) != len(model.erased):
            # Same digest implies positionally equal site lists; a
            # mismatch means the caller keyed incompatible models.
            return False
        if all(donor.literal == cand.literal for donor, cand
               in zip(self.erased, model.erased)):
            return True
        if self.maxima is None:
            return False
        for donor, cand in zip(self.erased, model.erased):
            upper = self.maxima.get(donor.variables)
            if upper is None:
                return False
            if not (upper < donor.literal and upper < cand.literal):
                return False
        return True


class InFlight:
    """One key's in-flight claim: a completion event plus the outcome.

    ``failed`` is the failure sentinel of the claim/commit protocol:
    ``True`` once the owner released the key *without publishing an
    entry* — it crashed, blew its budget, its worker died, or its
    result simply was not memoizable.  Either way no entry is coming,
    so a woken waiter must fall back to exploring itself instead of
    re-claiming (which would serialize the survivors behind a new
    leader, or — before this flag existed — hang forever on an owner
    that never committed).
    """

    __slots__ = ("event", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.failed = False


class VerdictMemo:
    """Thread-safe content-addressed store of :class:`MemoEntry`.

    Several entries may share a key (e.g. an incomplete-certificate
    donor followed by a certified one); :meth:`find` returns the
    first that covers the candidate.  The in-flight protocol mirrors
    the portfolio's PIM obligation cache: :meth:`claim` either makes
    the caller the computing owner (returns ``None``) or hands back
    an :class:`InFlight` record to wait on before re-checking.  The
    owner *must* call :meth:`commit` — with ``entry=None`` on any
    failure — or every waiter deadlocks; the portfolio does so in a
    ``finally``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple, list[MemoEntry]] = {}
        self._inflight: dict[tuple, InFlight] = {}
        #: Jobs answered from the memo.
        self.hits = 0
        #: Jobs that ran a real exploration (memo enabled).
        self.misses = 0
        #: Claims released without an entry (owner failed or result
        #: was not memoizable); waiters fell back to exploring.
        self.failures = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries)
                       for entries in self._entries.values())

    # Storage hooks — the service's BoundedVerdictMemo overrides these
    # to add LRU bookkeeping.  Both are called with ``_lock`` held.

    def _store(self, key: tuple, entry: MemoEntry) -> None:
        self._entries.setdefault(key, []).append(entry)

    def _touch(self, key: tuple) -> None:
        """A hit on ``key`` (recency hook; no-op in the base memo)."""

    def find(self, key: tuple,
             model: CanonicalModel) -> MemoEntry | None:
        """First committed entry whose reuse is exact for ``model``."""
        with self._lock:
            for entry in self._entries.get(key, ()):
                if entry.covers(model):
                    self.hits += 1
                    self._touch(key)
                    return entry
        return None

    def claim(self, key: tuple) -> InFlight | None:
        """Become the owner computing ``key`` (``None``) or get the
        current owner's :class:`InFlight` record to wait on."""
        with self._lock:
            record = self._inflight.get(key)
            if record is None:
                self._inflight[key] = InFlight()
                self.misses += 1
                return None
            return record

    def commit(self, key: tuple, entry: MemoEntry | None) -> None:
        """Publish the owner's result and release every waiter.

        ``entry=None`` means no entry is coming (failure or a
        non-memoizable result): the in-flight record is marked
        ``failed`` before its event is set, so waiters wake into the
        explore-yourself fallback instead of re-claiming.
        """
        with self._lock:
            if entry is not None:
                self._store(key, entry)
            record = self._inflight.pop(key, None)
            if entry is None and record is not None:
                self.failures += 1
        if record is not None:
            record.failed = entry is None
            record.event.set()

    def record(self, key: tuple, entry: MemoEntry) -> None:
        """Commit an entry without the claim/owner protocol (the
        process executor's parent populates the memo from finished
        rows, and fallback explorers publish theirs; appending is
        safe regardless of who currently owns the key)."""
        with self._lock:
            self._store(key, entry)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "failures": self.failures}
