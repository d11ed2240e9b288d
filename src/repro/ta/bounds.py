"""Per-location lower/upper clock-bound analysis (the LU abstraction).

Zone-graph termination needs an extrapolation operator; the coarser the
operator, the smaller the graph.  The classical refinement over the
global-maximum-constant ``Extra_M`` is the *LU-bounds* family
(Behrmann, Bouyer, Larsen & Pelánek, "Lower and Upper Bounds in
Zone-Based Abstractions of Timed Automata"): split every clock's
ceiling into

* ``L(x)`` — the largest constant ``c`` such that some constraint
  ``x > c`` / ``x >= c`` can still be applied (a *lower*-bound guard),
* ``U(x)`` — the largest ``c`` from ``x < c`` / ``x <= c`` constraints,

and additionally make both maps *location-dependent*: only constraints
reachable from the automaton's current location — without the clock
being overwritten on the way — contribute.  A clock whose next use is
behind a reset contributes nothing, and a clock that is only ever
bounded from below never needs its upper bounds remembered at all.
The ``Extra⁺_LU`` operator built on these maps (see
``DBM.extrapolate_lu``) preserves reachability verdicts exactly while
collapsing zone graphs by large constant factors.

This module hosts the *static analysis* producing those maps plus the
abstraction-selection plumbing (:class:`AbstractionSpec`,
:func:`resolve_abstraction`), mirroring the zone-backend selection in
:mod:`repro.zones.backend`.

The analysis is a backward data-flow fixpoint per automaton:

* invariants contribute at their location, guards at their edge's
  source location;
* bounds at an edge's target flow back to the source through the
  edge's update list in *reverse* order — a reset ``x := c`` kills
  ``x``'s demand (recording ``c`` on both sides, matching the
  conservative treatment of ``CompiledNetwork._compute_max_constants``),
  a copy ``x := y`` transfers ``x``'s demand onto ``y``;
* for a network state the per-clock bound is the maximum over every
  automaton's map at its current location (each automaton
  over-approximates its own future constraints, so the composition is
  sound), raised by any *floors* (observer/sup-query ceilings and
  query-formula constants, which live outside the network).

Soundness relies on the models being diagonal-free per clock *pair*
exactly as ``Extra_M`` already does; difference constraints
``x - y ≺ c`` are handled conservatively by charging ``|c|`` to both
sides of both clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.ta.clocks import ClockConstraint, ClockCopy, ClockReset
from repro.ta.model import Network

__all__ = [
    "ENV_ABSTRACTION",
    "EXTRA_LU",
    "EXTRA_M",
    "NO_BOUND",
    "AbstractionSpec",
    "LUBoundsMap",
    "analyze_lu_bounds",
    "available_abstractions",
    "resolve_abstraction",
]

#: "This clock needs no bound of this kind here" — any finite bound is
#: larger, so ``max`` composition treats it as the identity, and the
#: ``Extra⁺_LU`` widening rules treat it as "always widen".
NO_BOUND = -1

EXTRA_M = "extra_m"
EXTRA_LU = "extra_lu"

#: Environment override for the default abstraction (like
#: ``REPRO_ZONE_BACKEND`` for the kernel choice), read by
#: :meth:`repro.mc.parallel.EngineConfig.resolve`.
ENV_ABSTRACTION = "REPRO_ABSTRACTION"

_ALIASES = {
    "extra_m": EXTRA_M,
    "m": EXTRA_M,
    "extra_lu": EXTRA_LU,
    "extra_lu_plus": EXTRA_LU,
    "lu": EXTRA_LU,
}


@dataclass(frozen=True)
class AbstractionSpec:
    """Resolved extrapolation choice threaded through the explorers.

    ``extra_m`` is the seed behavior (global per-clock maximum
    constants, bit-identical zone graphs to every published pin);
    ``extra_lu`` switches every extrapolation call to the per-location
    ``Extra⁺_LU`` operator.  Equality verdicts, Lemma-2 bounds and
    exact suprema are preserved either way — only the zone-graph size
    (and therefore wall time) changes.
    """

    name: str

    @property
    def is_lu(self) -> bool:
        return self.name == EXTRA_LU


_EXTRA_M_SPEC = AbstractionSpec(EXTRA_M)
_EXTRA_LU_SPEC = AbstractionSpec(EXTRA_LU)


def available_abstractions() -> tuple[str, ...]:
    """Canonical abstraction names (both are always available)."""
    return (EXTRA_M, EXTRA_LU)


def resolve_abstraction(
        name: str | AbstractionSpec | None = None) -> AbstractionSpec:
    """Resolve an abstraction spec.

    ``None`` means ``extra_m``, so every existing bit-identity pin
    stands by default.
    """
    if isinstance(name, AbstractionSpec):
        return name
    if name is None:
        name = EXTRA_M
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown abstraction {name!r} "
            f"(choose from: {', '.join(sorted(set(_ALIASES)))})")
    return _EXTRA_LU_SPEC if key == EXTRA_LU else _EXTRA_M_SPEC


# ======================================================================
# The per-location analysis
# ======================================================================
class LUBoundsMap:
    """Per-automaton, per-location, per-clock L/U maps for a network.

    ``lower[a][l][x]`` / ``upper[a][l][x]`` give automaton ``a``'s
    contribution for *global clock index* ``x`` while it sits at
    location ``l`` (``NO_BOUND`` when that automaton demands nothing).
    :meth:`state_bounds` composes a network state's maps by maximum.
    """

    __slots__ = ("n_clocks", "lower", "upper")

    def __init__(self, n_clocks: int,
                 lower: list[list[list[int]]],
                 upper: list[list[list[int]]]):
        self.n_clocks = n_clocks
        self.lower = lower
        self.upper = upper

    def state_bounds(self, locs: Sequence[int],
                     lower_floors: Mapping[int, int] | None = None,
                     upper_floors: Mapping[int, int] | None = None,
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Composed ``(lower, upper)`` tuples for one location vector.

        The floor mappings raise individual clocks' maps — the hook
        for observer/sup-query ceilings and query-formula constants,
        whose constraints live outside the network.  Floors are
        *directional*: a ceiling needed so lower-bound formulas
        (``w > Δ``) and clock-supremum readings stay exact belongs in
        ``lower_floors`` only — leaving ``U`` at ``NO_BOUND`` lets the
        widening erase the clock's lower-bound residue, which is
        where observer-instrumented zone graphs blow up.  The
        reference clock's entries are pinned to 0 (the ``Extra⁺_LU``
        rules expect ``L(x₀) = U(x₀) = 0``).
        """
        n = self.n_clocks
        low = [NO_BOUND] * n
        up = [NO_BOUND] * n
        for a, loc in enumerate(locs):
            for x, value in enumerate(self.lower[a][loc]):
                if value > low[x]:
                    low[x] = value
            for x, value in enumerate(self.upper[a][loc]):
                if value > up[x]:
                    up[x] = value
        if lower_floors:
            for x, value in lower_floors.items():
                if value > low[x]:
                    low[x] = value
        if upper_floors:
            for x, value in upper_floors.items():
                if value > up[x]:
                    up[x] = value
        low[0] = up[0] = 0
        return tuple(low), tuple(up)

    def global_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Location-independent maps: the maximum over every location."""
        n = self.n_clocks
        low = [NO_BOUND] * n
        up = [NO_BOUND] * n
        for per_auto_low, per_auto_up in zip(self.lower, self.upper):
            for per_loc in per_auto_low:
                for x, value in enumerate(per_loc):
                    if value > low[x]:
                        low[x] = value
            for per_loc in per_auto_up:
                for x, value in enumerate(per_loc):
                    if value > up[x]:
                        up[x] = value
        low[0] = up[0] = 0
        return tuple(low), tuple(up)


def _automaton_clock_ids(network: Network, auto) -> dict[str, int]:
    """Local clock name → global clock index (mirrors CompiledNetwork)."""
    clock_ids = network.clock_index()
    ids = {}
    for clock in network.global_clocks:
        ids[clock] = clock_ids[(auto.name, clock)]
    for clock in auto.clocks:
        ids[clock] = clock_ids[(auto.name, clock)]
    return ids


def _charge_atom(atom: ClockConstraint, ids: Mapping[str, int],
                 low: list[int], up: list[int]) -> None:
    """Record one constraint atom's demand into L/U rows."""
    if atom.other is None:
        x = ids[atom.clock]
        bound = atom.bound
        if atom.op in ("<", "<="):
            if bound > up[x]:
                up[x] = bound
        elif atom.op in (">", ">="):
            if bound > low[x]:
                low[x] = bound
        else:  # == is the conjunction of both directions
            if bound > up[x]:
                up[x] = bound
            if bound > low[x]:
                low[x] = bound
        return
    # Difference constraint x - y ≺ c: charge both sides of both
    # clocks (the conservative treatment Extra_M's max-constant pass
    # uses — LU refinement is only claimed for single-clock atoms).
    bound = abs(atom.bound)
    for clock in (atom.clock, atom.other):
        x = ids[clock]
        if bound > up[x]:
            up[x] = bound
        if bound > low[x]:
            low[x] = bound


def analyze_lu_bounds(network: Network) -> LUBoundsMap:
    """Compute the per-location LU maps for every automaton.

    Backward fixpoint per automaton: a location's rows accumulate its
    invariant atoms, its outgoing guards, and the target locations'
    rows filtered backward through each edge's update list (resets
    kill a clock's demand, copies ``x := y`` transfer ``x``'s demand
    onto ``y``).  Nonzero reset values are charged to both maps at the
    source, matching ``Extra_M``'s conservative constant collection —
    this keeps the derived maps pointwise ≤ the global max-constant
    map, which the property tests pin.
    """
    n_clocks = network.n_clocks()
    all_lower: list[list[list[int]]] = []
    all_upper: list[list[list[int]]] = []
    for auto in network.automata:
        ids = _automaton_clock_ids(network, auto)
        loc_ids = {loc.name: i for i, loc in enumerate(auto.locations)}
        n_locs = len(auto.locations)
        lower = [[NO_BOUND] * n_clocks for _ in range(n_locs)]
        upper = [[NO_BOUND] * n_clocks for _ in range(n_locs)]
        # Direct contributions: invariants and outgoing guards (plus
        # nonzero reset values).
        for loc in auto.locations:
            row = loc_ids[loc.name]
            for atom in loc.invariant:
                _charge_atom(atom, ids, lower[row], upper[row])
        edges = []
        for edge in auto.edges:
            src = loc_ids[edge.source]
            dst = loc_ids[edge.target]
            for atom in edge.guard.clock_constraints:
                _charge_atom(atom, ids, lower[src], upper[src])
            ops = []
            for action in edge.update.actions:
                if isinstance(action, ClockReset):
                    x = ids[action.clock]
                    ops.append(("reset", x))
                    if action.value:
                        value = action.value
                        if value > lower[src][x]:
                            lower[src][x] = value
                        if value > upper[src][x]:
                            upper[src][x] = value
                elif isinstance(action, ClockCopy):
                    ops.append(("copy", ids[action.clock],
                                ids[action.source]))
            # Backward transfer is applied in reverse update order.
            ops.reverse()
            edges.append((src, dst, tuple(ops)))
        # Fixpoint: propagate target demands back through the edges.
        changed = True
        while changed:
            changed = False
            for src, dst, ops in edges:
                need_low = list(lower[dst])
                need_up = list(upper[dst])
                for op in ops:
                    if op[0] == "reset":
                        need_low[op[1]] = NO_BOUND
                        need_up[op[1]] = NO_BOUND
                    else:  # copy x := y — x's demand lands on y
                        _, x, y = op
                        if x != y:
                            if need_low[x] > need_low[y]:
                                need_low[y] = need_low[x]
                            if need_up[x] > need_up[y]:
                                need_up[y] = need_up[x]
                            need_low[x] = NO_BOUND
                            need_up[x] = NO_BOUND
                src_low = lower[src]
                src_up = upper[src]
                for x in range(n_clocks):
                    if need_low[x] > src_low[x]:
                        src_low[x] = need_low[x]
                        changed = True
                    if need_up[x] > src_up[x]:
                        src_up[x] = need_up[x]
                        changed = True
        all_lower.append(lower)
        all_upper.append(upper)
    return LUBoundsMap(n_clocks, all_lower, all_upper)
