"""Timed automata modeling language (UPPAAL subset).

Public surface: build models with :class:`NetworkBuilder`, inspect
them via :class:`Network`, and hand them to :mod:`repro.mc` for
verification or :mod:`repro.codegen` for code generation.
"""

from repro.ta.bounds import (
    AbstractionSpec,
    LUBoundsMap,
    analyze_lu_bounds,
    available_abstractions,
    resolve_abstraction,
)
from repro.ta.builder import AutomatonBuilder, NetworkBuilder
from repro.ta.channels import Channel, Sync
from repro.ta.clocks import (
    Assignment,
    ClockConstraint,
    ClockCopy,
    ClockReset,
    Guard,
    Update,
)
from repro.ta.expr import Binary, Const, Expr, ExprError, Unary, Var
from repro.ta.model import (
    Automaton,
    Edge,
    Location,
    ModelError,
    Network,
    VariableDecl,
)
from repro.ta.parser import (
    ParseError,
    parse_expression,
    parse_guard,
    parse_invariant,
    parse_update,
)
from repro.ta.rename import boundary_rename_map, mc_to_io_name, \
    rename_channels
from repro.ta.render import automaton_to_dot, network_summary, \
    network_to_dot
from repro.ta.uppaal import network_to_uppaal_xml
from repro.ta.validate import Problem, check, validate

__all__ = [
    "AbstractionSpec",
    "Automaton",
    "AutomatonBuilder",
    "Assignment",
    "LUBoundsMap",
    "Binary",
    "Channel",
    "ClockConstraint",
    "ClockCopy",
    "ClockReset",
    "Const",
    "Edge",
    "Expr",
    "ExprError",
    "Guard",
    "Location",
    "ModelError",
    "Network",
    "NetworkBuilder",
    "ParseError",
    "Problem",
    "Sync",
    "Unary",
    "Update",
    "Var",
    "VariableDecl",
    "analyze_lu_bounds",
    "automaton_to_dot",
    "available_abstractions",
    "boundary_rename_map",
    "check",
    "mc_to_io_name",
    "network_summary",
    "network_to_dot",
    "network_to_uppaal_xml",
    "parse_expression",
    "parse_guard",
    "parse_invariant",
    "parse_update",
    "rename_channels",
    "resolve_abstraction",
    "validate",
]
