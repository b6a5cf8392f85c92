"""Combinatorics of two-Borel monomial ideals.

Fiber graphs of toric maps, the fiber sink order, quadratic Groebner bases
for toric ideals of two-Borel ideals, and the lift to Rees ideals, together
with brute-force oracles that recheck everything at small scale.

The package exports what the README's library example uses, plus the
generator table itself; everything else is imported from its submodule.
"""

from borelfiber.borel import GeneratorTable, build_table, build_two_borel
from borelfiber.fiber import build_fiber_graph, find_sink_direct, sinks, to_dot
from borelfiber.monomials import VariableContext, parse_monomial
from borelfiber.rees import rees_buchberger_verify, rees_gb
from borelfiber.toric import normal_form, quadric_generators

__version__ = "0.1.0"

__all__ = [
    "GeneratorTable",
    "VariableContext",
    "build_fiber_graph",
    "build_table",
    "build_two_borel",
    "find_sink_direct",
    "normal_form",
    "parse_monomial",
    "quadric_generators",
    "rees_buchberger_verify",
    "rees_gb",
    "sinks",
    "to_dot",
]
