"""Factorial sequences of rooted metric trees with leaf capacities.

The weighting process walks a tree from its root, repeatedly selecting a
nearest vertex in a growing weighted metric and emitting that distance; the
emitted sequence generalizes factorials of integer sets to arbitrary rooted
trees.  This package computes those sequences exactly, cross-checks them
against two independent formulations, links them to electrical flows on the
same tree, and inverts the process for sufficiently biased target sequences.
"""

from . import adelic, engine, errors, flow, realize, sequences, sources, trees
from .adelic import *
from .engine import *
from .errors import *
from .flow import *
from .realize import *
from .sequences import *
from .sources import *
from .trees import *

__version__ = "0.1.0"

# Module-level names that stay in their modules' __all__ but are not part of
# the package's interface.
_MODULE_ONLY = {
    "DEFAULT_BUDGET", "LazyView", "TreeSource", "format_length", "parse_length", "view_of"
}

__all__ = [
    name
    for module in (trees, sources, sequences, engine, adelic, flow, realize, errors)
    for name in module.__all__
    if name not in _MODULE_ONLY
]
