"""Exact certificates for orbifold Euler numbers of complex surface pairs.

The library evaluates local orbifold Euler numbers of surface pair germs
(ordinary points, cyclic and star-shaped quotients, reduced germs via
Milnor/Tjurina numbers), assembles the global orbifold Euler number of a
projective pair, and certifies the Bogomolov-Miyaoka-Yau style inequalities
together with their plane-curve and general-type applications.  All
arithmetic is exact over the rationals.
"""

import importlib

__version__ = "0.1.0"

# Each module's __all__ is the public interface it contributes; the names are
# disjoint.  They resolve on first use (PEP 562), because ``python -m
# orbeuler`` runs this file before every subcommand, and most subcommands
# need only some of the modules.  ``from orbeuler import *`` binds the
# modules as well as their names.
_MODULES = ("rationals", "local", "germs", "pairs", "applications")


def __getattr__(name):
    if name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name == "__all__":
        value = [*_MODULES, *(public for module in _MODULES for public in __getattr__(module).__all__)]
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached, so that later lookups are plain dict hits.
    globals()[name] = value
    return value


def __dir__():
    public = __getattr__("__all__")
    return sorted({*globals(), *public})
