"""Squeezed-vacuum interferometry numerics.

Covariance-matrix simulation of a two-mode squeezed-vacuum interferometer,
statistics of the homodyne product signal, phase-resolution criteria and
parameter sweeps, and a truncated Fock-basis oracle for validation.  The
package exports each module's `__all__`, plus the CLI's `RunConfig`.
"""
from . import fock, gaussian, interferometer, moments, resolution
from .cli import RunConfig
from .fock import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .interferometer import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .resolution import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (gaussian, moments, interferometer, resolution, fock)
           for name in module.__all__] + ["RunConfig"]
