"""Exact integer-partition engine: crank/mex statistics and their bijections.

The package has four layers:

* :mod:`crankmex.core` — the :class:`Partition` value type with its statistics
  (crank, mex above ``j``, shifted Durfee sizes, arm coordinates), plus the
  Durfee and mex decompositions.
* :mod:`crankmex.maps` — the staircase step maps and every bijection built
  from them, through the composite crank/mex correspondence.
* :mod:`crankmex.verify` — exhaustive enumeration, exact counting series, the
  crank table, and the theorem suite that re-proves every identity at desk
  scale with element-by-element witnesses.
* :mod:`crankmex.cli` — the ``crankmex`` command-line frontend.
"""

from . import core, maps, verify
from .core import *
from .maps import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *maps.__all__, *verify.__all__]
