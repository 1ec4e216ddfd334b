"""Pin-like instrumentation substrate.

Pin's role in the paper is to *observe* the dynamic instruction stream and
feed statistics tools; this package provides the same observation points
for synthetic programs.  An :class:`Engine` drives a slice stream and
dispatches each :class:`~repro.isa.trace.SliceTrace` to attached
:class:`Pintool` instances (re-implementations of ``inscount``,
``ldstmix`` and ``allcache``, and a BBV profiler).
"""

from repro.pin.engine import Engine
from repro.pin.pintool import Pintool
from repro.pin.tools.inscount import InsCount
from repro.pin.tools.ldstmix import LdStMix
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.bbv import BBVProfiler

__all__ = [
    "Engine",
    "Pintool",
    "InsCount",
    "LdStMix",
    "AllCache",
    "BBVProfiler",
]
