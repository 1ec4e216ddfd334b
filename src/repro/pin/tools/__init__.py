"""Re-implementations of the Pin tools the paper used."""

from repro.pin.tools.inscount import InsCount
from repro.pin.tools.ldstmix import LdStMix
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.bbv import BBVProfiler

__all__ = ["InsCount", "LdStMix", "AllCache", "BBVProfiler"]
