"""Per-layer host-time split of a cProfile'd measured phase.

Every function's self time is charged to a layer:

* a function of ``repro.<package>`` is charged to that package (the
  packages outside :data:`LAYERS` go to ``other``);
* any other function — stdlib, builtins, the benchmark itself — is
  charged to the layers of its nearest ``repro`` callers, split in
  proportion to the time each caller edge accounts for.  That puts
  ElementTree and base64 in ``ws`` and zlib in ``db``.

Self times partition the profiled time, so the layer totals add up to
the whole measured phase as cProfile saw it.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

import repro

#: Layers reported on their own; every other package lands in ``other``.
LAYERS = ("simkernel", "hardware", "ws", "db", "grid", "cyberaide",
          "core", "security", "telemetry")

_PREFIX = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

Func = Tuple[str, int, str]


def package_of(func: Func) -> str:
    """The ``repro`` package *func* is defined in, or ``""``."""
    filename = func[0]
    if not filename.startswith(_PREFIX):
        return ""
    head = filename[len(_PREFIX):].split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


class ProfileSplit:
    """Layer times and call counts read out of one profile."""

    def __init__(self, profile):
        self.stats = pstats.Stats(profile).stats
        self._dist: Dict[Func, Dict[str, float]] = {}
        self._open: set = set()
        self.layer_s = {layer: 0.0 for layer in LAYERS + ("other",)}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            if tt <= 0.0:
                continue
            for layer, share in self._charge(func).items():
                self.layer_s[layer] += tt * share

    def _charge(self, func: Func) -> Dict[str, float]:
        """Share of *func*'s self time owed to each layer."""
        own = package_of(func)
        if own:
            return {own: 1.0}
        if func in self._dist:
            return self._dist[func]
        self._open.add(func)
        # Recursive edges (a caller still being resolved) carry no
        # information about who is ultimately responsible: skip them.
        callers = {c: edge for c, edge in self.stats[func][4].items()
                   if c not in self._open}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        dist: Dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for layer, share in self._charge(caller).items():
                dist[layer] = dist.get(layer, 0.0) + share * weight / total
        self._open.discard(func)
        self._dist[func] = dist or {"other": 1.0}
        return self._dist[func]

    def _find(self, suffix: str, name: str):
        suffix = suffix.replace("/", os.sep)
        for func, row in self.stats.items():
            if func[2] == name and func[0].endswith(suffix):
                yield func, row

    def calls(self, suffix: str, name: str) -> int:
        """Primitive+recursive call count of ``name`` in ``*suffix``."""
        return sum(row[1] for _f, row in self._find(suffix, name))

    def cumulative(self, suffix: str, name: str) -> float:
        return sum(row[3] for _f, row in self._find(suffix, name))

    def calls_from(self, suffix: str, name: str, caller_suffix: str) -> int:
        """Calls of ``name`` made from functions defined in the caller file."""
        caller_suffix = caller_suffix.replace("/", os.sep)
        return sum(edge[1] for _f, row in self._find(suffix, name)
                   for caller, edge in row[4].items()
                   if caller[0].endswith(caller_suffix))

    def metrics(self) -> Dict[str, float]:
        out = {f"host.{layer}_s": secs for layer, secs in self.layer_s.items()}
        soap = "repro/ws/soap.py"
        out["ws.envelope_size_s"] = self.cumulative(soap, "size")
        out["ws.envelope_codec_s"] = (self.cumulative(soap, "encode")
                                      + self.cumulative(soap, "decode"))
        return out

    def counts(self) -> Dict[str, int]:
        """Deterministic call counts (compared across runs exactly)."""
        return {
            "hardware.flows": self.calls("repro/hardware/fairshare.py",
                                         "submit"),
            "hardware.timers": self.calls_from(
                "repro/simkernel/kernel.py", "timeout",
                "repro/hardware/fairshare.py"),
            "ws.envelope_size_calls": self.calls("repro/ws/soap.py", "size"),
        }
