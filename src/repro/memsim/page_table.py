"""GPU page table.

Two roles:

1. **Residency map** — VPN -> physical frame for pages currently in device
   memory, plus per-page *accessed* and *dirty* bits.  The accessed bit is
   what the UVM driver reads back when it unmaps a chunk at eviction time;
   it is the source of MHPE's untouch-level statistic (see DESIGN.md).
2. **Walk structure model** — a 4-level radix tree (512-ary, 9 bits per
   level, as in x86-64).  The page-table walker asks for the per-level node
   keys of a VPN so that the page walk cache can cache upper levels.

The residency map is three flat lists indexed by ``vpn - origin``
(``_frames[i] == -1`` = unmapped).  Workloads place their footprint at
``Workload.base_vpn``, so callers pass that as ``origin_hint`` and the
footprint as ``size_hint``; the lists still grow in place at either end
for VPNs outside the hint.  In-place growth preserves list identity, which
is what lets the fused hot loops hoist them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, cast

import numpy as np

from ..errors import SimulationError

__all__ = ["PageTable"]

_BITS_PER_LEVEL = 9

#: Slack added when the lists must grow, so growth is amortised instead of
#: per-page.
_PAD_PAGES = 4096


class PageTable:
    """Radix page table with residency and access/dirty tracking."""

    __slots__ = (
        "levels", "resident_peak", "_frames", "_accessed", "_dirty",
        "_origin", "_resident",
    )

    def __init__(
        self, levels: int = 4, origin_hint: int = 0, size_hint: int = 0
    ) -> None:
        if levels <= 0:
            raise SimulationError("page table needs at least one level")
        self.levels = levels
        self.resident_peak = 0
        self._origin = origin_hint
        n = max(size_hint, _PAD_PAGES)
        self._frames: List[int] = [-1] * n
        self._accessed = bytearray(n)
        self._dirty = bytearray(n)
        self._resident = 0

    # --- growth -----------------------------------------------------------

    def _ensure(self, vpn: int) -> int:
        """Local index for ``vpn``, growing the lists in place if needed."""
        idx = vpn - self._origin
        if idx < 0:
            pad = max(-idx, _PAD_PAGES)
            self._frames[:0] = [-1] * pad
            self._accessed[:0] = bytes(pad)
            self._dirty[:0] = bytes(pad)
            self._origin -= pad
            return vpn - self._origin
        n = len(self._frames)
        if idx >= n:
            pad = idx - n + 1 + _PAD_PAGES
            self._frames.extend([-1] * pad)
            self._accessed.extend(bytes(pad))
            self._dirty.extend(bytes(pad))
        return idx

    # --- residency --------------------------------------------------------

    def __len__(self) -> int:
        return self._resident

    def __contains__(self, vpn: int) -> bool:
        return self.is_resident(vpn)

    def is_resident(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames):
            return self._frames[idx] >= 0
        return False

    def frame_of(self, vpn: int) -> Optional[int]:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames):
            frame = self._frames[idx]
            if frame >= 0:
                return frame
        return None

    def map(self, vpn: int, frame: int) -> None:
        """Install a translation.  Pages arrive untouched and clean."""
        idx = self._ensure(vpn)
        if self._frames[idx] >= 0:
            raise SimulationError(f"vpn {vpn} already mapped")
        self._frames[idx] = frame
        self._accessed[idx] = 0
        self._dirty[idx] = 0
        self._resident += 1
        if self._resident > self.resident_peak:
            self.resident_peak = self._resident

    def unmap(self, vpn: int) -> Tuple[int, bool, bool]:
        """Remove a translation; returns (frame, accessed, dirty)."""
        idx = vpn - self._origin
        if not (0 <= idx < len(self._frames)) or self._frames[idx] < 0:
            raise SimulationError(f"vpn {vpn} not mapped")
        frame = self._frames[idx]
        self._frames[idx] = -1
        self._resident -= 1
        return frame, bool(self._accessed[idx]), bool(self._dirty[idx])

    def record_access(self, vpn: int, is_write: bool = False) -> None:
        """Set the accessed (and possibly dirty) bit, as MMU hardware would."""
        idx = vpn - self._origin
        if not (0 <= idx < len(self._frames)) or self._frames[idx] < 0:
            raise SimulationError(f"access to non-resident vpn {vpn}")
        self._accessed[idx] = 1
        if is_write:
            self._dirty[idx] = 1

    def accessed(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames) and self._frames[idx] >= 0:
            return bool(self._accessed[idx])
        return False

    def dirty(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames) and self._frames[idx] >= 0:
            return bool(self._dirty[idx])
        return False

    def resident_vpns(self) -> List[int]:
        """Snapshot of resident VPNs (sorted, for deterministic iteration)."""
        frames = np.asarray(self._frames, dtype=np.int64)
        vpns = np.flatnonzero(frames >= 0) + self._origin
        return cast(List[int], vpns.tolist())

    # --- walk structure ----------------------------------------------------

    def node_keys(self, vpn: int) -> Tuple[Tuple[int, int], ...]:
        """Per-level node identifiers touched by a walk for ``vpn``.

        Returns ``levels`` keys ordered root-first.  Key for level ``i``
        (0 = root) identifies the page-table node whose entry must be read at
        that level; the page walk cache caches the *upper* levels (all but
        the leaf), so a PWC hit on the deepest cached level shortens the walk.
        """
        keys = []
        for level in range(self.levels):
            shift = _BITS_PER_LEVEL * (self.levels - 1 - level)
            keys.append((level, vpn >> shift))
        return tuple(keys)
