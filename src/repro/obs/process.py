"""Process-level measurements (peak RSS) with graceful degradation.

This module is a leaf: it imports nothing from :mod:`repro`, so low-level
modules (e.g. :mod:`repro.core.stats`) may call into it lazily without
creating an import cycle with the rest of the observability layer.
"""

from __future__ import annotations

import sys

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None


def peak_rss_bytes() -> int | None:
    """The process's peak resident set size in bytes, or None when unknown.

    On Linux this is ``VmHWM`` from ``/proc/self/status``, the high-water
    mark of this process's own address space.  ``ru_maxrss`` would also count
    the address space the process was exec'd from, so a small child of a
    larger parent would report the parent's peak.  Elsewhere ``getrusage``'s
    ``ru_maxrss`` is used (kilobytes on Linux, bytes on macOS, normalised to
    bytes here); without the ``resource`` module (Windows) this returns None.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux
        pass
    if _resource is None:  # pragma: no cover - platform fallback
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(usage)
    return int(usage * 1024)


def current_rss_bytes() -> int | None:
    """The process's current resident set size in bytes (Linux), else None.

    Reads ``/proc/self/statm``; returns None anywhere that file is absent.
    Cheap enough to call at metric-render time.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        import os

        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return None
