"""The one memo for results that are costly to recompute.

Coefficient arrays, box points and unit-orbit tables are kept here, at
most MAX_ENTRIES of them, the least recently used dropped first.  Every
value is frozen: an ndarray is made read-only when it is stored, and an
orbit table holds only read-only arrays, so callers may share it but
cannot change it.  One lock guards the table; the work itself runs
outside it, so two threads that miss on one key may both compute it, and
the later store wins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

MAX_ENTRIES = 32

_lock = threading.Lock()
_entries: OrderedDict = OrderedDict()


def get(key):
    """The stored value for key, or None."""
    with _lock:
        value = _entries.get(key)
        if value is not None:
            _entries.move_to_end(key)
        return value


def put(key, value):
    """Freeze value, store it under key and return the frozen value."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    with _lock:
        _entries[key] = value
        _entries.move_to_end(key)
        while len(_entries) > MAX_ENTRIES:
            _entries.popitem(last=False)
    return value
