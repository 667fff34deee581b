"""The one cache type: named, bounded, counted.

Everything this library memoizes is a pure value of its key -- bind,
fusion, superoperator and stabilizer plans, their per-weight-vector
segments, constant gates' kernels, folded and transpiled circuits --
so a cache changes how fast an answer arrives, never what it is, and
every cache can be bounded.  Three pieces:

* :class:`Cache` -- an LRU of at most ``maxsize`` entries whose hits,
  misses and evictions are counted per *name*: every instance sharing a
  name (one per plan, say) adds to the same row.
* :func:`circuit_cache` -- the one store for values derived from a
  circuit, dropped whole when the circuit's gate list changes.
* :func:`cache_stats` -- the counters, one row per name.

The six ``functools.lru_cache`` kernel memos (statevector apply plans,
``z_signs``, constant gate matrices, coherent unitaries, density
transpose layouts, Clifford conjugation tables) stay as they are: the
standard library already bounds and counts them (``cache_info()``), and
their hits sit on the per-gate hot path, where a Python-level lookup
costs measurably more.
"""

from __future__ import annotations

import threading
import weakref

#: name -> [hits, misses, evictions], summed over every Cache of a name.
_COUNTERS: "dict[str, list[int]]" = {}

#: Guards every cache's entries and counters and the circuit stores.
#: Never held while a value is built, so builds may use other caches.
_LOCK = threading.Lock()

#: circuit -> (its gate list, that list's length, {name: Cache}).  Weak
#: keys: a circuit's derived values live exactly as long as it does, and
#: pickling or copying a circuit carries none of them along.
_CIRCUIT_STORES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class Cache:
    """A named LRU cache holding at most ``maxsize`` entries."""

    __slots__ = ("name", "maxsize", "_data", "_counts")

    def __init__(self, name: str, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache {name!r} needs maxsize >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._data: dict = {}
        self._counts = _COUNTERS.setdefault(name, [0, 0, 0])

    def __len__(self) -> int:
        return len(self._data)

    def get_or_build(self, key, build):
        """The value stored under ``key``, or ``build()``'s, stored.

        A hit marks the entry most recently used; storing a new entry
        into a full cache evicts the least recently used one.  When two
        threads build the same key at once, both get the first value
        stored.
        """
        data, counts = self._data, self._counts
        with _LOCK:
            if key in data:
                value = data.pop(key)
                data[key] = value
                counts[0] += 1
                return value
            counts[1] += 1
        value = build()
        with _LOCK:
            if key in data:
                return data[key]
            if len(data) >= self.maxsize:
                del data[next(iter(data))]
                counts[2] += 1
            data[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry; the name's counters keep their totals."""
        with _LOCK:
            self._data.clear()


def circuit_cache(circuit, name: str, maxsize: int) -> Cache:
    """The circuit's ``name`` cache, created with ``maxsize`` on first use.

    Everything derived from a circuit -- its bind and fusion plans
    (noisy ones keyed by noise model), its superoperator and stabilizer
    plans, its folded copies -- lives in one store per circuit.  The store is
    dropped whole when the circuit's gate list is a different list
    object or has a different length than when the store was made, so
    no derived value outlives the gates it was built from.
    """
    gates = circuit.gates
    with _LOCK:
        store = _CIRCUIT_STORES.get(circuit)
        if store is None or store[0] is not gates or store[1] != len(gates):
            store = _CIRCUIT_STORES[circuit] = (gates, len(gates), {})
        cache = store[2].get(name)
        if cache is None:
            cache = store[2][name] = Cache(name, maxsize)
    return cache


def cache_stats() -> "dict[str, dict[str, int]]":
    """``{name: {"hits", "misses", "evictions"}}`` for every cache name.

    A snapshot, summed over all :class:`Cache` instances of a name made
    in this process.  Counters only grow, so the difference of two
    snapshots measures the work between them.
    """
    with _LOCK:
        return {
            name: {"hits": hits, "misses": misses, "evictions": evictions}
            for name, (hits, misses, evictions) in sorted(_COUNTERS.items())
        }
