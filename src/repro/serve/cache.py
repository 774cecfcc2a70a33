"""Fingerprinted caches shared across tenants.

Sharing is safe *because of* the key discipline: every response cache
key embeds the full budget tuple ``(flowchart, policy, fuel, cap,
backend)``, so two tenants share an entry only when their requests are
observationally identical — same program, same budgets, same tier.  A
tenant can never be served a result computed under someone else's
budget (which would leak that budget's fault behaviour).

Three layers:

- flowchart cache: source fingerprint → compiled :class:`Flowchart`,
  so repeated submissions of the same source reuse the per-flowchart
  compile caches in ``fastpath``/``batchpath`` (which are keyed by
  object identity and die with the graph);
- response cache: an :class:`_LRUMemo` over rendered JSON-ready
  payloads;
- in-flight map: coalesces concurrent identical sweeps onto one
  computation (the server awaits the same future).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..flowchart.program import Flowchart

__all__ = ["ServeCache", "flowchart_fingerprint"]

#: Compiled flowcharts kept per distinct submitted source.
_FLOWCHART_CACHE_SIZE = 256


class _LRUMemo:
    """A small thread-safe LRU map; maxsize <= 0 disables it."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if self.maxsize <= 0:
            return None
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """One consistent snapshot of size/maxsize/hits/misses.

        Taken under the memo lock so a concurrent ``put`` mid-trim can
        never be observed as ``size > maxsize`` (unlocked reads could
        tear exactly that way under the server's thread pool).
        """
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def flowchart_fingerprint(flowchart: Flowchart) -> str:
    """A stable content fingerprint for cache keys.

    Library programs are canonical singletons per name; ad-hoc sources
    hash their structural rendering, so semantically identical
    resubmissions (same boxes, same wiring) key the same entry even
    when whitespace differs.
    """
    rendering = flowchart.pretty()
    digest = hashlib.sha256(rendering.encode("utf-8")).hexdigest()[:16]
    return f"{flowchart.name}:{digest}"


class ServeCache:
    """The server's shared cache plane; every method is thread-safe."""

    def __init__(self, response_size: int = 4096) -> None:
        self.responses = _LRUMemo(response_size)
        self._flowcharts = _LRUMemo(_FLOWCHART_CACHE_SIZE)

    # -- flowchart interning ------------------------------------------------

    def intern_flowchart(self, flowchart: Flowchart) -> Tuple[Flowchart, str]:
        """Map a parsed flowchart onto its cached twin (and fingerprint).

        Request parsing builds a fresh :class:`Flowchart` per POST;
        interning returns the first instance seen for that fingerprint
        so the identity-keyed compile/memo caches underneath stay warm
        across requests and tenants.

        The fingerprint memo lives on the instance itself (never keyed
        by ``id()``, whose values are recycled after GC), so it can
        never pair a freed flowchart's fingerprint with a new one.
        """
        fingerprint = getattr(flowchart, "_serve_fingerprint", None)
        if fingerprint is None:
            fingerprint = flowchart_fingerprint(flowchart)
            flowchart._serve_fingerprint = fingerprint
        interned = self._flowcharts.get(fingerprint)
        if interned is None:
            self._flowcharts.put(fingerprint, flowchart)
            interned = flowchart
        return interned, fingerprint

    # -- response cache -----------------------------------------------------

    def get_response(self, key: Tuple) -> Optional[Dict]:
        return self.responses.get(key)

    def put_response(self, key: Tuple, payload: Dict) -> None:
        self.responses.put(key, payload)

    def stats(self) -> Dict[str, int]:
        stats = {f"responses_{k}": v for k, v in self.responses.stats().items()}
        stats.update({f"flowcharts_{k}": v
                      for k, v in self._flowcharts.stats().items()})
        return stats
