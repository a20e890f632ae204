"""Single-flight: coalesce concurrent identical calls into one execution.

A load-serving mediator sees bursts of *identical* requests — the same
query text from many clients inside one cache-miss window.  Running the
pipeline once and fanning the result out to every concurrent waiter
("single-flight", after Go's ``golang.org/x/sync/singleflight``) turns
an N-way stampede into one translation plus N-1 waits.

:class:`SingleFlight` is the generic primitive used by
:class:`repro.serve.MediationService` to deduplicate in-flight
translate/mediate requests by query fingerprint; the translation cache
has its own inlined variant (interleaved with its LRU lock — see
:mod:`repro.perf.cache`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from typing import TypeVar

from repro.perf.cache import InFlight

__all__ = ["SingleFlight"]

T = TypeVar("T")


class SingleFlight:
    """Run at most one concurrent execution of ``fn`` per key.

    The first caller for a key (the *leader*) runs ``fn``; callers that
    arrive while it runs (the *followers*) block and receive the
    **identical** result object.  An exception in the leader propagates
    to every waiter.  The flight is removed before it resolves, so a
    caller arriving after completion starts a fresh execution — results
    are never served stale.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, InFlight] = {}

    def __len__(self) -> int:
        """Number of keys currently in flight."""
        with self._lock:
            return len(self._flights)

    def do(self, key: Hashable, fn: Callable[[], T]) -> tuple[T, bool]:
        """Execute ``fn`` under single-flight for ``key``.

        Returns ``(value, shared)`` where ``shared`` is True when this
        caller was a follower served by another thread's execution.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                leader = False
            else:
                leader = True
                flight = self._flights[key] = InFlight()
        if not leader:
            return flight.wait(), True  # type: ignore[return-value]
        try:
            value = fn()
        except BaseException as exc:
            with self._lock:
                self._flights.pop(key, None)
            flight.fail(exc)
            raise
        with self._lock:
            self._flights.pop(key, None)
        flight.resolve(value)
        return value, False
