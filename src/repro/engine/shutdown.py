"""Graceful SIGTERM/SIGINT shutdown for pool-running processes.

Ctrl-C used to interrupt the supervision pump at an arbitrary
bytecode: the ``KeyboardInterrupt`` unwound through ``finally`` fast
enough in the common case, but a signal landing inside the shutdown
path itself (or inside a queue drain) could leave worker processes
orphaned behind a dead parent.  :func:`graceful_shutdown` turns the
first signal into a *drain request* instead: every active pool stops
dispatching, lets in-flight shards finish, reaps its workers, and the
interrupted ``run`` raises :class:`~repro.errors.EngineInterrupted`
from a known point.  A second signal falls through to the default
(impatient) behavior.

Signal handlers can only be installed from the main thread; from any
other thread :func:`graceful_shutdown` is a documented no-op — the
embedding layer (e.g. the asyncio service, which owns its own signal
wiring) calls :func:`repro.engine.pool.request_stop_all` /
:meth:`~repro.engine.engine.Engine.close` directly.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import threading
from collections.abc import Iterator

__all__ = ["graceful_shutdown"]

_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def graceful_shutdown(*, drain_timeout: float = 2.0) -> Iterator[bool]:
    """Install drain-first SIGINT/SIGTERM handlers for a block.

    Yields True when handlers were installed (main thread), False
    otherwise.  Within the block, the first signal requests a graceful
    stop on every active worker pool; with no pool active — or on a
    second signal — the default KeyboardInterrupt/SystemExit behavior
    applies, so plain serial runs still die promptly.
    """
    if threading.current_thread() is not threading.main_thread():
        yield False
        return

    state = {"fired": False}

    def _handler(signum: int, frame: object) -> None:
        if state["fired"]:  # second signal: stop being polite
            _restore()
            raise KeyboardInterrupt if signum == signal.SIGINT \
                else SystemExit(128 + signum)
        state["fired"] = True
        # no pool can be active before its module is loaded
        pool = sys.modules.get("repro.engine.pool")
        stopped = pool.request_stop_all(drain_timeout) if pool else 0
        if stopped == 0:
            # Nothing to drain: behave like the default handler.
            _restore()
            if signum == signal.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(128 + signum)

    previous = {sig: signal.signal(sig, _handler) for sig in _SIGNALS}

    def _restore() -> None:
        for sig, prev in previous.items():
            try:
                signal.signal(sig, prev)
            except (ValueError, TypeError):  # pragma: no cover
                pass

    try:
        yield True
    finally:
        _restore()
