"""The server process of the ``serve-mix`` workload.

    python -m perfbench.serve_child --seed N --cache-dir DIR --spans PATH

Starts ``FPService`` with ``Engine(workers=0)`` and a result cache whose
disk tier lives in ``DIR``, prints ``READY <port>``, then obeys one
command per line on stdin, answering each with one JSON line:

- ``trace on``: install the layer probes and open a traced window;
- ``trace off``: remove them and answer with the window's folded spans
  and the service and cache counters it moved;
- ``calibrate N``: answer with this process's host slowdown over ``N``
  calibration slices (see ``perfbench/calibrate.py``);
- ``stop``: drain the service, write every kept span to ``PATH`` and
  answer with the service's final ``stats``.

The server runs in its own process so that its handler threads, which
hold the interpreter lock, do not delay the load generator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from perfbench.calibrate import slowdown
from perfbench.layers import PROBES
from perfbench.tracing import Recorder, covered_seconds


def _counters(service) -> dict:
    """The counters a traced window reports as deltas."""
    stats = service.stats()["handlers"]
    cache = service.engine.cache.stats
    coalescer = stats.get("coalescer") or {}
    return {
        "batch_submitted": stats["batcher"]["submitted"],
        "batch_flushes": stats["batcher"]["flushes"],
        "batch_lanes": stats["batcher"]["lanes"],
        "job_flushes": coalescer.get("flushes", 0),
        "job_riders": coalescer.get("lanes", 0),
        "lint_hits": stats["lint_cache"]["hits"],
        "lint_misses": stats["lint_cache"]["misses"],
        "cache_hits": cache.hits,
        "cache_disk_hits": cache.disk_hits,
        "cache_misses": cache.misses,
    }


class _Window:
    def __init__(self, service) -> None:
        self.recorder = Recorder(list(PROBES))
        self.before = _counters(service)
        self.recorder.install()
        self.started = time.perf_counter()

    def close(self, service) -> dict:
        self.recorder.uninstall()
        ended = time.perf_counter()
        after = _counters(service)
        summary = self.recorder.summary()
        return {
            "probes": summary["probes"],
            "window_s": ended - self.started,
            "covered_s": covered_seconds(summary["intervals"], self.started,
                                         ended),
            "deltas": {k: after[k] - self.before[k] for k in after},
        }


async def serve(seed: int, cache_dir: str, spans_path: str) -> None:
    from repro.engine import Engine, EngineConfig
    from repro.service import FPService, ServiceConfig

    engine = Engine(EngineConfig(
        workers=0, cache_path=f"{cache_dir}/engine-cache.jsonl",
    ))
    # admission is not under test: no request may be refused
    config = ServiceConfig(service_seed=seed, rate=1e9, burst=1e9)
    service = FPService(config, engine=engine)
    await service.start()
    print(f"READY {service.port}", flush=True)
    windows: list[_Window] = []
    current: _Window | None = None
    while True:
        line = (await asyncio.to_thread(sys.stdin.readline)).strip()
        if line == "trace on" and current is None:
            current = _Window(service)
            windows.append(current)
            reply: dict = {"ok": True}
        elif line == "trace off" and current is not None:
            reply = current.close(service)
            current = None
        elif line.startswith("calibrate "):
            reply = {"slowdown": slowdown(int(line.split()[1]))}
        elif line in ("stop", ""):
            if current is not None:
                current.close(service)
            await service.stop()
            count = 0
            with open(spans_path, "w", encoding="utf-8") as handle:
                for index, window in enumerate(windows):
                    handle.write(json.dumps({"window": index}) + "\n")
                    count += window.recorder.write_spans(handle)
            print(json.dumps({"stats": service.stats(), "spans": count}),
                  flush=True)
            return
        else:
            reply = {"ok": False, "error": f"bad command {line!r}"}
        print(json.dumps(reply), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.seed, args.cache_dir, args.spans))


if __name__ == "__main__":
    main()
