"""Standalone worker daemon: ``python -m repro.worker --listen host:port``.

Runs one :class:`~repro.utils.transport.WorkerServer` in the foreground —
the remote end of the :class:`~repro.utils.parallel.RemoteExecutor` lane
contract.  The daemon is stateless apart from its bounded broadcast
registry, so a fleet of them can sit behind any process supervisor; a
client that loses one mid-sweep retries on the survivors (DESIGN.md §6
"Remote lanes").

Flags
-----
``--listen host:port``
    Interface and port to bind (port 0 picks a free port).
``--port-file PATH``
    After binding, write the realised ``host:port`` to PATH — how a
    harness that requested port 0 learns where the daemon landed.
``--payload-cap N``
    Resident broadcast payloads kept before LRU eviction (default 8,
    the same registry limit as a process lane).  An evicted payload is
    re-broadcast by the client on next use, so a small cap trades
    re-transfer for bounded memory.
``--chunk-cache-mb N``
    Byte budget (in MiB, default 256) for the content-addressed chunk
    cache behind the chunked broadcast protocol.  Chunks outlive the
    payloads assembled from them, so a client re-arming this daemon
    after payload eviction sends a digest manifest instead of a
    re-ship; 0 keeps only the most recent chunk (effectively disabling
    reuse: every install then carries its chunks).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.utils.transport import (
    DEFAULT_CHUNK_CACHE_BYTES,
    DEFAULT_PAYLOAD_CAP,
    WorkerServer,
    parse_address,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="CPA remote-lane worker daemon (broadcast/map_on/map_tasks)",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="host:port to bind (default 127.0.0.1:0 = loopback, free port)",
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the realised host:port here once listening",
    )
    parser.add_argument(
        "--payload-cap",
        type=int,
        default=DEFAULT_PAYLOAD_CAP,
        help="resident broadcast payloads kept before LRU eviction",
    )
    parser.add_argument(
        "--chunk-cache-mb",
        type=int,
        default=DEFAULT_CHUNK_CACHE_BYTES >> 20,
        help="MiB of content-addressed broadcast chunks kept for reuse",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    host, port = parse_address(args.listen)
    server = WorkerServer(
        host,
        port,
        payload_cap=args.payload_cap,
        chunk_cache_bytes=args.chunk_cache_mb << 20,
    )
    if args.port_file is not None:
        args.port_file.write_text(server.address + "\n", encoding="utf-8")
    print(f"repro worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
