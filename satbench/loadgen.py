"""Open-loop request clock, run as its own single-threaded process.

Writes one byte to standard output for each request at the moment it is
due: request ``i`` is due at ``start + i / rate`` on the shared monotonic
clock. The serving workload reads these bytes in its event loop and
submits the next requests in its pre-generated sequence. Keeping the
clock in another process means it never waits for the server's
interpreter lock, so its lateness measures the host, not the server.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start", type=float, required=True,
                        help="time.monotonic() at which request 0 is due")
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    out = sys.stdout.fileno()
    interval = 1.0 / args.rate
    sent = 0
    while sent < args.count:
        now = time.monotonic()
        due = args.start + sent * interval
        if now < due:
            time.sleep(due - now)
            now = time.monotonic()
        ready = min(args.count, int((now - args.start) / interval) + 1) - sent
        os.write(out, b"x" * max(1, ready))
        sent += max(1, ready)
    return 0


if __name__ == "__main__":
    sys.exit(main())
