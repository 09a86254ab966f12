"""Run a command and hold its peak resident memory to a limit.

    python tools/peak_rss.py LIMIT_MB COMMAND [ARG ...]

Runs COMMAND to its end and prints ``peak_rss_mb <MB>`` to standard error.
Exits with COMMAND's status when that is nonzero, else 1 when the peak
exceeds LIMIT_MB, else 0.  The peak is ``ru_maxrss`` of
``RUSAGE_CHILDREN`` (KB on Linux).  Linux starts a child's count from the
memory of the process that spawned it, so the peak is only the command's
own when this wrapper runs as a small process of its own: it imports
nothing but the standard library.
"""

import resource
import subprocess
import sys


def main(argv) -> int:
    limit_mb, command = float(argv[0]), argv[1:]
    status = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss_mb {peak_mb:.1f}", file=sys.stderr)
    return status or int(peak_mb > limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
