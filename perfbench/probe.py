"""Fresh-interpreter probes.

``python probe.py setup WORKLOAD CONFIG`` prints the monotonic clock once the
workload is ready for its first campaign; the caller subtracts the time it
started the process.  ``python probe.py import-cli`` prints how long
``import dopplerkb.cli`` took.
"""

import sys
import time


def main(argv) -> None:
    if argv[1] == "import-cli":
        t0 = time.perf_counter()
        import dopplerkb.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return
    import campaigns

    campaigns.setup(campaigns.WORKLOADS[argv[2]], argv[3])
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv)
