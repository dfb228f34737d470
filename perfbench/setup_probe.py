"""Set-up probe: one fresh process that runs `fedsim run` for a workload and
exits the moment the first federated round is about to start.

It prints the CLOCK_MONOTONIC reading (`time.monotonic()`, shared by every
process on Linux) at that moment, so the parent can take
set-up time = that reading - the reading just before it spawned this process.
That covers interpreter start, importing fedsim, config parsing and
validation, building the dataset, partitioning and constructing clients.

    python3 perfbench/setup_probe.py <src dir> <fedsim run arguments...>
"""

import os
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import fedsim.cli
    import fedsim.clients

    def first_round(self, global_params):
        print(f"first_round_monotonic={time.monotonic()!r}", flush=True)
        os._exit(0)

    fedsim.clients.Client.local_update = first_round
    fedsim.cli.main(sys.argv[2:])
    # reaching here means no round started (zero-round config or an error)
    sys.exit(1)


if __name__ == "__main__":
    main()
