"""Cold-start probe, run in a fresh interpreter per sample.

Times ``import tsengsplit`` plus the CLI commands given as a JSON list of
argument lists, each stopped when it reaches its first solver iteration,
then runs the host calibration kernel.  Prints one JSON object.

    python3 perfbench/setup_probe.py <src dir> '<json list of argv lists>'
"""

import contextlib
import io
import json
import sys
import time


class FirstIteration(Exception):
    pass


def _stop(*args, **kwargs):
    raise FirstIteration


def main() -> None:
    src, commands = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from tsengsplit import cli

    cli.solve = _stop
    reached = 0
    for argv in commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        except FirstIteration:
            reached += 1
    setup_s = time.perf_counter() - t0

    from hostclock import calibrate

    # calibrate over as long a window as the set-up itself took
    print(json.dumps({"setup_s": setup_s, "cal_s": calibrate(max(0.05, setup_s)), "reached": reached}))


if __name__ == "__main__":
    main()
