"""One set-up sample, run by run.py in a fresh interpreter.

    python3 bench/setup_probe.py <src dir> eval --arity 1 --expr t1 --at 1

Imports latfree.cli from <src dir> and answers one op, as a user's first
call does, then notes the time.  After that, outside the measured part,
it times a calibration burst on the CPU it ran on.  The op's report goes
to standard output; the last line of standard error is one JSON object
with the time the op returned and the mean calibration unit time.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import latfree.cli  # noqa: E402

code = latfree.cli.main(sys.argv[2:])
done = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402

import calib  # noqa: E402  (this script's directory is first on sys.path)

speed = calib.Speed()
speed.burst(calib.SETUP_BURST_S)
print(json.dumps({"done": done, "unit_s": statistics.fmean(speed.units)}), file=sys.stderr)
sys.exit(code)
