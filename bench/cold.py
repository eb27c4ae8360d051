"""Cold start of one benchmark job, timed from outside as ``setup_s``.

    python3 bench/cold.py <workload> <seed> <workdir>

Starts a ``SpeedProbe`` (``speed.py``), imports ``fairshift.cli`` from the
checkout, writes the workload's generated inputs under ``<workdir>/inputs``
(the same bytes the measuring process wrote there) and runs the workload's
setup job with ``--out <workdir>/cold``.  It then writes the probe's speed
factor to ``<workdir>/cold-factor`` so that the measuring process can turn
the cold start's wall time into reference seconds.  The exit code is the
job's.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402

if __name__ == "__main__":
    workload, seed, work = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with SpeedProbe() as probe:
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
        from fairshift.cli import main
        from workloads import SETUP_JOB, make_inputs
        jobs = make_inputs(workload, seed, os.path.join(work, "inputs"))
        job = next(j for j in jobs if j.name == SETUP_JOB[workload])
        code = main(list(job.argv) + ["--out", os.path.join(work, "cold")])
    with open(os.path.join(work, "cold-factor"), "w") as fh:
        fh.write(repr(probe.factor()))
    sys.exit(code)
