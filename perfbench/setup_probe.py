"""One fresh process brought to ready; the parent times it from spawn to exit.

Ready means: the program and every module the workloads call imported, the
Module and Wire Libraries loaded, and a first machine built and run on the
compiled kernel (which renders its specialized fabric and run loop).

Run as a script, it samples its own host speed from the first line on and
prints, last, the factor that turns its wall time into reference seconds
(see ``hostspeed.py``).
"""

import os
import sys
import time

if __name__ == "__main__":
    from hostspeed import Calibrator

    CALIBRATOR = Calibrator().install()
    STARTED = time.perf_counter()

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.dse.engine  # noqa: E402,F401
import repro.experiments  # noqa: E402,F401
import repro.fuzz.runner  # noqa: E402,F401
import repro.verify.equiv  # noqa: E402,F401
import repro.verify.graph  # noqa: E402,F401
from repro.moduledb.library import default_library  # noqa: E402
from repro.options import presets  # noqa: E402
from repro.sim.fabric import build_machine  # noqa: E402
from repro.wiredb.library import default_wire_library  # noqa: E402


def ready() -> int:
    default_library()
    default_wire_library()
    machine = build_machine(presets.preset("GBAVIII", 2), kernel="compiled")

    def idle():
        yield 1

    machine.sim.process(idle())
    machine.sim.run()
    return machine.sim.now


if __name__ == "__main__":
    ok = ready() == 1
    ended = time.perf_counter()
    CALIBRATOR.uninstall()
    print("%.9f" % (CALIBRATOR.reference_seconds(STARTED, ended) / (ended - STARTED)))
    sys.exit(0 if ok else 1)
