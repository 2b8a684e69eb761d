"""Set-up time of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds taken to import planerigidity (its CLI, which imports
every layer) and to parse the workload's input files with its parsers,
scaled to the reference speed of calibrate.py by the kernel run just
before and just after.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# stdlib only, imported before the clock starts
from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import input_files  # noqa: E402

files = input_files(sys.argv[1])
kernel_seconds()  # the first call warms the interpreter's specialisation
before = kernel_seconds()
t0 = perf_counter()
sys.path.insert(0, str(HERE.parent / "src"))
import planerigidity.cli  # noqa: E402,F401
from planerigidity.formats import parse_graph, parse_placement  # noqa: E402

for path in files:
    text = path.read_text()
    if path.suffix == ".pl":
        parse_placement(text)
    else:
        parse_graph(text)
elapsed = perf_counter() - t0
after = kernel_seconds()
print(elapsed * REFERENCE_S / ((before + after) / 2))
