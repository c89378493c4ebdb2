"""Fixed reference work that gauges the machine's current speed.

``run.py`` runs this script as a fresh child before the first timed
``anleak`` command and after each one, with the same environment, and
scales each command's timings by the calibrations around it (see
"Steadiness" in ``README.md``).  It never imports ``anleak``, so no
change to the program can move it.

The work mirrors an ``anleak`` command in miniature: an interpreter start
and a numpy import, batched complex Gram products with ``eigvalsh`` (the
spectrum kernel), a complete QR (the null-space kernel), all with the
same one-thread BLAS as the commands, and a pure-Python loop.  The
optional argument is the number of threads that each run the whole work
at once, as the command's ``--workers`` threads do, so the gauge feels
the cores the command uses.  It prints one line so the caller can check
it ran to the end.

Usage: ``python3 perfbench/calibrate.py [THREADS]``
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REPEATS = 12


def work(seed: int) -> float:
    rng = np.random.default_rng(12345 + seed)
    a = rng.standard_normal((8, 64, 320)) + 1j * rng.standard_normal((8, 64, 320))
    b = rng.standard_normal((320, 96)) + 1j * rng.standard_normal((320, 96))
    total = 0.0
    for _ in range(REPEATS):
        gram = a @ np.conj(np.swapaxes(a, -1, -2))
        total += float(np.linalg.eigvalsh(gram).sum())
        q, _ = np.linalg.qr(b, mode="complete")
        total += float(abs(q[0, 0]))
        s = 0
        for i in range(20000):
            s += i * i
        total += s * 1e-18
    return total


def main() -> None:
    threads = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    if threads == 1:
        total = work(0)
    else:
        with ThreadPoolExecutor(threads) as pool:
            total = sum(pool.map(work, range(threads)))
    print(f"calibration {total:.6e}")


if __name__ == "__main__":
    main()
