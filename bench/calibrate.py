"""A fixed unit of CPU work that run.py times between the rounds it measures.

    python3 bench/calibrate.py

It starts a Python process, imports numpy and runs the kind of code grasspack
spends its time in: interpreter-bound loops over small numpy arrays (Jacobi
rotations on 6x6 matrices) and plain Python arithmetic, about 1 s in all.  It
never imports grasspack, so no change to the program changes its work.  On a
shared machine the CPU speed swings by up to a factor of two within seconds;
run.py divides the mean round time by the mean calibration time of the same
run, so that the machine's speed cancels and a change in the program does not.
"""

from __future__ import annotations

import numpy as np

MATRICES = 450
SWEEPS = 6
PLAIN_LOOP = 1_000_000


def sweep(w: np.ndarray) -> None:
    """One cyclic sweep of one-sided Jacobi rotations over the columns of w."""
    k = w.shape[1]
    for p in range(k - 1):
        for q in range(p + 1, k):
            wp, wq = w[:, p].copy(), w[:, q].copy()
            a, b, g = float(wp @ wp), float(wq @ wq), float(wp @ wq)
            if g == 0.0:
                continue
            z = (b - a) / (2.0 * g)
            t = float(np.sign(z)) / (abs(z) + float(np.hypot(1.0, z))) if z else 1.0
            c = 1.0 / float(np.hypot(1.0, t))
            s = t * c
            w[:, p] = c * wp - s * wq
            w[:, q] = s * wp + c * wq


def main() -> int:
    mats = np.random.default_rng(0).standard_normal((MATRICES, 6, 6))
    nonzero = 0
    for m in mats:
        w = m.copy()
        for _ in range(SWEEPS):
            sweep(w)
        nonzero += int(np.linalg.det(w) != 0.0)
    residues = sum(i * i % 7 for i in range(PLAIN_LOOP))
    print(nonzero, residues)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
