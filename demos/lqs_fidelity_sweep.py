"""Sweep the linear-scissors truncation fidelity over input amplitude.

The scissors cut a coherent state down to its {|0>, |1>} part.  Perfect
hardware does this exactly; lossy beam splitters (Gamma > 0) and detectors
that miss photons (eta < 1) degrade the output.  This script prints the
closed-form fidelity across |alpha| for a few hardware grades, alongside
the lossless balanced-splitter benchmark.
"""

import numpy as np

from qscissors.lqs import sweep

GRADES = [
    ("ideal", 1.00, 0.00),
    ("good detectors, lossy BS", 1.00, 0.05),
    ("ideal BS, eta = 0.85", 0.85, 0.00),
    ("lossy BS and eta = 0.85", 0.85, 0.05),
]


def main():
    alphas = np.linspace(0.0, 2.0, 11)
    print("Truncation fidelity of the lossy scissors, balanced splitters")
    print()
    header = f"{'|alpha|':>8}" + "".join(f"{name:>28}" for name, _, _ in GRADES)
    print(header)
    _, eta, gamma = map(np.array, zip(*GRADES))
    f_closed = sweep(alphas[:, None], eta, gamma, (1 - gamma) / 2)["F_closed"]
    for alpha, row in zip(alphas, f_closed):
        print(f"{alpha:8.2f}" + "".join(f"{f:28.6f}" for f in row))
    print()
    print("The ideal column stays at 1: with eta = 1 and Gamma = 0 the")
    print("projection succeeds perfectly whenever it fires.  Loss hurts most")
    print("at large |alpha|, where more than one photon reaches the detectors.")
    print()
    print("Lossless splitters with inefficient detectors reduce to the")
    print("projection-synthesis benchmark:")
    print()
    table = sweep([0.5, 1.0, 1.5], 0.85, 0.0, 0.5)
    for alpha, f, f_ppb in zip(table["alpha_abs"], table["F_closed"], table["F_ppb"]):
        print(f"  |alpha| = {alpha:.1f}:  closed form {f:.12f}  benchmark {f_ppb:.12f}")


if __name__ == "__main__":
    main()
