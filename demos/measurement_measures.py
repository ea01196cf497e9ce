"""Comparing measurement devices through their output ensembles.

Feeding half of a maximally entangled pair into a measurement produces an
ensemble of post-measurement states; the distance between two devices is
read off those ensembles, either at the fixed entangled input (iso) or at
the worst input found by restarted gradient ascent (worst).
"""

import numpy as np

from ensemble_metrics import (
    dist_iso,
    dist_max,
    fid_iso,
    make_povm,
    povm_distance,
    povm_fidelity,
    projective_measurement,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def main() -> None:
    mz = projective_measurement(np.eye(2))
    mx = projective_measurement(HADAMARD)

    d = dist_iso(mz, mx).value
    f = fid_iso(mz, mx).value
    print("Z vs X readout, entangled input:")
    print(f"  distance {d:.9f}   (sqrt(3)/2 = {np.sqrt(3) / 2:.9f})")
    print(f"  fidelity {f:.9f}")

    worst, psi = dist_max(mz, mx)
    print("\nworst separable input over system x ancilla:")
    print(f"  distance {worst:.9f}")
    print(f"  attained at |psi| components {np.round(np.abs(psi), 6)}")

    pz = make_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    px = make_povm(
        [HADAMARD @ np.diag(v) @ HADAMARD for v in ([1.0, 0.0], [0.0, 1.0])]
    )
    print("\nsame pair viewed as POVMs (outcome statistics only):")
    print(f"  distance {povm_distance(pz, px).value:.9f}   (1/sqrt(2) = {1 / np.sqrt(2):.9f})")
    print(f"  fidelity {povm_fidelity(pz, px).value:.9f}")


if __name__ == "__main__":
    main()
