"""Where the ensemble measures sit and what the flag construction shows.

Draws random ensemble pairs, prints the bracket

    trace_distance(averages)  <=  ehs_distance  <=  kantorovich_distance

then reproduces the closed forms on flagged ensembles and the pinned
instance where a flag-basis readout makes the coupling distance grow.
"""

import numpy as np

from ensemble_metrics import (
    apply_measurement,
    average_state,
    ehs_distance,
    flagged_closed_form_distance,
    kantorovich_distance,
    make_ensemble,
    make_measurement,
    pure_state,
    tensor,
    trace_distance,
)
from ensemble_metrics.oracle import random_ensemble


def show_bracket(seed: int) -> None:
    a = random_ensemble(2, size=3, seed=seed)
    b = random_ensemble(2, size=2, seed=seed + 1000)
    lo = trace_distance(average_state(a), average_state(b))
    dk, _ = kantorovich_distance(a, b)
    rep = ehs_distance(a, b)
    print(f"  seed {seed}: avg {lo:.6f} <= ehs {rep.value:.6f} <= coupling {dk:.6f}")
    assert lo <= rep.value + 1e-4 <= dk + 2e-4


def flag(ens, dim_flags):
    pairs = []
    for i, (w, rho) in enumerate(zip(ens.probs, ens.states)):
        proj = np.zeros((dim_flags, dim_flags))
        proj[i, i] = 1.0
        pairs.append((w, tensor(rho, proj)))
    return make_ensemble(pairs)


def main() -> None:
    print("bracket on random pairs:")
    for seed in range(5):
        show_bracket(seed)

    print("\nflagged ensembles collapse the coupling LP to a closed form:")
    a = random_ensemble(2, size=2, seed=11)
    b = random_ensemble(2, size=2, seed=12)
    fa, fb = flag(a, 2), flag(b, 2)
    dk, _ = kantorovich_distance(fa, fb)
    closed = flagged_closed_form_distance(
        list(zip(a.probs, a.states)), list(zip(b.probs, b.states))
    )
    print(f"  LP on flagged pair  {dk:.12f}")
    print(f"  closed form         {closed:.12f}")

    print("\ncoupling distance can increase under a measurement:")
    zero = pure_state(np.array([1.0, 0.0]))
    half = np.eye(2) / 2.0
    flags = [pure_state(np.eye(2)[i]) for i in range(2)]
    a = make_ensemble(
        [(1.0, 0.75 * tensor(zero, flags[0]) + 0.25 * tensor(zero, flags[1]))]
    )
    b = make_ensemble(
        [(1.0, 0.25 * tensor(half, flags[0]) + 0.75 * tensor(half, flags[1]))]
    )
    before, _ = kantorovich_distance(a, b)
    readout = make_measurement(
        [
            (0.5, [np.sqrt(2.0) * tensor(np.eye(2), pure_state(np.eye(2)[i]))])
            for i in range(2)
        ]
    )
    after, _ = kantorovich_distance(apply_measurement(readout, a), apply_measurement(readout, b))
    print(f"  before flag readout {before:.6f}")
    print(f"  after  flag readout {after:.6f}")


if __name__ == "__main__":
    main()
