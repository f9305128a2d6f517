"""Simultaneous relay retransmission to both users, step by step.

When both users miss their packets the relay serves them at once and the
fair objective is the worst of the two SINRs. The script solves one
instance and walks through what comes back: the balanced SINR, the dual
uplink powers that balance it (closed form, q1 ||h1||^2 = q2 ||h2||^2),
the beams, and how the power budget is split between the two users.
"""

import numpy as np

from relayarq.channel import cn
from relayarq.relay_multi import max_min_sinr

POWER = 20.0
NOISE = 1.0


def main():
    rng = np.random.default_rng(11)
    h1 = cn(rng, 3, 4.0)
    h2 = cn(rng, 3, 4.0)

    sol = max_min_sinr(h1, h2, POWER, noise_var=NOISE)
    p1 = np.linalg.norm(sol.b1) ** 2
    p2 = np.linalg.norm(sol.b2) ** 2
    print(f"max-min SINR t*:          {sol.t_star:.6f}")
    print(f"achieved SINRs:           {sol.sinr1:.6f}, {sol.sinr2:.6f}")
    print(f"dual uplink powers:       {sol.q1:.6f} + {sol.q2:.6f}")
    print(f"power split:              {p1:.6f} + {p2:.6f} = {p1 + p2:.6f} "
          f"of {POWER}")
    print(f"rate at t*:               {np.log2(1.0 + sol.t_star):.4f} "
          f"bits per channel use")
    print()

    # tighter arrays help: same channels padded tell the story crudely,
    # so draw fresh ones per size instead
    print(f"{'M':>3} {'t*':>10} {'power to user 1':>16}")
    for m in (2, 3, 4, 6):
        g1 = cn(rng, m, 4.0)
        g2 = cn(rng, m, 4.0)
        s = max_min_sinr(g1, g2, POWER, noise_var=NOISE)
        print(f"{m:3d} {s.t_star:10.4f} {np.linalg.norm(s.b1) ** 2:16.4f}")


if __name__ == "__main__":
    main()
