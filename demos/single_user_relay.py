"""Relay retransmission for one user without disturbing the other.

When only one user misses its packet, the relay steers the retransmission
into the null space of the successful user's channel. The best such beam
has a closed form: project the target channel orthogonally to the
protected one and spend the whole power budget on the result. The script
solves a random instance, verifies the projector formula, and sweeps the
relay array size to show how the zero-forcing cost shrinks.
"""

import numpy as np

from relayarq.channel import SystemConfig, cn, substream
from relayarq.relay_single import optimal_gain, solve_single_user_beamformer

POWER = 10.0


def main():
    rng = np.random.default_rng(3)
    cfg = SystemConfig(N=3, M=4, P=POWER, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    # user 0 already has its packet
    g_protect, g_target = cn(substream(3, 0, 0), (2, cfg.M), cfg.var_relay)

    b = solve_single_user_beamformer(g_protect, g_target, cfg.Pr_single)
    print(f"relay antennas:          {cfg.M}")
    print(f"achieved |b^H g|^2:      {abs(np.vdot(b, g_target)) ** 2:.6f}")
    print(f"projector formula:       "
          f"{optimal_gain(g_protect, g_target, cfg.Pr_single):.6f}")
    print(f"leakage to protected:    {abs(np.vdot(b, g_protect)):.2e}")
    print(f"power spent:             {np.vdot(b, b).real:.6f} of {cfg.Pr_single}")
    print()

    # more antennas leave more room next to the null-space constraint, so
    # the gap to the unconstrained beamformer closes
    print(f"{'M':>3} {'zero-forced gain':>17} {'unconstrained':>14}")
    for m in range(2, 9):
        g_p = cn(rng, m, cfg.var_relay)
        g_t = cn(rng, m, cfg.var_relay)
        zf = optimal_gain(g_p, g_t, POWER)
        free = POWER * float(np.vdot(g_t, g_t).real)
        print(f"{m:3d} {zf:17.4f} {free:14.4f}")


if __name__ == "__main__":
    main()
