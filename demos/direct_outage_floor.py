"""Why raising transmit power stops helping on the direct link.

Both base stations scale their power together, so the cross-cell
interference grows exactly as fast as the desired signal and the outage
probability saturates at a floor set by the channel statistics alone.
A user without the interferer would see outage fall off a cliff instead.
The Monte Carlo column double-checks the closed forms, which hold for any
number N of base-station antennas: change N in ``config`` to move the floor.
Its points share one memo dict, so the sweep draws its channels once.
"""

from relayarq.channel import SystemConfig
from relayarq.outage import outage_interference_n3, outage_single_user
from relayarq.simulate import simulate_direct

NOISE = 1e-3
TRIALS = 20_000


def config(snr_db: float) -> SystemConfig:
    return SystemConfig.at_snr(snr_db, N=3, M=3, noise_var=NOISE,
                               var_direct=2.0, var_cross=1.0, var_relay=4.0,
                               rate=2.0, retx=1)


def main():
    print(f"{'SNR dB':>7} {'single user':>12} {'interference':>13} "
          f"{'monte carlo':>12}")
    memos = {}                    # the sweep's draws, shared by its points
    for snr in range(0, 45, 5):
        cfg = config(snr)
        lone = outage_single_user(cfg)
        both = outage_interference_n3(cfg)
        mc = simulate_direct(cfg, TRIALS, seed=1, memos=memos).p_hat
        print(f"{snr:7.0f} {lone:12.2e} {both:13.5f} {mc:12.5f}")
    print()
    floor = outage_interference_n3(config(200.0))
    print(f"floor at 200 dB: {floor:.5f} (the interference never goes away)")


if __name__ == "__main__":
    main()
