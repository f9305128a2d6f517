"""Every real parameter of the library takes any value: a float (NaN and
±inf included), an int past float range, text, None or a complex number
either runs or raises ContractViolationError, never another exception.
Each such parameter is read by ``channel.real`` before any arithmetic."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayarq.channel import (MAX_FINITE, MIN_POSITIVE, ContractViolationError,
                              SystemConfig, cn, real, substream)
from relayarq.outage import arq_outage, cdf_diff_exp
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import optimal_gain, solve_single_user_beamformer

from _oracles import cn_vector

CFG = dict(N=3, M=3, P=100.0, noise_var=1.0, var_direct=2.0, var_cross=1.0,
           var_relay=4.0, rate=2.0)
AT_SNR = {key: v for key, v in CFG.items() if key not in ("P", "noise_var")}
G1, G2 = (cn_vector(np.random.default_rng(8), 3, 1.0) for _ in range(2))


def config_with(name, x):
    return SystemConfig(**{**CFG, name: x})


# every real parameter, as a call of that parameter alone
CALLS = {
    **{f"SystemConfig.{name}": partial(config_with, name)
       for name in ("P", "noise_var", "var_direct", "var_cross", "var_relay",
                    "rate")},
    "at_snr.snr_db": lambda x: SystemConfig.at_snr(x, noise_var=1.0,
                                                   **AT_SNR),
    "at_snr.noise_var": lambda x: SystemConfig.at_snr(10.0, noise_var=x,
                                                      **AT_SNR),
    "cn.var": lambda x: cn(substream(1, 0, 0), 3, x),
    "cdf_diff_exp.c": lambda x: cdf_diff_exp(x, 1.5, 3),
    "cdf_diff_exp.kappa": lambda x: cdf_diff_exp(0.5, x, 3),
    "arq_outage.p_single": lambda x: arq_outage(x, 2),
    "optimal_gain.power": lambda x: optimal_gain(G1, G2, x),
    "solve_single_user_beamformer.power":
        lambda x: solve_single_user_beamformer(G1, G2, x),
    "max_min_sinr.power": lambda x: max_min_sinr(G1, G2, x),
    "max_min_sinr.noise_var": lambda x: max_min_sinr(G1, G2, 1.0, x),
}

ANY_VALUE = st.one_of(
    st.floats(),                                  # NaN and ±inf included
    st.integers(-(2 ** 1100), 2 ** 1100),         # past float range too
    st.text(max_size=4),
    st.none(),
    st.complex_numbers(),
)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(value=ANY_VALUE)
@example(value=None)
@example(value="1")
@example(value=10 ** 400)
@example(value=-10 ** 400)
@example(value=float("nan"))
@example(value=1j)
def test_a_real_parameter_runs_or_refuses_any_value(call, value):
    try:
        call(value)
    except ContractViolationError:
        pass


@pytest.mark.parametrize("value, low, high, message", [
    (None, 0, 1, "x must be a real number"),
    ("1", 0, 1, "x must be a real number"),
    (1j, 0, 1, "x must be a real number"),
    (float("nan"), 0, 1, "x must be a real number"),
    (np.float64("nan"), 0, 1, "x must be a real number"),
    (-1e-300, 0, 1, "x must be at least 0"),
    # compared as a float, not with the bound cast to float32, where the
    # smallest positive double is 0
    (np.float32(0.0), MIN_POSITIVE, 1, f"x must be at least {MIN_POSITIVE!r}"),
    (10 ** 400, 0, MAX_FINITE, f"x must be at most {MAX_FINITE!r}"),
    (-(10 ** 400), -MAX_FINITE, 0, f"x must be at least {-MAX_FINITE!r}"),
    (float("inf"), 0, MAX_FINITE, f"x must be at most {MAX_FINITE!r}"),
    (Fraction(10 ** 400, 3), 0, MAX_FINITE, f"x must be at most {MAX_FINITE!r}"),
])
def test_real_refuses(value, low, high, message):
    with pytest.raises(ContractViolationError) as info:
        real(value, "x", low, high)
    assert str(info.value) == message


def test_real_returns_a_float_in_its_closed_interval():
    assert real(True, "x") == 1.0 and type(real(True, "x")) is float
    assert type(real(np.float32(0.5), "x", 0, 1)) is float
    assert real(0, "x", 0, 1) == 0.0 and real(1, "x", 0, 1) == 1.0
    assert real(Fraction(1, 3), "x", 0, 1) == 1 / 3
    assert real(MAX_FINITE, "x", 0, MAX_FINITE) == MAX_FINITE
    # an int is compared with every digit before it is rounded: one past
    # MAX_FINITE rounds to MAX_FINITE but lies above it. Within an infinite
    # bound, an int past float range reads as that infinity
    with pytest.raises(ContractViolationError) as info:
        real(int(MAX_FINITE) + 1, "x", 0, MAX_FINITE)
    assert str(info.value) == f"x must be at most {MAX_FINITE!r}"
    assert real(2 ** 1024 - 1, "x") == float("inf")
    assert real(-(10 ** 400), "x", -float("inf"), 0) == float("-inf")
