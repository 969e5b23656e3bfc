"""Kernel contract tests: splitmix64 stream, angle wrapping, and the
reported backend name."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from quasizeros import _kernels_py as kp
from quasizeros._backend import backend_name


def test_splitmix64_reference_stream():
    # reference values for seed 0 (standard splitmix64 test vector)
    state = 0
    outs = []
    for _ in range(3):
        state, z = kp.sm64(state)
        outs.append(z)
    assert outs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_uniform_in_unit_interval():
    state = 987654321
    for _ in range(1000):
        state, z = kp.sm64(state)
        u = (z >> 11) * (1.0 / 9007199254740992.0)
        assert 0.0 <= u < 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_wrap_angle_principal(x):
    y = kp.wrap_angle(x)
    assert -math.pi < y <= math.pi
    # same angle modulo 2*pi
    assert abs(math.sin(y) - math.sin(x)) < 1e-7
    assert abs(math.cos(y) - math.cos(x)) < 1e-7


def test_wrap_angle_boundaries():
    assert kp.wrap_angle(math.pi) == math.pi
    assert kp.wrap_angle(-math.pi) == math.pi
    assert kp.wrap_angle(0.0) == 0.0


def test_active_backend_reported():
    assert backend_name() == "python"
