import math

import numpy as np
import pytest

from pathfollow.geom import perp_left, signed_angle, wrap_angle


def test_signed_angle_quarter_turn():
    assert signed_angle((1, 0), (0, 1)) == pytest.approx(math.pi / 2)


def test_signed_angle_identity():
    assert signed_angle((1, 0), (1, 0)) == 0.0


def test_signed_angle_clockwise_eighth_turn():
    s = 1 / math.sqrt(2)
    assert signed_angle((0, 1), (s, s)) == pytest.approx(-math.pi / 4)


def test_signed_angle_zero_vector_raises():
    with pytest.raises(ValueError, match="degenerate direction"):
        signed_angle((0, 0), (1, 0))
    with pytest.raises(ValueError, match="degenerate direction"):
        signed_angle((1, 0), (0, 0))


def test_signed_angle_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = tuple(rng.uniform(-1, 1, 2))
        b = tuple(rng.uniform(-1, 1, 2))
        if math.hypot(*a) < 1e-6 or math.hypot(*b) < 1e-6:
            continue
        ab = signed_angle(a, b)
        if abs(abs(ab) - math.pi) < 1e-9:
            continue  # antipodal pairs sit on the branch cut
        assert ab == pytest.approx(-signed_angle(b, a), abs=1e-12)


def test_signed_angle_branch_is_half_open():
    # Antipodal directions map to +pi, never -pi.
    assert signed_angle((1, 0), (-1, 0)) == pytest.approx(math.pi)
    assert signed_angle((0, 1), (0, -1)) == pytest.approx(math.pi)


def test_wrap_angle_branch():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_perp_left_is_quarter_turn():
    assert signed_angle((3, 1), perp_left((3, 1))) == pytest.approx(math.pi / 2)
