"""Property test of the b-bit surface: quantize_surface against its reference formula."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim.beamforming import quantize_levels, quantize_surface

PROPERTY = settings(derandomize=True, database=None, max_examples=75, deadline=None)

# Real and imaginary parts: any float in [-2, 2] (amplitudes past 1 are clipped), or a
# multiple of 1/128 with either sign of zero.  On an axis those put the amplitude on a
# level tie at every b <= 6, and the axes and diagonals put the phase on a tie, on +-pi
# (a negative real part with +-0 imaginary part) or on a signed zero.
parts = st.one_of(st.floats(-2.0, 2.0),
                  st.integers(-256, 256).map(lambda i: i / 128),
                  st.sampled_from([0.0, -0.0]))
coefficients = st.lists(st.builds(complex, parts, parts), min_size=1, max_size=48)


@pytest.mark.parametrize("bits", range(1, 7))
@PROPERTY
@given(phi=coefficients)
def test_quantize_surface_is_levels_times_phasor(bits, phi):
    phi = np.array(phi, dtype=np.complex128)
    amp, ph = quantize_levels(np.abs(phi), np.angle(phi), bits)
    assert quantize_surface(phi, bits).tobytes() == (amp * np.exp(1j * ph)).tobytes()
