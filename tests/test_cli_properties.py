"""Property tests of --sweep parsing over generated specs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim.cli import parse_sweep
from scbsim.scenario import INT_FIELDS, NUMERIC_FIELDS, ConfigError

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
FLOAT_FIELDS = tuple(f for f in NUMERIC_FIELDS if f not in INT_FIELDS)

finite = st.floats(allow_nan=False, allow_infinity=False)
# quarters are exact in binary, so a float range's points are exact too
quarters = st.integers(-4000, 4000).map(lambda n: n / 4)
non_finite = st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"))


@st.composite
def ranges(draw, integer):
    """(start, stop, step, points): stop lies on or past the last point by less than a step."""
    start = draw(st.integers(-10 ** 6, 10 ** 6) if integer else quarters)
    step = draw(st.integers(1, 10 ** 4) if integer else quarters.filter(bool))
    step *= draw(st.sampled_from((1, -1)))
    points = tuple(start + i * step for i in range(draw(st.integers(1, 20))))
    past = draw(st.integers(0, abs(step) - 1) if integer else st.integers(0, 3).map(lambda q: q / 4))
    stop = points[-1] + (past if step > 0 else -past) * (1 if integer else abs(step))
    return start, stop, step, points


@PROPERTY
@given(st.sampled_from(FLOAT_FIELDS), st.lists(finite, min_size=1, max_size=6))
def test_float_list_roundtrip(var, values):
    assert parse_sweep(f"{var}={','.join(map(repr, values))}") == (var, tuple(values))


@PROPERTY
@given(st.sampled_from(INT_FIELDS), st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1,
                                             max_size=6))
def test_integer_list_roundtrip(var, values):
    got = parse_sweep(f"{var}={','.join(map(str, values))}")
    assert got == (var, tuple(values)) and all(type(v) is int for v in got[1])


@PROPERTY
@given(st.sampled_from(FLOAT_FIELDS), ranges(integer=False))
def test_float_range_roundtrip(var, spec):
    start, stop, step, points = spec
    assert parse_sweep(f"{var}={start!r}:{stop!r}:{step!r}") == (var, points)


@PROPERTY
@given(st.sampled_from(INT_FIELDS), ranges(integer=True))
def test_integer_range_stays_integer(var, spec):
    start, stop, step, points = spec
    got = parse_sweep(f"{var}={start}:{stop}:{step}")
    assert got == (var, points) and all(type(v) is int for v in got[1])


@PROPERTY
@given(st.sampled_from(NUMERIC_FIELDS), quarters, quarters,
       st.sampled_from(("0", "0.0", "-0.0", "0e3", "-0")))
def test_zero_step_raises(var, start, stop, zero):
    with pytest.raises(ConfigError):
        parse_sweep(f"{var}={start!r}:{stop!r}:{zero}")


@PROPERTY
@given(st.sampled_from(NUMERIC_FIELDS), ranges(integer=True))
def test_step_in_wrong_direction_raises(var, spec):
    start, stop, step, points = spec
    if stop == start:   # a single point has no direction
        stop = start + step
    with pytest.raises(ConfigError):
        parse_sweep(f"{var}={start}:{stop}:{-step}")


@PROPERTY
@given(st.sampled_from(NUMERIC_FIELDS), st.lists(quarters, min_size=3, max_size=5),
       non_finite, st.data())
def test_non_finite_value_raises(var, values, bad, data):
    cells = [repr(v) for v in values]
    where = data.draw(st.integers(0, len(cells) - 1))
    cells[where] = bad
    with pytest.raises(ConfigError):
        parse_sweep(f"{var}={','.join(cells)}")
    if where < 3:   # the same cell as a range's start, stop or step
        with pytest.raises(ConfigError):
            parse_sweep(f"{var}={':'.join(cells[:3])}")


@PROPERTY
@given(st.text(st.characters(codec="ascii", exclude_characters="="), min_size=1)
       .filter(lambda v: v.strip() not in NUMERIC_FIELDS), quarters)
def test_unknown_variable_raises(var, value):
    with pytest.raises(ConfigError):
        parse_sweep(f"{var}={value!r}")
