"""Rotation algebra: hand-checked examples plus property-based sweeps."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    PotentialPair,
    UnitSystem,
    _asymmetrizing_angle,
    _charge_norm,
    asymmetrizing_angle,
    charge_norm,
    field_quadratic_form,
    inverse_rotate_fields,
    potential_quadratic_form,
    rotate_charge_components,
    rotate_charges,
    rotate_fields,
    rotate_potentials,
)

NAT = UnitSystem.natural()
XHAT = np.array([1.0, 0.0, 0.0])
ZERO3 = np.zeros(3)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def vec3(draw):
    return np.array([draw(coords) for _ in range(3)])


def rel_diff(a, b):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


# --- hand-checked examples ------------------------------------------------


def test_quarter_turn_sends_electric_to_magnetic():
    out = rotate_fields(FieldVecPair(XHAT, ZERO3), math.pi / 2, NAT)
    np.testing.assert_allclose(out.E, ZERO3, atol=1e-15)
    np.testing.assert_allclose(out.B, XHAT, atol=1e-15)


def test_quarter_turn_sends_magnetic_to_minus_electric():
    out = rotate_fields(FieldVecPair(ZERO3, XHAT), math.pi / 2, NAT)
    np.testing.assert_allclose(out.E, -XHAT, atol=1e-15)
    np.testing.assert_allclose(out.B, ZERO3, atol=1e-15)


def test_quarter_turn_with_nonunit_light_speed():
    units = UnitSystem(c=2.0, eps0=1.0)
    out = rotate_fields(FieldVecPair(2.0 * XHAT, ZERO3), math.pi / 2, units)
    np.testing.assert_allclose(out.B, XHAT, atol=1e-15)
    out = inverse_rotate_fields(FieldVecPair(2.0 * XHAT, ZERO3), math.pi / 2, units)
    np.testing.assert_allclose(out.B, -XHAT, atol=1e-15)


def test_charge_quarter_turn():
    out = rotate_charges(ChargePair(1.0, 0.0), math.pi / 2, NAT)
    assert out.qe == pytest.approx(0.0, abs=1e-15)
    assert out.qm == pytest.approx(-1.0, rel=1e-15)


def test_potential_quarter_turn():
    A = np.array([1.0, 0.0, 0.0, 0.0])
    out = rotate_potentials(PotentialPair(A, np.zeros(4)), math.pi / 2, NAT)
    np.testing.assert_allclose(out.A, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(out.C, -A, atol=1e-15)


def test_charge_norm_is_pythagorean():
    assert charge_norm(ChargePair(3.0, 4.0), NAT) == pytest.approx(5.0)
    units = UnitSystem(c=2.0, eps0=0.5)
    assert charge_norm(ChargePair(3.0, 4.0), units) == pytest.approx(5.0)


def test_asymmetrizing_angle_of_equal_pair_is_quarter_pi():
    assert asymmetrizing_angle(ChargePair(1.0, 1.0), NAT) == pytest.approx(math.pi / 4)


def test_asymmetrizing_angle_rejects_zero_pair():
    with pytest.raises(ValueError, match="zero charge pair"):
        asymmetrizing_angle(ChargePair(0.0, 0.0), NAT)


def test_asymmetrizing_rotation_is_exact_for_subnormal_si_pair():
    # c eps0 qm lies below the normal range here; it must not be rounded there
    units = UnitSystem.si()
    cp = ChargePair(1.75671244504e-313, -1.6475543748705e-311)
    with localcontext() as ctx:
        ctx.prec = 60
        ce = Decimal(units.c * units.eps0)
        exact = float((Decimal(cp.qe) ** 2 + (ce * Decimal(cp.qm)) ** 2).sqrt())
    assert charge_norm(cp, units) == exact
    out = rotate_charges(cp, asymmetrizing_angle(cp, units), units)
    assert (out.qe, out.qm) == (charge_norm(cp, units), 0.0)


@pytest.mark.parametrize("pair", [(1e200, 1e-200), (1e-300, 5e-324), (0.0, 5e-324)])
@pytest.mark.parametrize("units", [NAT, UnitSystem.si()], ids=["natural", "si"])
def test_charge_rotation_by_zero_keeps_far_smaller_component(pair, units):
    cp = ChargePair(*pair)
    assert rotate_charges(cp, 0.0, units) == cp


def test_charge_rotation_overflow_raises_non_finite_input():
    # qm' = -qe / (c eps0) exceeds the float range in SI units
    with pytest.raises(ValueError, match="non-finite values"):
        rotate_charges(ChargePair(1e308, 0.0), math.pi / 2, UnitSystem.si())


@pytest.mark.parametrize(
    "qe, qm, theta, units, component",
    [
        (1e308, 0.0, math.pi / 2, UnitSystem.si(), "qm"),
        (np.array([1.0, 1e308]), np.array([0.0, 0.0]), math.pi / 2, UnitSystem.si(), "qm"),
        (np.array([1.7e308]), np.array([1.7e308]), math.pi / 4, NAT, "qe"),
        (np.array([1.7e308, 1.0]), np.array([1.7e308, 1.0]), np.array([-math.pi / 4, 0.5]), NAT,
         "qm"),
    ],
    ids=["scalar", "array", "sum", "angle-array"],
)
def test_charge_component_overflow_raises_naming_the_component(qe, qm, theta, units, component):
    # finite inputs whose rotation leaves the float range: no inf, nan or warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"component '{component}'"):
            rotate_charge_components(qe, qm, theta, units)


@pytest.mark.parametrize(
    "qe, qm, units",
    [
        (1.5e308, 1.5e308, NAT),  # the hypot overflows
        (0.0, 1.7e308, UnitSystem(c=3.0, eps0=1.0)),  # c eps0 qm overflows before it
    ],
    ids=["hypot", "c-eps0-qm"],
)
def test_charge_norm_overflow_raises(qe, qm, units):
    # a finite pair whose norm leaves the float range: no inf or warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="component 'charge_norm'"):
            charge_norm(ChargePair(qe, qm), units)
        with pytest.raises(ValueError, match="component 'charge_norm'"):
            _charge_norm(np.array([1.0, qe]), np.array([1.0, qm]), units)


def test_asymmetrizing_angle_survives_an_overflowing_c_eps0_qm():
    # c eps0 qm overflows, but the angle only needs the ratio of the two sides
    units = UnitSystem(c=3.0, eps0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert asymmetrizing_angle(ChargePair(1.7e308, 1.7e308), units) == math.atan2(3.0, 1.0)
        assert asymmetrizing_angle(ChargePair(-1.7e308, -1.7e308), units) == math.atan2(-3.0, -1.0)
        assert asymmetrizing_angle(ChargePair(5e-324, 1.7e308), units) == math.pi / 2
        rng = np.random.default_rng(7)
        qe = rng.uniform(-1.0, 1.0, 500) * 2.0 ** rng.integers(900, 1024, 500)
        qm = rng.uniform(-1.0, 1.0, 500) * 1.7e308
        angles = _asymmetrizing_angle(qe, qm, units)
    # the same pairs scaled down by an exact power of two, where nothing overflows
    scaled = [math.atan2(3.0 * math.ldexp(m, -64), math.ldexp(e, -64)) for e, m in zip(qe, qm)]
    assert np.array_equal(angles, scaled)


@pytest.mark.parametrize(
    "pair, quarter_turns",
    [((1.0, 1.0), 0.5), ((-1.0, 1.0), 1.5), ((-1.0, -1.0), -1.5), ((1.0, -1.0), -0.5)],
)
def test_asymmetrizing_angle_lies_in_one_turn(pair, quarter_turns):
    theta = asymmetrizing_angle(ChargePair(*pair), NAT)
    assert isinstance(theta, float)
    assert -math.pi <= theta <= math.pi
    assert theta == pytest.approx(quarter_turns * math.pi / 2)


def test_tiny_negative_angles_are_not_rounded_to_a_full_turn():
    # % 2 pi would turn -1e-17 into the float 2 pi, whose sine is -2.4e-16
    cp = ChargePair(1.0, -1e-17)
    assert rotate_charges(cp, asymmetrizing_angle(cp, NAT), NAT) == ChargePair(1.0, 0.0)
    assert rotate_charges(cp, -1e-17, NAT).qm == 0.0


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "units", [NAT, UnitSystem.si(), UnitSystem(c=3.0, eps0=0.2)], ids=["natural", "si", "c3-eps0.2"]
)
def test_dual_maps_equal_their_docstring_formulas_bitwise(units):
    # each reference is the docstring formula, grouped as the maps evaluate it
    rng = np.random.default_rng(17)
    c, ce = units.c, units.c * units.eps0

    def draw(n):
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
        values[rng.random(n) < 0.2] = 0.0
        return values * rng.choice([-1.0, 1.0], n)  # zeros of both signs

    for theta in [0.0, math.pi / 2, math.pi, *rng.uniform(-10.0, 10.0, 20)]:
        t = math.fmod(theta, 2.0 * math.pi)
        ct, st = math.cos(t), math.sin(t)
        E, B = draw(12).reshape(3, 4), draw(12).reshape(3, 4)
        A, C = draw(16).reshape(4, 4), draw(16).reshape(4, 4)
        out = rotate_fields(FieldVecPair(E, B), theta, units)
        assert same_bits(out.E, E * ct - c * B * st) and same_bits(out.B, B * ct + E * (st / c))
        out = inverse_rotate_fields(FieldVecPair(E, B), theta, units)
        assert same_bits(out.E, E * ct + c * B * st) and same_bits(out.B, B * ct - E * (st / c))
        out = rotate_potentials(PotentialPair(A, C), theta, units)
        assert same_bits(out.A, A * ct + C * (st / c)) and same_bits(out.C, C * ct - c * A * st)
        qe, qm = rotate_charge_components(E[0], B[0], theta, units)
        assert same_bits(qe, E[0] * ct + ce * B[0] * st)
        assert same_bits(qm, B[0] * ct - E[0] * (st / ce))
        for pair in zip(A[0], C[0]):  # normal-range pairs: the rescaling changes no bit
            out = rotate_charges(ChargePair(*pair), theta, units)
            qe, qm = pair
            assert same_bits(out.qe, qe * ct + ce * qm * st)
            assert same_bits(out.qm, qm * ct - qe * (st / ce))


def test_unit_system_keeps_permeability_consistent():
    for units in (NAT, UnitSystem.si(), UnitSystem(c=3.0, eps0=0.2)):
        assert units.mu0 * units.eps0 * units.c**2 == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e200, 1e-300])
def test_unit_system_rejects_bad_light_speed(bad):
    with pytest.raises(ValueError):
        UnitSystem(c=bad)


def test_rotate_fields_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite values"):
        rotate_fields(FieldVecPair(np.array([np.nan, 0, 0]), ZERO3), 0.3, NAT)


def test_field_pair_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        FieldVecPair(np.zeros(3), np.zeros((3, 2)))


def test_potential_pair_needs_four_components():
    with pytest.raises(ValueError):
        PotentialPair(np.zeros(3), np.zeros(3))


# --- property-based sweeps --------------------------------------------------


@settings(deadline=None)
@given(st.data())
def test_field_rotations_compose(data):
    fp = FieldVecPair(vec3(data.draw), vec3(data.draw))
    t1, t2 = data.draw(angles), data.draw(angles)
    twice = rotate_fields(rotate_fields(fp, t1, NAT), t2, NAT)
    direct = rotate_fields(fp, t1 + t2, NAT)
    assert rel_diff(twice.E, direct.E) < 1e-12
    assert rel_diff(twice.B, direct.B) < 1e-12


@settings(deadline=None)
@given(st.data())
def test_field_rotation_round_trips(data):
    fp = FieldVecPair(vec3(data.draw), vec3(data.draw))
    t = data.draw(angles)
    back = inverse_rotate_fields(rotate_fields(fp, t, NAT), t, NAT)
    assert rel_diff(back.E, fp.E) < 1e-12
    assert rel_diff(back.B, fp.B) < 1e-12


@settings(deadline=None)
@given(st.data())
def test_field_rotation_is_periodic(data):
    fp = FieldVecPair(vec3(data.draw), vec3(data.draw))
    t = data.draw(angles)
    a = rotate_fields(fp, t, NAT)
    b = rotate_fields(fp, t + 2.0 * math.pi, NAT)
    assert rel_diff(a.E, b.E) < 1e-12
    assert rel_diff(a.B, b.B) < 1e-12


@settings(deadline=None)
@given(st.data())
def test_field_quadratic_form_is_invariant(data):
    units = UnitSystem(c=data.draw(st.floats(min_value=0.5, max_value=5.0)), eps0=1.0)
    fp = FieldVecPair(vec3(data.draw), vec3(data.draw))
    t = data.draw(angles)
    before = field_quadratic_form(fp, units)
    after = field_quadratic_form(rotate_fields(fp, t, units), units)
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


@settings(deadline=None)
@given(qe=coords, qm=coords, t1=angles, t2=angles)
def test_charge_rotations_compose_and_invert(qe, qm, t1, t2):
    cp = ChargePair(qe, qm)
    twice = rotate_charges(rotate_charges(cp, t1, NAT), t2, NAT)
    direct = rotate_charges(cp, t1 + t2, NAT)
    scale = max(charge_norm(cp, NAT), 1.0)
    assert abs(twice.qe - direct.qe) / scale < 1e-12
    assert abs(twice.qm - direct.qm) / scale < 1e-12
    back = rotate_charges(rotate_charges(cp, t1, NAT), -t1, NAT)
    assert abs(back.qe - cp.qe) / scale < 1e-12
    assert abs(back.qm - cp.qm) / scale < 1e-12


@settings(deadline=None)
@given(qe=coords, qm=coords, t=angles)
def test_charge_norm_is_invariant(qe, qm, t):
    cp = ChargePair(qe, qm)
    scale = max(charge_norm(cp, NAT), 1.0)
    assert abs(charge_norm(rotate_charges(cp, t, NAT), NAT) - charge_norm(cp, NAT)) / scale < 1e-12


@settings(deadline=None)
@given(qe=coords, qm=coords)
@example(qe=5e-324, qm=5e-324)
def test_asymmetrizing_angle_kills_magnetic_component(qe, qm):
    cp = ChargePair(qe, qm)
    norm = charge_norm(cp, NAT)
    if norm == 0.0:
        return
    out = rotate_charges(cp, asymmetrizing_angle(cp, NAT), NAT)
    assert abs(out.qm) / norm < 1e-12
    assert abs(out.qe - norm) / norm < 1e-12


# normal, subnormal and zero components of both signs
components = st.one_of(
    coords,
    st.floats(min_value=-1e-306, max_value=1e-306, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(deadline=None)
@given(st.data())
def test_charge_component_arrays_match_scalar_path(data):
    units = data.draw(st.sampled_from([NAT, UnitSystem.si(), UnitSystem(c=3.0, eps0=0.2)]))
    qe = np.array([data.draw(components) for _ in range(4)])
    qm = np.array([data.draw(components) for _ in range(4)])
    t = data.draw(st.one_of(angles, st.lists(angles, min_size=4, max_size=4).map(np.array)))
    qe_r, qm_r = rotate_charge_components(qe, qm, t, units)
    norms, thetas = _charge_norm(qe, qm, units), _asymmetrizing_angle(qe, qm, units)
    for i in range(4):
        cp = ChargePair(qe[i], qm[i])
        single = rotate_charges(cp, t if np.ndim(t) == 0 else t[i], units)
        assert same_bits(qe_r[i], single.qe) and same_bits(qm_r[i], single.qm)
        assert same_bits(norms[i], charge_norm(cp, units))
        if (qe[i], qm[i]) != (0.0, 0.0):
            assert same_bits(thetas[i], asymmetrizing_angle(cp, units))


def test_charge_norm_and_angle_keep_the_math_module_rounding():
    # pairs of unit size are not rescaled; np.hypot and np.arctan2 differ in
    # the last place on a share of them
    rng = np.random.default_rng(3)
    qe, qm = rng.uniform(1.0, 2.0, (2, 2000)) * rng.choice([-1.0, 1.0], (2, 2000))
    assert same_bits(_charge_norm(qe, qm, NAT), [math.hypot(a, b) for a, b in zip(qe, qm)])
    assert same_bits(_asymmetrizing_angle(qe, qm, NAT),
                     [math.atan2(b, a) for a, b in zip(qe, qm)])


@settings(deadline=None)
@given(st.data())
def test_potential_rotations_compose_and_preserve_form(data):
    A = np.array([data.draw(coords) for _ in range(4)])
    C = np.array([data.draw(coords) for _ in range(4)])
    pp = PotentialPair(A, C)
    t1, t2 = data.draw(angles), data.draw(angles)
    twice = rotate_potentials(rotate_potentials(pp, t1, NAT), t2, NAT)
    direct = rotate_potentials(pp, t1 + t2, NAT)
    assert rel_diff(twice.A, direct.A) < 1e-12
    assert rel_diff(twice.C, direct.C) < 1e-12
    before = potential_quadratic_form(pp, NAT)
    after = potential_quadratic_form(rotate_potentials(pp, t1, NAT), NAT)
    scale = max(float(np.sum(A**2) + np.sum(C**2)), 1.0)
    assert abs(after - before) / scale < 1e-12


@settings(deadline=None)
@given(st.data())
def test_potential_rotation_shifts_constraint_angle(data):
    # if C = cA tan(t0), rotating by phi moves the constraint angle to t0 - phi
    t0 = data.draw(st.floats(min_value=-1.0, max_value=1.0))
    phi = data.draw(st.floats(min_value=-1.0, max_value=1.0))
    A = np.array([data.draw(coords) for _ in range(4)])
    if float(np.max(np.abs(A))) < 1e-3:
        return
    pp = PotentialPair(A, A * math.tan(t0))
    rotated = rotate_potentials(pp, phi, NAT)
    residual = rotated.C * math.cos(t0 - phi) - NAT.c * rotated.A * math.sin(t0 - phi)
    scale = max(np.max(np.abs(rotated.C)), np.max(np.abs(NAT.c * rotated.A)))
    assert np.max(np.abs(residual)) < 1e-12 * scale
