import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from berkpot.places import (
    NEG_INF,
    POS_INF,
    Place,
    PlaceError,
    abs_log_value,
    flow_place,
    place_from_json,
    snap_rational,
    vplus,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
ultrametric_places = st.sampled_from(
    [Place.padic(2), Place.padic(3), Place.padic(5, F(2)), Place.tadic(), Place.trivial()]
)
flow_eps = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 4)])


def test_abs_log_examples():
    half = Place.archimedean(F(1, 2))
    assert abs_log_value(half, 4) * half.log_unit == pytest.approx(math.log(2))
    assert abs_log_value(Place.padic(3), 12) == -1  # v_3(12) = 1
    assert Place.padic(3).log_unit == pytest.approx(math.log(3))
    assert abs_log_value(Place.trivial(), 7) == 0
    assert abs_log_value(Place.padic(3), 0) == NEG_INF


def test_opposite_log_infinities_are_a_place_error():
    # a typed failure, so no caller has to catch a built-in ArithmeticError
    for a, b in ((NEG_INF, POS_INF), (POS_INF, NEG_INF)):
        with pytest.raises(PlaceError, match="adding opposite log infinities"):
            vplus(a, b)
    assert vplus(NEG_INF, 3) == NEG_INF and vplus(F(1, 2), POS_INF) == POS_INF


def test_residue_place_kills_p():
    res = Place.residue(3)
    assert abs_log_value(res, 6) == NEG_INF
    assert abs_log_value(res, 7) == 0
    assert abs_log_value(res, F(1, 3)) == float("inf")


def test_abs_log_exactness_flag():
    # exact rationals at ultrametric places, floats at archimedean ones
    assert isinstance(abs_log_value(Place.padic(2), 8), F)
    assert isinstance(abs_log_value(Place.archimedean(), 8), float)


def test_epsilon_matches_log2_formula():
    place = Place.archimedean(F(3, 7))
    measured = abs_log_value(place, 2) * place.log_unit / math.log(2)
    assert measured == pytest.approx(float(F(3, 7)), abs=1e-12)


def test_flow_place_examples():
    assert flow_place(Place.archimedean(F(1)), F(1, 2)) == Place.archimedean(F(1, 2))
    assert flow_place(Place.trivial(), F(1, 3)) == Place.trivial()
    assert flow_place(Place.padic(5, F(2)), F(1, 2)) == Place.padic(5, F(1))
    with pytest.raises(PlaceError):
        flow_place(Place.padic(2), F(3, 2))
    with pytest.raises(PlaceError):
        flow_place(Place.padic(2), F(0))


@given(ultrametric_places, nonzero_rationals, nonzero_rationals)
def test_multiplicativity_exact(place, a, b):
    assert abs_log_value(place, a * b) == abs_log_value(place, a) + abs_log_value(place, b)


@given(st.sampled_from([F(1), F(1, 2), F(2, 3)]), nonzero_rationals, nonzero_rationals)
def test_multiplicativity_arch(eps, a, b):
    place = Place.archimedean(eps)
    lhs = abs_log_value(place, a * b)
    rhs = abs_log_value(place, a) + abs_log_value(place, b)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(ultrametric_places, rationals, rationals)
def test_ultrametric_inequality(place, a, b):
    if a + b == 0:
        return
    lhs = abs_log_value(place, a + b)
    bound = max(
        x for x in (abs_log_value(place, a), abs_log_value(place, b)) if x != NEG_INF
    ) if (a, b) != (0, 0) else NEG_INF
    assert lhs <= bound


@given(ultrametric_places, flow_eps, flow_eps)
def test_flow_composition(place, e1, e2):
    assert flow_place(flow_place(place, e1), e2) == flow_place(place, e1 * e2)


@given(ultrametric_places, flow_eps, nonzero_rationals)
def test_flow_scales_abs_exactly(place, eps, q):
    assert abs_log_value(flow_place(place, eps), q) == eps * abs_log_value(place, q)


# the README's place formats, one per test place
_PLACE_JSON = {
    Place.archimedean(F(1, 2)): {"kind": "arch", "eps": "1/2"},
    Place.padic(3, F(2)): {"kind": "padic", "p": 3, "eps": "2"},
    Place.tadic(F(1)): {"kind": "tadic", "eps": "1"},
    Place.trivial(): {"kind": "trivial"},
    Place.residue(5): {"kind": "res", "p": 5},
}


@pytest.mark.parametrize("place", list(_PLACE_JSON))
def test_json_round_trip(place):
    assert place_from_json(_PLACE_JSON[place]) == place


def test_snap_rational():
    assert snap_rational(0.5) == F(1, 2)
    assert snap_rational("2/3") == F(2, 3)
    assert abs(float(snap_rational(math.pi)) - math.pi) < 1e-6
