"""The expression codec: round trips, registry, malformed trees."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import expr
from cocycle_lab.errors import ValidationError
from cocycle_lab.expr import (
    Affine,
    Bump,
    BumpProfile,
    Const,
    Cos,
    CrumbleExpr,
    FConst,
    FScale,
    FSum,
    JCos,
    RepeatExpr,
    SamplingExpr,
    Scale,
    SlideExpr,
    Sum,
    TCos,
    TwistExpr,
    family_from_json,
    scalar_from_json,
)

reals = st.floats(-4.0, 4.0, allow_nan=False)
positive = st.floats(0.25, 4.0)
counts = st.integers(1, 4)

scalar_leaves = st.one_of(
    st.builds(Const, reals),
    st.builds(Cos, reals, reals),
    st.builds(Bump, reals, positive),
)
scalar_trees = st.recursive(scalar_leaves, lambda sub: st.one_of(
    st.builds(Sum, st.lists(sub, min_size=1, max_size=3).map(tuple)),
    st.builds(Scale, reals, sub),
    st.builds(Affine, reals, reals, sub),
    st.builds(CrumbleExpr, counts, positive, sub),
), max_leaves=6)

bump_profiles = st.builds(
    lambda a, rise, flat, fall: BumpProfile(a, a + rise, a + rise + flat, a + rise + flat + fall),
    reals, positive, st.floats(0.0, 2.0), positive)
family_leaves = st.one_of(
    st.builds(FConst, reals),
    st.builds(TCos, reals, positive, counts, reals),
    st.builds(JCos, reals, counts, counts, reals),
)
family_trees = st.recursive(family_leaves, lambda sub: st.one_of(
    st.builds(FSum, st.lists(sub, min_size=1, max_size=3).map(tuple)),
    st.builds(FScale, reals, sub),
    st.builds(RepeatExpr, counts, sub),
    st.builds(TwistExpr, counts, positive, counts, sub),
    st.builds(SlideExpr, reals, counts, positive, counts, bump_profiles, sub),
    st.builds(SamplingExpr, counts, counts, sub),
), max_leaves=6)


def through_json(node):
    return json.loads(json.dumps(node.to_json()))


class TestRoundTrip:
    @given(scalar_trees)
    @settings(max_examples=150, deadline=None)
    def test_scalar_tree(self, e):
        again = scalar_from_json(through_json(e))
        assert again == e
        assert again.to_json() == e.to_json()
        x = np.linspace(-3.0, 3.0, 25)
        assert np.array_equal(again(x), e(x), equal_nan=True)

    @given(family_trees)
    @settings(max_examples=150, deadline=None)
    def test_family_tree(self, f):
        again = family_from_json(through_json(f))
        assert again == f
        assert again.to_json() == f.to_json()
        t, j = np.linspace(-2.0, 2.0, 9)[:, None], np.arange(-3, 9)[None, :]
        assert np.array_equal(again(t, j), f(t, j), equal_nan=True)

    def test_absent_fields_take_the_defaults(self):
        assert scalar_from_json({"kind": "cos", "freq": 2}) == Cos(2.0, 0.0)
        assert family_from_json({"kind": "tcos", "amp": 1, "period": 2}) == TCos(1.0, 2.0, 1, 0.0)
        assert BumpProfile.from_json({"kind": "bump_profile"}) == BumpProfile()


def test_every_node_is_registered_once():
    registered = {}
    for _, kinds in expr._LANGUAGES.values():
        for kind, cls in kinds.items():
            assert cls.kind == kind
            assert kind not in registered
            registered[kind] = cls
    nodes = {cls for cls in vars(expr).values()
             if isinstance(cls, type) and issubclass(cls, expr.Node)
             and dataclasses.is_dataclass(cls)}
    assert nodes == set(registered.values())


class TestMalformed:
    def test_missing_field(self):
        with pytest.raises(ValidationError, match="bump.*'width'"):
            scalar_from_json({"kind": "bump", "center": 0.75})

    def test_non_numeric_field(self):
        with pytest.raises(ValidationError, match="tcos field 'amp'"):
            family_from_json({"kind": "tcos", "amp": "x", "period": 1.0})
        with pytest.raises(ValidationError, match="sum field 'terms'"):
            scalar_from_json({"kind": "sum", "terms": 5})

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown scalar expression kind 'spline'"):
            scalar_from_json({"kind": "spline"})
        with pytest.raises(ValidationError, match="needs a 'kind' field"):
            family_from_json([1.0])

    def test_family_node_inside_a_scalar_tree(self):
        bad = {"kind": "scale", "factor": 1.0,
               "of": {"kind": "tcos", "amp": 1.0, "period": 1.0}}
        with pytest.raises(ValidationError, match="unknown scalar expression kind 'tcos'"):
            scalar_from_json(bad)

    def test_malformed_bump_profile_inside_a_slide(self):
        bad = SlideExpr(0.1, 1, 1.0, 1, BumpProfile(), FConst(0.0)).to_json()
        bad["bump"]["hi_end"] = [1.75]
        with pytest.raises(ValidationError, match="bump_profile field 'hi_end'"):
            family_from_json(bad)
