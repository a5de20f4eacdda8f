import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod as sp
from seqprod import serialize

from conftest import ALGEBRA_SHORTHANDS


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6), st.sampled_from(ALGEBRA_SHORTHANDS),
       st.sampled_from(["generic", "singular", "sharp"]))
def test_element_roundtrip(seed, short, profile):
    x = sp.random_effect(sp.parse_algebra(short), seed, profile)
    blob = json.dumps(serialize.element_to_json(x))
    back = serialize.element_from_json(json.loads(blob))
    assert back.algebra == x.algebra
    assert sp.order_unit_norm(back - x) == 0.0  # repr round-trip is lossless


def test_element_json_shape():
    alg = sp.complex_hermitian(2)
    obj = serialize.element_to_json(sp.identity(alg))
    assert obj["algebra"] == {"kind": "complex_hermitian", "n": 2}
    assert obj["data"]["re"] == [[1.0, 0.0], [0.0, 1.0]]
    assert obj["data"]["im"] == [[0.0, 0.0], [0.0, 0.0]]
    spin = serialize.element_to_json(sp.identity(sp.spin_factor(4)))
    assert spin["algebra"] == {"kind": "spin_factor", "d": 4}
    assert spin["data"] == {"v": [0.0, 0.0, 0.0, 0.0], "t": 1.0}


def test_direct_sum_nests_in_order():
    alg = sp.parse_algebra("sum(complex:2,real:2)")
    obj = serialize.element_to_json(sp.identity(alg))
    assert isinstance(obj["data"], list) and len(obj["data"]) == 2
    assert obj["data"][0]["re"] == [[1.0, 0.0], [0.0, 1.0]]
    assert obj["data"][1] == [[1.0, 0.0], [0.0, 1.0]]


def test_decomposition_roundtrip():
    a = sp.random_effect(sp.parse_algebra("quat:2"), 5, "singular")
    dec = sp.spectral_decompose(a)
    obj = json.loads(json.dumps(serialize.decomposition_to_json(dec)))
    assert obj["algebra"] == serialize.algebra_to_json(dec.algebra)
    assert len(obj["pairs"]) == len(dec.pairs)
    for pair, (lam, p) in zip(obj["pairs"], dec.pairs):
        assert pair["eigenvalue"] == lam
        # the idempotent is the data of an element JSON of the decomposition's algebra
        q = serialize.element_from_json({"algebra": obj["algebra"], "data": pair["idempotent"]})
        assert sp.order_unit_norm(q - p) == 0.0


def test_linear_map_roundtrip():
    alg = sp.complex_hermitian(2)
    phi = sp.make_order_iso(alg, "unitary_conjugation", seed=9)
    back = serialize.linear_map_from_json(json.loads(json.dumps(serialize.linear_map_to_json(phi))))
    assert np.array_equal(back.matrix, phi.matrix)
    assert back.label == phi.label


def test_malformed_json_raises_config_error():
    with pytest.raises(sp.ConfigError):
        serialize.element_from_json({"data": [[1.0]]})
    with pytest.raises(sp.ConfigError):
        serialize.algebra_from_json({"kind": "octonion", "n": 3})
    with pytest.raises(sp.ConfigError):
        serialize.element_from_json({"algebra": {"kind": "complex_hermitian", "n": 2},
                                     "data": {"re": [[1.0]]}})


@pytest.mark.parametrize("label", [5, None, ["id"], b"id"])
def test_a_maps_label_must_be_a_str(label):
    alg = sp.real_symmetric(1)
    with pytest.raises(sp.ConfigError, match="label must be a str"):
        sp.LinearMap(alg, [[1.0]], label)
    with pytest.raises(sp.ConfigError, match="label must be a str"):
        serialize.linear_map_from_json({"algebra": {"kind": "real_symmetric", "n": 1},
                                        "matrix": [[1.0]], "label": label})
    assert serialize.linear_map_from_json({"algebra": {"kind": "real_symmetric", "n": 1},
                                           "matrix": [[1.0]]}).label == ""


@pytest.mark.parametrize("witness", [{"trial": 0, "inputs": [1]}, {"trial": 0},
                                     {"trial": 0, "inputs": None}, {"trial": 0, "inputs": "a"}])
def test_witness_inputs_that_are_missing_or_not_an_object_raise_config_error(witness):
    with pytest.raises(sp.ConfigError, match="witness inputs must be an object"):
        serialize.inputs_from_json(witness.get("inputs"))
    with pytest.raises(sp.ConfigError, match="witness inputs must be an object"):
        sp.replay_witness("SEA2", "standard", "real:1", witness)
    with pytest.raises(sp.ConfigError, match="a witness must be an object"):
        sp.replay_witness("SEA2", "standard", "real:1", [witness])


@pytest.mark.parametrize("obj", [
    {"kind": "real_symmetric", "n": 2.5},
    {"kind": "real_symmetric", "n": True},
    {"kind": "complex_hermitian", "n": "2"},
    {"kind": "quaternionic_hermitian", "n": float("nan")},
    {"kind": "spin_factor", "d": "3"},
    {"kind": "spin_factor", "d": False},
    {"kind": "spin_factor", "d": None},
    {"kind": "direct_sum", "summands": [{"kind": "real_symmetric", "n": 1.5}]},
])
def test_descriptor_size_must_be_an_integer(obj):
    with pytest.raises(sp.ConfigError):
        serialize.algebra_from_json(obj)
    with pytest.raises(sp.ConfigError):
        serialize.element_from_json({"algebra": obj, "data": [[1.0]]})


def test_descriptor_integral_size_loads_as_int():
    alg = serialize.algebra_from_json({"kind": "real_symmetric", "n": 2.0})
    assert alg == sp.real_symmetric(2) and type(alg.size) is int
    assert serialize.algebra_from_json({"kind": "spin_factor", "d": 3}) == sp.spin_factor(3)


def test_witness_payload_roundtrip():
    alg = sp.complex_hermitian(2)
    inputs = {"a": sp.random_effect(alg, 1),
              "phi": sp.make_order_iso(alg, "transpose"),
              "expected": "commuting",
              "count": 3}
    back = serialize.inputs_from_json(json.loads(json.dumps(serialize.inputs_to_json(inputs))))
    assert sp.order_unit_norm(back["a"] - inputs["a"]) == 0.0
    assert np.array_equal(back["phi"].matrix, inputs["phi"].matrix)
    assert back["expected"] == "commuting"
    assert back["count"] == 3
