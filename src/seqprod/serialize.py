"""JSON encoding/decoding for descriptors, elements, maps and witness inputs; decompositions
are only encoded."""

from __future__ import annotations

import numpy as np

from ._backends import _BACKENDS
from .algebra import AlgebraDescriptor, Element, LinearMap
from .errors import ConfigError
from .spectral import SpectralDecomposition


def algebra_to_json(alg: AlgebraDescriptor) -> dict:
    return alg._backend.to_json(alg)


def algebra_from_json(obj: dict) -> AlgebraDescriptor:
    try:
        backend = _BACKENDS.get(obj["kind"])
        if backend is not None:
            return backend.from_json(obj, algebra_from_json)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed algebra JSON: {exc}") from exc
    raise ConfigError(f"malformed algebra JSON: unknown kind {obj.get('kind')!r}")


def _data_to_json(x: Element):
    return x.algebra._backend.to_payload(x)


def _data_from_json(alg: AlgebraDescriptor, payload) -> Element:
    try:
        return alg._backend.from_payload(alg, payload, _data_from_json)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed element JSON for {alg}: {exc}") from exc


def element_to_json(x: Element) -> dict:
    return {"algebra": algebra_to_json(x.algebra), "data": _data_to_json(x)}


def element_from_json(obj: dict) -> Element:
    try:
        alg = algebra_from_json(obj["algebra"])
        payload = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed element JSON: {exc}") from exc
    return _data_from_json(alg, payload)


def linear_map_to_json(m: LinearMap) -> dict:
    return {"algebra": algebra_to_json(m.algebra),
            "matrix": np.asarray(m.matrix).tolist(),
            "label": m.label}


def linear_map_from_json(obj: dict) -> LinearMap:
    try:
        alg = algebra_from_json(obj["algebra"])
        return LinearMap(alg, obj["matrix"], obj.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed linear map JSON: {exc}") from exc


def decomposition_to_json(dec: SpectralDecomposition) -> dict:
    return {"algebra": algebra_to_json(dec.algebra),
            "pairs": [{"eigenvalue": lam, "idempotent": _data_to_json(p)}
                      for lam, p in dec.pairs]}


# -- witness payloads (elements, maps and scalars keyed by role) -------------

def witness_value_to_json(value):
    if isinstance(value, Element):
        return {"__type__": "element", **element_to_json(value)}
    if isinstance(value, LinearMap):
        return {"__type__": "linear_map", **linear_map_to_json(value)}
    if isinstance(value, (int, float, str)):
        return value
    raise ConfigError(f"cannot serialize witness value of type {type(value).__name__}")


def witness_value_from_json(obj):
    if isinstance(obj, dict) and obj.get("__type__") == "element":
        return element_from_json(obj)
    if isinstance(obj, dict) and obj.get("__type__") == "linear_map":
        return linear_map_from_json(obj)
    return obj


def inputs_to_json(inputs: dict) -> dict:
    return {k: witness_value_to_json(v) for k, v in inputs.items()}


def inputs_from_json(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"witness inputs must be an object, not {type(obj).__name__}")
    return {k: witness_value_from_json(v) for k, v in obj.items()}
