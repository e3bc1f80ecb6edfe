from __future__ import annotations

import json
from importlib import resources

import numpy as np
import pytest

from nfbounds.numberfield import NumberField, Polynomial, parse_field
from nfbounds.units import build_unit_system


def load_fixture_doc(name: str) -> dict:
    with resources.files("nfbounds.fixtures").joinpath(name).open("r") as fh:
        return json.load(fh)


def fixture_path(name: str) -> str:
    return str(resources.files("nfbounds.fixtures").joinpath(name))


@pytest.fixture(scope="session")
def q5():
    doc = load_fixture_doc("qsqrt5.json")
    return parse_field(Polynomial(tuple(doc["min_poly"])), label=doc["label"])


@pytest.fixture(scope="session")
def q5_units(q5):
    return build_unit_system(q5)


@pytest.fixture(scope="session")
def quartic():
    doc = load_fixture_doc("quartic725.json")
    return parse_field(Polynomial(tuple(doc["min_poly"])), label=doc["label"])


@pytest.fixture(scope="session")
def quartic_units(quartic):
    doc = load_fixture_doc("quartic725.json")
    return build_unit_system(
        quartic,
        units=doc["fundamental_units"],
        expected_regulator=doc["expected_regulator"],
    )


@pytest.fixture(scope="session")
def octic():
    doc = load_fixture_doc("cyclo32real.json")
    return parse_field(Polynomial(tuple(doc["min_poly"])), label=doc["label"])


@pytest.fixture(scope="session")
def octic_units(octic):
    doc = load_fixture_doc("cyclo32real.json")
    return build_unit_system(
        octic,
        units=doc["fundamental_units"],
        expected_regulator=doc["expected_regulator"],
    )


@pytest.fixture
def kernel_only(monkeypatch):
    """`norm_rows` with its float front leaving every row open, so every
    norm and cofactor comes from the exact kernel: for the tests of that
    path, which box rows no longer reach."""
    def nothing_done(self, rows, cofactors):
        B, n = rows.shape
        cofs = np.zeros((B, n), dtype=np.int64) if cofactors else None
        return np.zeros(B, dtype=np.int64), cofs, np.zeros(B, dtype=bool)

    monkeypatch.setattr(NumberField, "_float_norms", nothing_done)
