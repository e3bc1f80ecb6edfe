from __future__ import annotations

import json
from importlib import resources

import pytest

from nfbounds.numberfield import Polynomial, parse_field
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
