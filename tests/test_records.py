"""Every record type: immutable, equal by value, and checked on every construction path."""

import copy
import math
import pickle

import pytest

from eitcool import (
    Beam,
    CoolingGeometry,
    CoolingReport,
    DrivenSystem,
    EITConfig,
    FanoFeatures,
    FlopRecord,
    LevelScheme,
    Liouvillian,
    MagneticField,
    Spectrum,
    ThermalState,
)
from eitcool.config import parse_config_text, resolve
from eitcool.liouville import Coupling
from eitcool.thermometry import ThermalFit

# A record holds what it is given; plain values keep == a single bool where a
# field would otherwise hold an array.  Each factory builds a fresh record.
RECORDS = {
    "LevelScheme": lambda: LevelScheme(),
    "MagneticField": lambda: MagneticField(4.4),
    "Beam": lambda: Beam("cooling", 1e6, 2e6, (0.0, 0.0, 1.0)),
    "ThermalState": lambda: ThermalState(2.0),
    "FlopRecord": lambda: FlopRecord((0.0, 1e-5), (0.0, 0.5), "blue"),
    "RunConfig": lambda: resolve(parse_config_text("task = thermometry\n")),
    "Coupling": lambda: Coupling(0, 2, 1e6 + 0j, "cooling", 0),
    "DrivenSystem": lambda: DrivenSystem(("S-", "S+"), (0.0, 1e6), (), (), 0.0),
    "Liouvillian": lambda: Liouvillian(((0.0,),), ((0.0,),), ((0.0,),), 0.0),
    "EITConfig": lambda: EITConfig(omega_sigma=1e8, omega_pi=1e7, delta_sigma=4e8, delta_pi=4e8),
    "Spectrum": lambda: Spectrum((4e8,), (1e3,), (1e-3,), (0,), (None,)),
    "FanoFeatures": lambda: FanoFeatures(dark_point=4e8, bright_peak=4.1e8),
    "CoolingGeometry": lambda: CoolingGeometry(omega=1e7, eta=0.1, cos_phi=0.5, label="y"),
    "CoolingReport": lambda: CoolingReport("y", 1e7, 10.0, 100.0),
    "ThermalFit": lambda: ThermalFit(n_bar=2.0, residual=1e-12),
}

# (field, value the constructor rejects, its message), per checked record type
CHECKS = {
    "LevelScheme": [("gamma", 0.0, "gamma must be positive")],
    "MagneticField": [("magnitude", -1.0, "field magnitude must be >= 0")],
    "Beam": [("polarization", (1.0, 1.0, 0.0), "polarization must be a unit vector")],
    "ThermalState": [("n_bar", -1.0, "n_bar must be finite and >= 0"),
                     ("n_bar", math.nan, "n_bar must be finite and >= 0"),
                     ("n_bar", math.inf, "n_bar must be finite and >= 0")],
    "FlopRecord": [("sideband", "carrier", "unknown sideband"),
                   ("excitation", (0.0,), "2 times but 1 excitations"),
                   ("excitation", (0.0, math.nan), "must be finite"),
                   ("times", (0.0, math.inf), "must be finite"),
                   ("excitation", (0.0, 1.5), r"must lie in \[0, 1\]")],
}


def _fields(record) -> dict:
    names = record._fields if isinstance(record, tuple) else type(record).__slots__
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name]()
    field = next(iter(_fields(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert _fields(record) == _fields(RECORDS[name]())


@pytest.mark.parametrize("name", RECORDS)
def test_records_built_from_equal_values_compare_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert a._replace() == a
    if name != "RunConfig":  # its values are a dict
        assert hash(a) == hash(b)
    if not isinstance(a, tuple):  # a NamedTuple equals any tuple of its values
        assert a != tuple(_fields(a).values())
    assert repr(a).startswith(f"{name}(")


# non-finite values; after CHECKS, so that the cases above keep their ids
NON_FINITE_CHECKS = {
    "LevelScheme": [("gamma", math.nan, "gamma must be positive and finite"),
                    ("gamma", math.inf, "gamma must be positive and finite"),
                    ("lande_g_P", math.nan, "lande_g_P must be finite")],
    "MagneticField": [("magnitude", math.nan, "field magnitude must be >= 0 and finite"),
                      ("magnitude", math.inf, "field magnitude must be >= 0 and finite")],
    "Beam": [("polarization", (math.nan, 0.0, 1.0), "polarization must be a unit vector")],
}


@pytest.mark.parametrize("name, field, bad, message", [
    (name, *check) for table in (CHECKS, NON_FINITE_CHECKS)
    for name, checks in table.items() for check in checks
])
def test_constructor_checks_run_on_every_construction_path(name, field, bad, message):
    record = RECORDS[name]()
    with pytest.raises(ValueError, match=message):
        type(record)(**{**_fields(record), field: bad})
    with pytest.raises(ValueError, match=message):
        record._replace(**{field: bad})
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_records_differ_where_a_field_differs():
    assert ThermalState(2.0) != ThermalState(3.0)
    assert MagneticField(4.4)._replace(magnitude=5.0) == MagneticField(5.0)
    assert CoolingGeometry(1e7, 0.1, 0.5) != CoolingGeometry(1e7, 0.2, 0.5)
    assert repr(ThermalState(2.0)) == "ThermalState(n_bar=2.0)"
