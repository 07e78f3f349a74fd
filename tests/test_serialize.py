import json
from fractions import Fraction

import pytest

from ampletori import linalg, serialize
from ampletori.errors import InputError
from ampletori.etale import EtaleAlgebra
from ampletori.polynomials import QPoly
from ampletori.units import UnitSystem

from oracles import algebra_to_json, poly_to_json


def test_fraction_round_trip():
    for x in (Fraction(4, 5), Fraction(-3), Fraction(0), Fraction(22, 7)):
        assert serialize.parse_frac(serialize.frac_str(x)) == x
    assert serialize.frac_str(Fraction(-3, 5)) == "-3/5"
    assert serialize.frac_str(Fraction(7)) == "7"
    # an integer value reads as an int, without a Fraction made
    values = [serialize.parse_frac(s) for s in (3, "3", " -2 ", "6/2", "3.0")]
    assert values == [3, 3, -2, 3, 3] and all(type(v) is int for v in values)


def test_polynomial_round_trip():
    f = QPoly([-1, 1, 0, 1])
    assert poly_to_json(f.coeffs) == ["-1", "1", "0", "1"]
    assert QPoly(serialize.poly_from_json(["-1", "1", "0", "1"])) == f


def test_algebra_round_trip():
    e = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]]))
    data = algebra_to_json(e)
    e2 = serialize.algebra_from_json(data)
    assert e2.factors == e.factors and e2.order_basis == e.order_basis


def test_matrix_entries_read_like_coefficients():
    # "1/2", "6/2", 3, " -2 " and the JSON number 0.5, over one denominator
    m = serialize.matrix_from_json(json.loads('[["1/2", "6/2"], [3, " -2 "], [0.5, "0"]]'))
    assert m == (((1, 6), (6, -4), (1, 0)), 2)


def test_unit_system_round_trip():
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    sys = UnitSystem(e, ((0, 1), 1), 4, [((4, 3), 5)], (5,))
    data = serialize.unit_system_to_json(sys)
    assert data == {
        "torsion": {"element": ["0", "1"], "order": 4},
        "free": [["4/5", "3/5"]],
        "s_primes": [5],
    }
    back = serialize.unit_system_from_json(e, data)
    assert back.free_generators == sys.free_generators
    assert back.torsion_order == 4 and back.s_primes == (5,)


@pytest.mark.parametrize(
    "order, s_primes",
    [("x", []), (2.5, []), (True, []), (2.0, []), ({"n": 2}, [])],
)
def test_unit_system_with_a_non_integer_field_is_an_input_error(order, s_primes):
    e = EtaleAlgebra([QPoly([-2, 0, 1])])
    data = {"torsion": {"element": ["-1", "0"], "order": order}, "free": [], "s_primes": s_primes}
    with pytest.raises(InputError, match="bad unit system") as err:
        serialize.unit_system_from_json(e, data, "units")
    assert err.value.path == "units"


@pytest.mark.parametrize(
    "s_primes, at",
    [(["a"], 0), ([5.5], 0), ([5, 1], 1), ([5, 0], 1), ([5, -5], 1), ([4], 0), ([True], 0)],
)
def test_unit_system_s_primes_are_primes_at_their_path(s_primes, at):
    # an entry of 1 looped forever in strip_primes, and 0 divided by zero
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    data = {"torsion": {"element": ["0", "1"], "order": 4}, "free": [], "s_primes": s_primes}
    with pytest.raises(InputError, match="is not a prime") as err:
        serialize.unit_system_from_json(e, data, "units")
    assert err.value.path == f"units.s_primes[{at}]"


def test_unit_system_s_primes_are_sorted_and_distinct():
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    data = {"torsion": {"element": ["0", "1"], "order": 4}, "free": [], "s_primes": [13, 5, 13]}
    back = serialize.unit_system_from_json(e, data)
    assert back.s_primes == (5, 13)
    assert serialize.unit_system_to_json(back)["s_primes"] == [5, 13]


@pytest.mark.parametrize("data", [5, None, [], "torsion"])
def test_unit_system_that_is_not_an_object_names_its_fields(data):
    # 5 was "'int' object is not subscriptable"
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    message = "^unit system must be an object with 'torsion' and 'free'$"
    with pytest.raises(InputError, match=message) as err:
        serialize.unit_system_from_json(e, data, "units")
    assert err.value.path == "units"


def test_unit_system_s_primes_must_be_an_array():
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    data = {"torsion": {"element": ["0", "1"], "order": 4}, "free": [], "s_primes": "5"}
    with pytest.raises(InputError, match="^s_primes must be an array$") as err:
        serialize.unit_system_from_json(e, data, "units")
    assert err.value.path == "units.s_primes"


def test_unit_system_reads_integer_strings():
    e = EtaleAlgebra([QPoly([-2, 0, 1])])
    data = {"torsion": {"element": ["-1", "0"], "order": "2"}, "free": [], "s_primes": ["5"]}
    back = serialize.unit_system_from_json(e, data)
    assert (back.torsion_order, back.s_primes) == (2, (5,))


def test_dumps_is_canonical():
    a = serialize.dumps({"b": 1, "a": Fraction(1, 2)})
    b = serialize.dumps({"a": Fraction(1, 2), "b": 1})
    assert a == b == '{"a":"1/2","b":1}\n'


def test_bad_inputs_carry_paths():
    with pytest.raises(InputError) as err:
        serialize.algebra_from_json({"factors": [["nope"]]})
    assert "factors[0][0]" in err.value.path
    with pytest.raises(InputError):
        serialize.loads("{", "<test>")
