"""A derandomized fuzz of the cma/1 request schema.

Every request, well formed or not, must end in a report or in an error from
the package's taxonomy (an AmpleToriError), never in another exception. The
algebras stay small (factors of degree <= 2, unit boxes of sup-norm <= 3) so
that the whole run takes a few seconds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ampletori import serialize
from ampletori.errors import AmpleToriError
from ampletori.pipeline import PipelineRequest, run_pipeline

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


def mostly(valid, bad=JUNK):
    """Values of `valid`, and of `bad` about one time in eight."""
    return st.sampled_from(range(8)).flatmap(lambda k: bad if k == 7 else valid)


SMALL_INT = st.integers(-4, 4)
COEFF = mostly(SMALL_INT.map(str), st.one_of(SMALL_INT, st.sampled_from(["1/2", "x"]), JUNK))
POLY = mostly(
    st.one_of(
        st.tuples(COEFF).map(lambda c: [c[0], "1"]),  # monic linear
        st.tuples(COEFF, COEFF).map(lambda c: [c[0], c[1], "1"]),  # monic quadratic
    ),
    st.one_of(st.lists(COEFF, max_size=3), JUNK),  # anything of degree <= 2
)
MATRIX = st.lists(st.lists(SMALL_INT.map(str), min_size=1, max_size=3), min_size=1, max_size=3)
ALGEBRA = mostly(
    st.fixed_dictionaries(
        {"factors": mostly(st.lists(POLY, min_size=1, max_size=2))},
        optional={"order_basis": mostly(st.one_of(st.none(), MATRIX))},
    )
)
PLACES = mostly(
    st.one_of(
        st.sampled_from(["inf", "inf,2", "inf,5", "inf,3,5", "inf,13", "5", "inf,4", "", "oo"]),
        st.fixed_dictionaries(
            {},
            optional={
                "infty": mostly(st.booleans()),
                "primes": mostly(st.lists(st.sampled_from([2, 3, 5, 13, "5", "p"]), max_size=2)),
            },
        ),
    )
)
VECTOR = mostly(st.lists(COEFF, min_size=1, max_size=3))
UNIT_SYSTEM = mostly(
    st.fixed_dictionaries(
        {
            "torsion": mostly(
                st.fixed_dictionaries(
                    {"element": VECTOR, "order": mostly(st.sampled_from([1, 2, 4, 6]))}
                )
            ),
            "free": mostly(st.lists(VECTOR, max_size=2)),
        },
        optional={"s_primes": mostly(st.lists(st.sampled_from([2, 5, 13]), max_size=2))},
    )
)
UNIT_SOURCE = mostly(
    st.one_of(
        st.fixed_dictionaries(
            {"search": mostly(st.fixed_dictionaries({"coord_bound": mostly(st.integers(-1, 3))}))}
        ),
        st.fixed_dictionaries({"provided": UNIT_SYSTEM}),
    )
)
REQUEST = mostly(
    st.fixed_dictionaries(
        {"schema": st.just(serialize.SCHEMA), "algebra": ALGEBRA, "places": PLACES},
        optional={
            "ambient": mostly(st.sampled_from(["SL", "GL"])),
            "unipotent_block": mostly(
                st.fixed_dictionaries(
                    {"n": mostly(st.integers(1, 4))},
                    optional={"pattern": mostly(st.just("last-column"))},
                )
            ),
            "unit_source": UNIT_SOURCE,
        },
    )
)


@settings(
    derandomize=True,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(REQUEST)
def test_every_request_ends_in_a_report_or_a_taxonomy_error(request):
    try:
        report = run_pipeline(PipelineRequest.from_json(request))
    except AmpleToriError:
        return
    serialize.dumps(report.to_json())
