"""Every library record, and the oracles' ``CoverDegree``, keeps the value
semantics it had as a frozen dataclass.

The expected reprs are the ones ``@dataclass(frozen=True)`` produced for the
same instances.
"""

import pickle
import weakref
from fractions import Fraction as F

import pytest

import orbeuler._record
from orbeuler import (
    ArrangementData,
    BmyReport,
    Chain,
    ComponentData,
    CurveGerm,
    CyclicQuotient,
    EulerValue,
    Exactness,
    Ordinary,
    PairDescription,
    ReducedGerm,
    SingularPointData,
    StarArm,
    StarQuotient,
    SurfaceData,
    check_arrangement,
    check_bmy,
    check_singularity_budget,
    germ_invariants,
    validate_star,
)
from oracles import cover_degree


def four_lines():
    lines = tuple(ComponentData(f"L{i}", "1/2", 0, degree=1) for i in range(4))
    points = tuple(
        SingularPointData(f"P{i}{j}", Ordinary(("1/2", "1/2")), ((f"L{i}", 1), (f"L{j}", 1)), 1)
        for i in range(4)
        for j in range(i + 1, 4)
    )
    return PairDescription(SurfaceData.projective_plane(), lines, points)


E8 = ((2, 1, "1/2"), (3, 2, 0), (5, 4, 0))
NOTE = "'K+D has total degree -1 < 0 on the plane: no multiple is effective'"
GLOBAL = (
    "GlobalEuler(value=Fraction(1, 2), exactness=<Exactness.EXACT: 'exact'>, lc=True, "
    "base=Fraction(5, 1))"
)
INEQ = (
    "IneqReport(lhs=Fraction(1, 1), rhs=Fraction(3, 2), slack=Fraction(1, 2), "
    f"verdict=<Verdict.PRECONDITION_FAILED: 'precondition-failed'>, equality=False, notes=({NOTE},))"
)
INVARIANTS = "StarInvariants(b0=Fraction(1, 30), alpha=Fraction(47, 60), beta=Fraction(1, 5))"

# One instance of each record, and its repr.
RECORDS = {
    "Chain": (lambda: Chain(5, 2), "Chain(n=5, q=2)"),
    "EulerValue": (
        lambda: EulerValue(F(1, 2), Exactness.UPPER_BOUND, True),
        "EulerValue(value=Fraction(1, 2), exactness=<Exactness.UPPER_BOUND: 'upper-bound'>, lc=True)",
    ),
    "Ordinary": (
        lambda: Ordinary(("1/2", 0, 1)),
        "Ordinary(coeffs=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 1)))",
    ),
    "CyclicQuotient": (
        lambda: CyclicQuotient((5, 2), "1/3", 0),
        "CyclicQuotient(chain=Chain(n=5, q=2), d1=Fraction(1, 3), d2=Fraction(0, 1))",
    ),
    "StarArm": (lambda: StarArm((3, 1), "1/2"), "StarArm(chain=Chain(n=3, q=1), d=Fraction(1, 2))"),
    "StarQuotient": (
        lambda: StarQuotient(2, E8),
        "StarQuotient(b=2, arms=(StarArm(chain=Chain(n=2, q=1), d=Fraction(1, 2)), "
        "StarArm(chain=Chain(n=3, q=2), d=Fraction(0, 1)), StarArm(chain=Chain(n=5, q=4), d=Fraction(0, 1))))",
    ),
    "ReducedGerm": (lambda: ReducedGerm(4, 3), "ReducedGerm(mu=4, tau=3)"),
    "StarInvariants": (lambda: validate_star(2, E8).invariants, INVARIANTS),
    "StarValidation": (
        lambda: validate_star(2, E8),
        f"StarValidation(invariants={INVARIANTS}, triple=(2, 3, 5), multipliers=(1, 1, 1))",
    ),
    "CoverDegree": (
        lambda: cover_degree("1/30", 2, 3, 5),
        "CoverDegree(half_order=Fraction(30, 1), degree=Fraction(120, 1), triple=(2, 3, 5))",
    ),
    "SurfaceData": (lambda: SurfaceData(-4, 2), "SurfaceData(e_top=-4, c1_sq=2, plane=False)"),
    "ComponentData": (
        lambda: ComponentData("C", "2/3", 1, degree=3),
        "ComponentData(id='C', coeff=Fraction(2, 3), genus=1, degree=3, pairings=None)",
    ),
    "SingularPointData": (
        lambda: four_lines().points[0],
        "SingularPointData(id='P01', local=Ordinary(coeffs=(Fraction(1, 2), Fraction(1, 2))), "
        "incident=(('L0', 1), ('L1', 1)), multiplicity=Fraction(1, 1))",
    ),
    "PairDescription": (
        # Only a generic pair asserts effectivity, and its pairings are an
        # unhashable dict, so this pair has no component.
        lambda: PairDescription(SurfaceData(4, 8), (), (), True),
        "PairDescription(surface=SurfaceData(e_top=4, c1_sq=8, plane=False), components=(), points=(), "
        "effective=True)",
    ),
    "GlobalEuler": (lambda: check_bmy(four_lines()).global_value, GLOBAL),
    "IneqReport": (lambda: check_bmy(four_lines()).multiplicities, INEQ),
    "BmyReport": (
        lambda: check_bmy(four_lines()),
        "BmyReport(lhs=Fraction(3, 2), rhs=Fraction(1, 1), slack=Fraction(1, 2), "
        "verdict=<Verdict.PRECONDITION_FAILED: 'precondition-failed'>, equality=False, "
        f"notes=({NOTE},), global_value={GLOBAL}, multiplicities={INEQ})",
    ),
    "CurveGerm": (
        lambda: CurveGerm.parse("x^2 - 1/2y^3 + x^2"),
        "CurveGerm(terms=((0, 3, Fraction(-1, 2)), (2, 0, Fraction(2, 1))))",
    ),
    "GermInvariants": (lambda: germ_invariants("x^2+y^3"), "GermInvariants(mu=2, tau=2, truncation_used=3)"),
    "ArrangementData": (
        lambda: ArrangementData.from_counts(6, {2: 3, 3: 4}),
        "ArrangementData(k=6, t=((2, 3), (3, 4)))",
    ),
    "ArrangementReport": (
        lambda: check_arrangement(6, {2: 3, 3: 4}),
        "ArrangementReport(k=6, verdict='holds', large_pencil_r=None, incidence_sum=18, "
        "incidence_bound=18, square_sum=48, square_bound=48)",
    ),
    "BudgetReport": (
        lambda: check_singularity_budget(9, 3, "1/2", -18, 36, [(2, "1/24")]),
        "BudgetReport(lhs=Fraction(35, 8), rhs=Fraction(36, 1), slack=Fraction(253, 8), "
        "verdict='holds', equality=False)",
    ),
}


@pytest.fixture(params=RECORDS, ids=str)
def record(request):
    make, text = RECORDS[request.param]
    value = make()
    assert type(value).__name__ == request.param
    return make, text, value


def test_repr_is_the_dataclass_repr(record):
    _, text, value = record
    assert repr(value) == text


def test_equal_values_are_equal_and_hash_equal(record):
    make, _, value = record
    other = make()
    assert other is not value
    assert other == value and not other != value
    assert hash(other) == hash(value)


def fields(value):
    return {name: getattr(value, name) for name in value._fields}


def test_equal_only_within_one_class(record):
    _, _, value = record
    lookalike = type("Lookalike", (type(value),), {})
    copy = object.__new__(lookalike)
    for name, field in fields(value).items():
        object.__setattr__(copy, name, field)
    assert copy != value and value != copy
    assert value != tuple(fields(value).values())


def test_assignment_and_deletion_are_refused(record):
    _, _, value = record
    field = value._fields[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = None
    assert repr(value) == before


# The fields a constructor may omit, and what it stores for them.
DEFAULTS = {
    "SurfaceData": {"plane": False},
    "ComponentData": {"degree": None, "pairings": None},
    "PairDescription": {"effective": None},
    "IneqReport": {"notes": ()},
}


def test_required_fields_and_defaults(record):
    _, _, value = record
    cls, defaults = type(value), DEFAULTS.get(type(value).__name__, {})
    required = {name: field for name, field in fields(value).items() if name not in defaults}
    for name in required:
        with pytest.raises(TypeError):
            cls(**{other: field for other, field in required.items() if other != name})
    built = cls(**required)
    assert fields(built) == {**required, **defaults}


def test_no_instance_dict(record):
    _, _, value = record
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(value)


def test_pickle_round_trip(record):
    _, text, value = record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value)
        assert copy == value and repr(copy) == text


def test_only_init_is_generated(record):
    # Each class gets its own generated __init__; equality, hashing and
    # pickling are one shared function each, reading the fields through the
    # class's getter.
    _, _, value = record
    own = vars(type(value))
    assert own["__init__"].__qualname__ == f"{type(value).__qualname__}.__init__"
    for name, shared in (
        ("__eq__", orbeuler._record._eq),
        ("__hash__", orbeuler._record._hash),
        ("__getstate__", orbeuler._record._getstate),
        ("__setstate__", orbeuler._record._setstate),
    ):
        assert own[name] is shared, name
    # Only __init__ and unpickling write the slots: the class keeps no
    # setters and no _check of its own.
    assert not hasattr(type(value), "_set") and not hasattr(type(value), "_check")


def test_every_class_has_its_own_init():
    classes = {type(make()) for make, _ in RECORDS.values()}
    assert len({cls.__init__ for cls in classes}) == len(classes) == len(RECORDS)


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: Ordinary(("1/2", 0)), lambda: Ordinary(("1/2", 1))),
        (lambda: CurveGerm.parse("x^2 + y^3"), lambda: CurveGerm.parse("x^2 + y^5")),
    ],
    ids=["Ordinary", "CurveGerm"],
)
def test_single_field_records(make, other):
    # The getter of a one-field record returns the bare field, not a tuple.
    value = make()
    assert len(value._fields) == 1
    assert make() == value and make() is not value and hash(make()) == hash(value)
    assert other() != value and not other() == value
    assert {value: 1}[make()] == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
        assert getattr(copy, value._fields[0]) == getattr(value, value._fields[0])


@orbeuler._record.record
class Box:
    """A one-field record whose field may be falsy."""

    content: object


@pytest.mark.parametrize("content", [0, (), "", None, (0,), "x"])
def test_a_falsy_single_field_pickles(content):
    # pickle skips __setstate__ for a falsy state, so the state of a
    # one-field record is a one-element tuple, never the bare field.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(Box(content), protocol))
        assert copy == Box(content) and copy.content == content


def test_a_state_of_the_wrong_length_is_refused(record):
    _, _, value = record
    state = value.__getstate__()
    for bad in (state[:-1], (*state, None)):
        with pytest.raises(ValueError):
            type(value).__new__(type(value)).__setstate__(bad)


def test_a_record_base_is_refused():
    @orbeuler._record.record
    class Point:
        x: int

    class Labelled(Point):
        label: str

    with pytest.raises(TypeError, match="Labelled: a record cannot derive from a record$"):
        orbeuler._record.record(Labelled)


def test_a_nested_record_keeps_its_qualname():
    @orbeuler._record.record
    class Point:
        x: int
        y: int = 0

    assert Point.__qualname__.endswith("<locals>.Point")
    assert repr(Point(1)) == f"{Point.__qualname__}(x=1, y=0)"


def _checked_span(calls):
    @orbeuler._record.record
    class Span:
        lo: int
        hi: int = 10

        def _check(lo, hi):
            calls.append((lo, hi))
            if lo > hi:
                raise ValueError(f"empty span {lo}..{hi}")
            return str(lo), (hi,)

    return Span


def test_init_stores_what_check_returns():
    calls = []
    Span = _checked_span(calls)
    span = Span(1, hi=2)
    assert calls == [(1, 2)]
    assert (span.lo, span.hi) == ("1", (2,))
    assert not hasattr(Span, "_check")
    # Unpickling restores the stored values without checking them again.
    restored = Span.__new__(Span)
    restored.__setstate__(span.__getstate__())
    assert restored == span
    assert calls == [(1, 2)]


def test_defaults_reach_check():
    calls = []
    assert _checked_span(calls)(3).hi == (10,)
    assert calls == [(3, 10)]


def test_an_error_in_check_is_raised_by_the_constructor():
    calls = []
    with pytest.raises(ValueError, match=r"^empty span 5\.\.2$"):
        _checked_span(calls)(5, 2)
    assert calls == [(5, 2)]
