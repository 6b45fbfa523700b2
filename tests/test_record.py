"""The record contract (cnx.record): every frozen value class in cnx compares,
hashes, prints, destructures and refuses assignment as a frozen dataclass
with the same fields does."""

import importlib
import itertools
import operator
import pkgutil

import pytest

import cnx
from cnx.errors import StructuralError
from cnx.model import BiSet, PointedModel, ValidationReport, _up_sets, get_fixture
from cnx.proof import AxiomJust, CheckResult, HypJust, RuleScheme
from cnx.proofgen import MP, Hyp
from cnx.record import FrozenInstanceError, Record
from cnx.search import SearchBounds, SearchOutcome, Status
from cnx.syntax import Atom, Box, Imp, Neg, WouldTo
from cnx.transform import LiftMode

for _module in pkgutil.iter_modules(cnx.__path__):
    importlib.import_module(f"cnx.{_module.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(set(_subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))
p0, p1 = Atom(0), Atom(1)
M0 = get_fixture("M0").model

# field values for the records whose __post_init__ checks them; any other
# record takes one string per field
SAMPLES = {
    PointedModel: (M0, "w"),
    SearchBounds: (2, (0, 1), 1, 0.5),
    MP: (Hyp(p0), Hyp(Imp(p0, p1))),
}


def values_for(cls) -> tuple:
    return SAMPLES.get(cls) or tuple(f"{name} value" for name in cls.__match_args__)


def twin_of(cls):
    """Another record class with the same field names."""
    return type(f"Twin{cls.__name__}", (Record,),
                {"__annotations__": dict.fromkeys(cls.__match_args__, object)})


records = pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__}.{c.__name__}")


def test_every_record_class_is_covered():
    assert len(RECORDS) > 30
    assert {Atom, Imp, BiSet, PointedModel, SearchBounds, AxiomJust, MP} <= set(RECORDS)


@records
def test_fields_are_the_annotations_in_order(cls):
    own = tuple(cls.__dict__.get("__annotations__", ()))
    assert cls.__match_args__ == own
    x = cls(*values_for(cls))
    assert tuple(getattr(x, n) for n in own) == values_for(cls)


@records
def test_equality_needs_the_exact_class_and_equal_fields(cls):
    values = values_for(cls)
    x, y = cls(*values), cls(*values)
    assert x == y and not x != y
    twin = twin_of(cls)(*values)
    assert x.__eq__(twin) is NotImplemented
    assert x != twin and twin != x
    assert x != values and x != object()
    if cls not in SAMPLES:
        for i in range(len(values)):
            assert x != cls(*values[:i], "other", *values[i + 1:])


def test_equality_of_constructors_with_one_field_name():
    assert Neg(p0) != Box(p0)
    assert Imp(p0, p1) != WouldTo(p0, p1)
    assert Imp(p0, Neg(p1)) == Imp(Atom(0), Neg(Atom(1)))


@records
def test_hash_is_the_hash_of_the_field_tuple(cls):
    x = cls(*values_for(cls))
    if cls is AxiomJust:  # its binding is a dict, so it hashes by its name
        assert hash(x) == hash(("axiom", x.name))
    else:
        assert hash(x) == hash(values_for(cls))
    assert hash(x) == hash(cls(*values_for(cls)))


def test_formula_hashes_are_those_of_the_frozen_dataclasses():
    # set and dict orders of formulas, and through them the output, hang on these
    assert hash(p0) == hash((0,))
    assert hash(Imp(p0, Neg(p1))) == hash((p0, Neg(p1))) == hash(((0,), ((1,),)))


@records
def test_repr_names_each_field(cls):
    x = cls(*values_for(cls))
    fields = ", ".join(f"{n}={getattr(x, n)!r}" for n in cls.__match_args__)
    assert repr(x) == f"{cls.__qualname__}({fields})"


def test_repr_examples():
    assert repr(Imp(p0, Neg(p1))) == "Imp(left=Atom(index=0), right=Neg(body=Atom(index=1)))"
    assert repr(HypJust()) == "HypJust()"
    assert repr(SearchBounds(1)) == ("SearchBounds(max_worlds=1, atoms=None, "
                                     "max_cond_indices=None, time_limit=None)")


@records
def test_records_are_frozen(cls):
    x = cls(*values_for(cls))
    for name in cls.__match_args__ + ("extra",):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, "changed")
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*values_for(cls))


@records
def test_match_destructures_by_field_order(cls):
    x = cls(*values_for(cls))
    match x:
        case cls():
            pass
        case _:
            pytest.fail("no match on the class")
    if cls.__match_args__:
        match x:
            case cls(first):
                assert first == values_for(cls)[0]
            case _:
                pytest.fail("no match on the first field")


def test_match_tells_constructors_apart():
    match Imp(p0, Neg(p1)):
        case WouldTo(_, _) | Box(_):
            pytest.fail("matched another constructor")
        case Imp(Atom(i), Neg(b)):
            assert (i, b) == (0, p1)
        case _:
            pytest.fail("no match")


def test_no_record_is_ordered():
    # validate_model sorts conditional indices by their masks, not as BiSets
    ups = _up_sets(("w1", "w2"), {("w1", "w1"), ("w2", "w2"), ("w1", "w2")})
    bisets = [BiSet(a, b) for a in ups for b in ups]
    for x, y in itertools.product(bisets, repeat=2):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(x, y)
    with pytest.raises(TypeError):
        p0 < p1


def test_defaults_and_keywords():
    assert SearchBounds(2) == SearchBounds(2, None, None, None)
    assert SearchBounds(2, time_limit=1.5) == SearchBounds(2, None, None, 1.5)
    assert SearchBounds(max_worlds=2, atoms=(0,)).atoms == (0,)
    assert ValidationReport(True).violations == ()
    assert CheckResult(False, code="mp") == CheckResult(False, None, "mp", None)
    assert AxiomJust("a1").binding is None
    assert LiftMode("full").anchor is None
    assert SearchOutcome(Status.FOUND) == SearchOutcome(Status.FOUND, None, 0)
    assert Imp(right=p1, left=p0) == Imp(p0, p1)
    for make in (lambda: Imp(p0), lambda: Atom(0, 1), lambda: Atom(index=0, body=p0),
                 lambda: Atom(0, index=0), lambda: SearchBounds(), lambda: HypJust(p0),
                 lambda: SearchBounds(1, (0,), 1, None, 5)):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: Atom(0, 1), "Atom() takes 1 positional argument but 2 were given"),
    (lambda: Imp(p0, p1, p0), "Imp() takes 2 positional arguments but 3 were given"),
    (lambda: SearchBounds(1, (0,), 1, None, 5),
     "SearchBounds() takes 4 positional arguments but 5 were given"),
])
def test_surplus_arguments_name_the_class(make, message):
    with pytest.raises(TypeError) as e:
        make()
    assert str(e.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: Atom(0, index=0), "Atom() got multiple values for argument 'index'"),
    (lambda: Imp(p0, left=p1), "Imp() got multiple values for argument 'left'"),
    (lambda: Imp(p0, p1, right=p1), "Imp() got multiple values for argument 'right'"),
    (lambda: RuleScheme("nec", p0, premise=p1),
     "RuleScheme() got multiple values for argument 'premise'"),
    (lambda: RuleScheme("nec", p0, p1, name="nec"),
     "RuleScheme() got multiple values for argument 'name'"),
])
def test_a_field_given_twice_is_named(make, message):
    # as a frozen dataclass's generated __init__ reports it
    with pytest.raises(TypeError) as e:
        make()
    assert str(e.value) == message


def test_post_init_checks_the_fields():
    with pytest.raises(ValueError, match="max_worlds"):
        SearchBounds(0)
    with pytest.raises(ValueError, match="max_worlds"):
        SearchBounds(max_worlds=0, atoms=(0,))
    for make in (lambda: PointedModel(M0, "v"), lambda: PointedModel(model=M0, point="v")):
        with pytest.raises(StructuralError, match="not a world"):
            make()
    with pytest.raises(AssertionError, match="mp mismatch"):
        MP(Hyp(p1), Hyp(Imp(p0, p1)))
