"""The result records are NamedTuples: each compares and hashes by value,
refuses assignment, prints as a dataclass did and survives pickling, as
the jobs > 1 sweep needs; the two JSON forms of the sweep stay fixed."""

import pickle

import pytest

from lexseg.decompose import AssResult, IrreducibleIdeal
from lexseg.depth import DepthCase, DepthClass
from lexseg.filtration import FiltrationStep, PrimeFiltration, Report, StanleyDecomposition
from lexseg.monomials import LexSpec, MonomialIdeal, PrimeIdeal, SpecError
from lexseg.sweep import Mismatch, SweepReport

P23 = PrimeIdeal(3, (2, 3))
STEP = FiltrationStep((1, 0, 0), P23)

RECORDS = [
    (
        lambda: MonomialIdeal(2, ((1, 1), (0, 2))),
        "MonomialIdeal(n=2, gens=((1, 1), (0, 2)))",
    ),
    (lambda: PrimeIdeal(3, (1, 2)), "PrimeIdeal(n=3, vars=(1, 2))"),
    (
        lambda: LexSpec(3, 2, [1, 1, 0], (0, 1, 1)),
        "LexSpec(n=3, d=2, u=(1, 1, 0), v=(0, 1, 1))",
    ),
    (
        lambda: IrreducibleIdeal(3, ((1, 2), (3, 1))),
        "IrreducibleIdeal(n=3, powers=((1, 2), (3, 1)))",
    ),
    (
        lambda: AssResult(frozenset({P23}), ((P23, (1, 0, 0)),)),
        "AssResult(primes=frozenset({PrimeIdeal(n=3, vars=(2, 3))}), "
        "witnesses=((PrimeIdeal(n=3, vars=(2, 3)), (1, 0, 0)),))",
    ),
    (
        lambda: DepthCase(DepthClass.DEPTH1, "a"),
        "DepthCase(depth=<DepthClass.DEPTH1: 1>, subcase='a')",
    ),
    (
        lambda: FiltrationStep((1, 0, 0), P23),
        "FiltrationStep(witness=(1, 0, 0), prime=PrimeIdeal(n=3, vars=(2, 3)))",
    ),
    (
        lambda: PrimeFiltration(MonomialIdeal(3, ((1, 1, 0),)), (STEP,)),
        "PrimeFiltration(base=MonomialIdeal(n=3, gens=((1, 1, 0),)), "
        "steps=(FiltrationStep(witness=(1, 0, 0), prime=PrimeIdeal(n=3, vars=(2, 3))),))",
    ),
    (
        lambda: Report(("chain breaks at step 1",)),
        "Report(violations=('chain breaks at step 1',))",
    ),
    (
        lambda: StanleyDecomposition(2, (((0, 1), frozenset({2})),)),
        "StanleyDecomposition(n=2, spaces=(((0, 1), frozenset({2})),))",
    ),
    (
        lambda: Mismatch(2, 2, "x1^2", "x2^2", "ass", "prime sets differ"),
        "Mismatch(n=2, d=2, u='x1^2', v='x2^2', family='ass', "
        "detail='prime sets differ', closed=None, oracle=None)",
    ),
]


@pytest.mark.parametrize(
    "make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS]
)
def test_record_keeps_value_semantics(make, text):
    record = make()
    assert record == make() and record is not make()
    # a frozen dataclass hashed the tuple of its fields, so sets of records
    # iterate in the order they did
    assert hash(record) == hash(tuple(getattr(record, name) for name in record._fields))
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickled_spec_is_validated_again(protocol):
    # u <_lex v, made past the constructor: unpickling runs LexSpec.__new__
    forged = tuple.__new__(LexSpec, (2, 2, (0, 2), (2, 0)))
    with pytest.raises(SpecError, match="need u >=_lex v"):
        pickle.loads(pickle.dumps(forged, protocol))
    spec = LexSpec(2, 2, (2, 0), (0, 2))
    assert pickle.loads(pickle.dumps(spec, protocol)) == spec


def test_replaced_spec_is_validated_again():
    spec = LexSpec(2, 2, (2, 0), (0, 2))
    assert spec._replace(u=(1, 1)) == LexSpec(2, 2, (1, 1), (0, 2))
    with pytest.raises(SpecError, match="expected d=3"):
        spec._replace(d=3)


def test_mismatch_json_keeps_field_order_and_drops_none():
    full = Mismatch(2, 2, "x1^2", "x2^2", "ass", "differ", [[1]], [[2]])
    assert list(full.to_json().items()) == [
        ("n", 2), ("d", 2), ("u", "x1^2"), ("v", "x2^2"), ("family", "ass"),
        ("detail", "differ"), ("closed", [[1]]), ("oracle", [[2]]),
    ]
    bare = Mismatch(3, 2, "x1*x2", "x3^2", "depth", "classifier DEPTH1 vs exact depth 0")
    assert bare.to_json() == {
        "n": 3, "d": 2, "u": "x1*x2", "v": "x3^2", "family": "depth",
        "detail": "classifier DEPTH1 vs exact depth 0",
    }


def test_sweep_report_json():
    report = SweepReport((2, 3), (2, 2), (2, 32003))
    assert report.ok and report.to_json() == {
        "n_range": [2, 3], "d_range": [2, 2], "primes": [2, 32003],
        "specs_tested": 0, "agreements": 0, "mismatch_count": 0,
        "mismatches": [], "seconds": 0.0,
    }
    mismatch = Mismatch(2, 2, "x1^2", "x2^2", "ass", "differ", [[1]], [[2]])
    report.specs_tested, report.agreements, report.seconds = 3, 2, 0.5
    report.mismatches.append(mismatch)
    assert not report.ok
    assert list(report.to_json().items()) == [
        ("n_range", [2, 3]), ("d_range", [2, 2]), ("primes", [2, 32003]),
        ("specs_tested", 3), ("agreements", 2), ("mismatch_count", 1),
        ("mismatches", [mismatch.to_json()]), ("seconds", 0.5),
    ]
