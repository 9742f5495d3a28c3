"""The sweep driver: input checks, the depth questions check_spec asks and
the mismatch each check family records."""

import concurrent.futures
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import P, spec
from lexseg.depth import DepthCase, DepthClass, depth_exact, depths_exact
from lexseg.filtration import Report
from lexseg.monomials import DomainError, lexsegment_generators, reduce_fully

# the module, which lexseg.sweep (the function) shadows as an attribute
sweep_module = importlib.import_module("lexseg.sweep")

ACCEPTANCE = list(sweep_module.iter_specs((2, 4), (2, 3))) + list(
    sweep_module.iter_specs((5, 5), (2, 2))
)


def test_import_loads_no_multiprocessing():
    # the process pool is imported by sweep() only when jobs > 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, lexseg; print('multiprocessing' in sys.modules)"
    found = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert found.stdout.strip() == "False"


def test_no_characteristic_refused_before_any_work(monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(sweep_module, "check_spec", no_work)
    with pytest.raises(DomainError, match="no characteristic"):
        sweep_module.sweep((2, 2), (2, 2), primes=())


def test_cap_counted_without_enumerating(monkeypatch):
    # C(37, 30) = 10,295,472 monomials of degree 30 in 8 variables: the
    # pairs are counted from that binomial, and no segment is listed
    def no_listing(*_args):
        raise AssertionError("monomials listed before the cap was checked")

    monkeypatch.setattr(sweep_module, "lexsegment_generators", no_listing)
    with pytest.raises(DomainError, match="52998376999128 pairs, exceeding the cap"):
        sweep_module.sweep((8, 8), (30, 30))


@pytest.mark.parametrize("p", [2, 32003])
def test_working_spec_depth_from_the_spec_depth(p):
    # I = x1^b I' has the pd of I', and each dropped variable adds one to
    # the depth: check_spec reads the working spec's depth off the spec's
    assert len(ACCEPTANCE) == 477
    for s in ACCEPTANCE:
        work = reduce_fully(s)[0]
        exact = depth_exact(lexsegment_generators(s), p)
        assert depth_exact(lexsegment_generators(work), p) == exact - (s.n - work.n)


@pytest.mark.parametrize("primes", [(2,), (2, 32003), (2, 3, 32003)])
def test_check_spec_asks_each_depth_once(primes, monkeypatch):
    # L(x1^2*x2, x1*x2*x3) divides by x1, L(x2*x4, x3^2) drops x1: both
    # working specs are arbitrary-class and differ from the spec. One
    # search, on the spec's ideal, answers every characteristic.
    for s in (
        spec(3, 3, "x1^2*x2", "x1*x2*x3"),
        spec(4, 2, "x2*x4", "x3^2"),
        spec(4, 2, "x1*x2", "x2*x3"),
    ):
        asked = []

        def counting(ideal, ps):
            asked.append((ideal, tuple(ps)))
            return depths_exact(ideal, ps)

        monkeypatch.setattr(sweep_module, "depths_exact", counting)
        assert sweep_module.check_spec(s, primes) == []
        assert asked == [(lexsegment_generators(s), primes)]


def test_one_shot_prime_iterable():
    # the primes are read once: checked up front, then asked of every spec
    report = sweep_module.sweep((2, 2), (2, 2), primes=(p for p in (2, 3)))
    assert report.ok and report.specs_tested == 6
    assert report.primes == (2, 3)


# L(x1*x2, x2*x3) in 4 variables: arbitrary class, depth 1 at both primes,
# DEPTH1, Ass {(x1, x2), (x1, x2, x3), (x2, x3, x4)}, sdepth bound 1
BROKEN = spec(4, 2, "x1*x2", "x2*x3")


@pytest.mark.parametrize(
    "route, broken, family, detail",
    [
        ("associated_primes_lexsegment",
         lambda real: lambda s: real(s) | {P(4, 4)},
         "ass", "closed-form and oracle prime sets differ"),
        ("verify_pretty_clean",
         lambda real: lambda f: Report(("(x1, x2) at 0 inside (x1, x2, x3) at 1",)),
         "filtration", "pretty_clean: (x1, x2) at 0 inside (x1, x2, x3) at 1"),
        ("depths_exact",
         lambda real: lambda i, ps: {p: real(i, ps)[p] + k for k, p in enumerate(ps)},
         "depth", "depth differs across primes: {2: 1, 32003: 2}"),
        ("depth_class",
         lambda real: lambda w: DepthCase(DepthClass(real(w).depth.value + 1), "b"),
         "depth", "classifier DEPTH_GE2 vs exact depth 1"),
        ("sdepth_lower_bound",
         lambda real: lambda d: real(d) + 1,
         "stanley", "depth 1, n - max|P| over Ass 1 and sdepth lower bound 2 are "
                    "not all equal"),
        ("stanley_certificate",
         lambda real: lambda i, d: Report(("x4 is covered twice",)),
         "stanley", "certificate: x4 is covered twice"),
    ],
    ids=["closed-form", "verifier", "depth-across-primes", "depth-class",
         "sdepth-bound", "certificate"],
)
def test_each_family_records_its_mismatch(route, broken, family, detail, monkeypatch):
    # one route of check_spec answers wrongly: the spec gets one record of
    # that family, and its JSON holds what reproduces it
    assert sweep_module.check_spec(BROKEN) == []
    monkeypatch.setattr(
        sweep_module, route, broken(getattr(sweep_module, route))
    )
    found = sweep_module.check_spec(BROKEN)
    assert [(m.family, m.detail) for m in found] == [(family, detail)]
    record = {"n": 4, "d": 2, "u": "x1*x2", "v": "x2*x3", "family": family,
              "detail": detail}
    if family == "ass":
        record["closed"] = [[1, 2], [1, 2, 3], [2, 3, 4], [4]]
        record["oracle"] = [[1, 2], [1, 2, 3], [2, 3, 4]]
    assert found[0].to_json() == record


def test_sweep_reports_the_mismatch_of_one_spec(monkeypatch):
    # a closed form that is wrong on one of the 6 specs of n=2, d=2 only
    real = sweep_module.associated_primes_lexsegment
    target = spec(2, 2, "x1^2", "x1*x2")
    monkeypatch.setattr(
        sweep_module, "associated_primes_lexsegment",
        lambda s: real(s) | {P(2, 2)} if s == target else real(s),
    )
    report = sweep_module.sweep((2, 2), (2, 2))
    assert not report.ok
    assert (report.specs_tested, report.agreements) == (6, 5)
    [m] = report.mismatches
    assert (m.u, m.v, m.family, m.closed, m.oracle) == (
        "x1^2", "x1*x2", "ass", [[1], [1, 2], [2]], [[1], [1, 2]]
    )
    payload = report.to_json()
    assert payload["mismatch_count"] == 1
    assert payload["mismatches"] == [m.to_json()]
