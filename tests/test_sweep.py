"""The sweep driver: input checks and the depth questions check_spec asks."""

import concurrent.futures
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import spec
from lexseg.depth import depth_exact, depths_exact
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
