"""Monomial grammar, JSON codecs, and CLI exit codes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import I, P
from lexseg import cli
from lexseg.cli import main
from lexseg.filtration import search_filtration
from lexseg.monomials import InternalConsistencyError
from lexseg.serialize import (
    ParseError,
    filtration_from_json,
    filtration_to_json,
    format_monomial,
    ideal_from_json,
    ideal_to_json,
    parse_monomial,
    primes_to_json,
)

# the module, which lexseg.sweep (the function) shadows as an attribute
sweep_module = importlib.import_module("lexseg.sweep")


class TestParseMonomial:
    def test_examples(self):
        assert parse_monomial("x1*x2^2", 3) == (1, 2, 0)
        assert parse_monomial("x3", 3) == (0, 0, 1)
        assert parse_monomial("1", 3) == (0, 0, 0)
        assert parse_monomial("x2^10", 2) == (0, 10)

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_monomial("x1**x2", 3)
        assert exc.value.pos == 3
        with pytest.raises(ParseError):
            parse_monomial("x4", 3)  # out of range
        with pytest.raises(ParseError):
            parse_monomial("x1*x1", 3)  # repeated variable
        with pytest.raises(ParseError):
            parse_monomial("x1*", 3)  # dangling *
        with pytest.raises(ParseError):
            parse_monomial("y2", 3)

    def test_round_trip(self):
        for text in ("x1*x2^2", "1", "x2^3*x3"):
            assert format_monomial(parse_monomial(text, 3)) == text


class TestJsonCodecs:
    def test_ideal_round_trip(self):
        ideal = I(3, "x1*x2", "x3^2")
        assert ideal_from_json(ideal_to_json(ideal)) == ideal
        assert ideal_to_json(ideal) == {"n": 3, "gens": [[1, 1, 0], [0, 0, 2]]}

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2, "gens": [[1.5, 1]]},
            {"n": 2, "gens": [[True, 1]]},
            {"n": 2, "gens": [[-1, 1]]},
            {"n": 2, "gens": [[1, "1"]]},
            {"n": 2.0, "gens": [[1, 1]]},
            {"gens": [[1, 1]]},
            {"n": 2, "gens": [1, 1]},
            [[1, 1]],
        ],
    )
    def test_ideal_rejects_malformed(self, data):
        with pytest.raises(ParseError):
            ideal_from_json(data)

    def test_primes_sorted(self):
        assert primes_to_json({P(3, 2, 3), P(3, 1)}) == [[1], [2, 3]]

    def test_filtration_round_trip(self):
        f = search_filtration(I(2, "x1*x2"))
        assert filtration_from_json(filtration_to_json(f)) == f


class TestCliExitCodes:
    def test_ass_both_methods_agree(self, capsys):
        code = main(
            ["ass", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3", "--json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed"] == out["oracle"]
        assert out["closed"] == [[1, 2], [1, 2, 3], [2, 3]]

    def test_ass_invalid_pair_is_usage_error(self, capsys):
        # u <_lex v
        code = main(["ass", "--n", "3", "--d", "2", "--u", "x3", "--v", "x1"])
        assert code == 2

    def test_ass_degree_mismatch_usage_error(self):
        assert (
            main(["ass", "--n", "3", "--d", "2", "--u", "x1", "--v", "x3"]) == 2
        )

    def test_bad_monomial_usage_error(self):
        assert (
            main(["ass", "--n", "3", "--d", "2", "--u", "zz", "--v", "x3^2"]) == 2
        )

    def test_missing_subcommand_usage_error(self):
        assert main([]) == 2

    def test_depth_spec(self, capsys):
        code = main(
            ["depth", "--n", "4", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--exact"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["depth_class"] == "DEPTH1"
        assert out["depth_exact"] == 1

    def test_depth_requires_spec_or_ideal(self):
        assert main(["depth", "--n", "3"]) == 2

    def test_depth_ideal_file(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[1, 0], [0, 1]]}))
        assert main(["depth", "--ideal", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["depth_exact"] == 0

    @pytest.mark.parametrize("p", ["4", "0"])
    def test_depth_non_prime_characteristic_usage_error(self, p, capsys):
        # arithmetic mod 4 would give depth_exact 1 here; the depth is 0
        code = main(
            ["depth", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--exact", "--p", p]
        )
        assert code == 2
        assert "not a prime" in capsys.readouterr().err

    def test_depth_checks_characteristic_without_exact(self, capsys):
        code = main(
            ["depth", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--p", "4"]
        )
        assert code == 2
        assert "not a prime" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["depth", "oracle-ass"])
    def test_non_integer_exponent_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[1.5, 1]]}))
        assert main([command, "--ideal", str(path)]) == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_lcm_lattice_over_limit_is_usage_error(self, tmp_path, capsys):
        # (x1, ..., x20): 2^20 - 1 lcms, refused once 2^16 are built
        path = tmp_path / "ideal.json"
        gens = [[int(i == j) for i in range(20)] for j in range(20)]
        path.write_text(json.dumps({"n": 20, "gens": gens}))
        assert main(["depth", "--ideal", str(path)]) == 2
        assert "lcm lattice" in capsys.readouterr().err

    def test_koszul_support_over_limit_is_usage_error(self, tmp_path, capsys):
        # (x1*...*x30): a one-element lattice, but 2^30 subsets of supp b
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 30, "gens": [[1] * 30]}))
        assert main(["depth", "--ideal", str(path)]) == 2
        assert "KOSZUL_SUPPORT_LIMIT" in capsys.readouterr().err

    def test_oracle_ass_and_decompose(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[1, 1], [0, 2]]}))
        assert main(["oracle-ass", "--ideal", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["primes"] == [[1, 2], [2]]
        assert main(["decompose", "--ideal", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out["components"]) == [[[1, 1], [2, 2]], [[2, 1]]]

    def test_missing_file_usage_error(self):
        assert main(["oracle-ass", "--ideal", "/nonexistent.json"]) == 2

    def test_witness_box_over_limit_is_usage_error(self, tmp_path, capsys):
        # box 41^4 = 2,825,761 monomials: refused before any scan
        path = tmp_path / "ideal.json"
        gens = [[40, 0, 0, 0], [0, 40, 0, 0], [0, 0, 40, 0], [0, 0, 0, 40]]
        path.write_text(json.dumps({"n": 4, "gens": gens}))
        assert main(["oracle-ass", "--ideal", str(path)]) == 2
        assert "witness box" in capsys.readouterr().err

    def test_filtration_verify(self, capsys):
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2",
             "--v", "x2*x3", "--verify"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert all(r["ok"] for r in out["verification"].values())

    def test_stanley(self, capsys):
        code = main(
            ["stanley", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover_ok"] is True
        assert out["cover_violations"] == []
        assert out["sdepth_lower_bound"] == 0
        assert "degree_bound" not in out

    def test_stanley_degree_bound_refused(self, capsys):
        # the certificate is exact, so there is no degree bound to set
        code = main(
            ["stanley", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--degree-bound", "4"]
        )
        assert code == 2
        assert "--degree-bound" in capsys.readouterr().err

    def test_stanley_certificate_over_limit_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr("lexseg.filtration.K_POLYNOMIAL_LIMIT", 1)
        code = main(
            ["stanley", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 2
        assert "K_POLYNOMIAL_LIMIT" in capsys.readouterr().err

    def test_sweep_small(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["sweep", "--n", "2..2", "--d", "2..2", "--json", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["specs_tested"] == 6  # 3 degree-2 monomials in 2 vars
        assert report["mismatch_count"] == 0

    def test_sweep_non_prime_characteristic_usage_error(self, capsys):
        # arithmetic mod 4 would report false depth and stanley mismatches
        assert main(["sweep", "--n", "3..3", "--d", "2..2", "--p", "4,32003"]) == 2
        assert "not a prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["depth", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--exact", "--p", str(2**89 - 1)],
            ["sweep", "--n", "3..3", "--d", "2..2", "--p", f"2,{2**89 - 1}"],
        ],
        ids=["depth", "sweep"],
    )
    def test_characteristic_over_limit_exits_promptly(self, args):
        # 2^89 - 1 is a prime; trial division up to its square root would
        # not finish, so a separate process with a timeout runs the command
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lexseg.cli import main; sys.exit(main(sys.argv[1:]))",
             *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert "CHARACTERISTIC_LIMIT" in out.stderr

    def test_sweep_cap(self):
        assert main(["sweep", "--n", "2..2", "--d", "2..2", "--cap", "1"]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n", "2..2", "--d", "2..2", "--jobs", "0"], "outside 1.."),
            (["--n", "2..2", "--d", "2..2", "--jobs", "-1"], "outside 1.."),
            # one over the CPU count, never more: unchecked, each job forks
            (["--n", "2..2", "--d", "2..2", "--jobs", str((os.cpu_count() or 1) + 1)],
             "outside 1.."),
            (["--n", "3..2", "--d", "2..2"], "range 3..2 is empty"),
            (["--n", "2..2", "--d", "3..2"], "range 3..2 is empty"),
            (["--n", "2..2", "--d", "2..2", "--jobs", "2", "--p", "4,32003"],
             "not a prime"),
        ],
        ids=[
            "jobs-0", "jobs-negative", "jobs-over-cpu-count", "empty-n", "empty-d",
            "non-prime",
        ],
    )
    def test_sweep_input_refused_before_any_work(
        self, args, message, monkeypatch, capsys
    ):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(sweep_module, "check_spec", no_work)
        assert main(["sweep", *args]) == 2
        assert message in capsys.readouterr().err

    def test_sweep_process_pool_matches_one_process(self):
        one = sweep_module.sweep((2, 3), (2, 2), jobs=1)
        pool = sweep_module.sweep((2, 3), (2, 2), jobs=2)
        assert one.specs_tested == pool.specs_tested == 6 + 21
        assert (pool.agreements, pool.mismatches) == (one.agreements, one.mismatches)

    def test_internal_error_has_its_own_code(self, monkeypatch, capsys):
        def broken(args):
            raise InternalConsistencyError("no pretty clean chain")

        monkeypatch.setattr(cli, "_cmd_filtration", broken)
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 3
        assert capsys.readouterr().err == "internal error: no pretty clean chain\n"
