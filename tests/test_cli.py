"""Monomial grammar, JSON codecs, and CLI exit codes."""

import concurrent.futures
import importlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import I, P, disjoint_edges, real_projective_plane, spec
from lexseg import cli
from lexseg.cli import main
from lexseg.depth import DepthCase, DepthClass
from lexseg.filtration import FiltrationStep, PrimeFiltration, Report, search_filtration
from lexseg.monomials import InternalConsistencyError, PrimeIdeal
from lexseg.serialize import (
    ParseError,
    filtration_to_json,
    format_monomial,
    ideal_from_json,
    ideal_to_json,
    parse_monomial,
    primes_to_json,
)

# the module, which lexseg.sweep (the function) shadows as an attribute
sweep_module = importlib.import_module("lexseg.sweep")


def run_cli(args, **kwargs):
    """The CLI on args in a separate Python process with a 60 s timeout,
    importing lexseg from this checkout; kwargs go to subprocess.run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from lexseg.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        env=env, capture_output=True, text=True, timeout=60, **kwargs,
    )


def cap_address_space():
    """Caps this process's address space at 1.5 GB (the soft RLIMIT_AS),
    so that a run listing too much fails instead of taking the machine's
    memory; a preexec_fn for run_cli."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))


def filtration_from_json(data):
    """The inverse of filtration_to_json, for the round-trip test."""
    base = ideal_from_json(data["base"])
    steps = tuple(
        FiltrationStep(tuple(s["witness"]), PrimeIdeal.from_vars(base.n, s["prime"]))
        for s in data["steps"]
    )
    return PrimeFiltration(base, steps)


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

    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.tuples(*[st.integers(0, 40)] * n)))
    def test_drawn_round_trip(self, m):
        assert parse_monomial(format_monomial(m), len(m)) == m

    @pytest.mark.parametrize("text", [
        "x1x2", "x1 *x2", "x1^", "x1^-1", "x1^0", "x0", "x4", "x1*x1", "*x1",
        "x1*", "", "y2",
        # Unicode digits other than ASCII: Arabic-Indic, fullwidth
        "x\u0661^\u0662", "x1^\u0662", "x\uff11",
    ])
    def test_malformed_refused(self, text):
        with pytest.raises(ParseError):
            parse_monomial(text, 3)

    @pytest.mark.parametrize("text, pos", [("x1**x2", 3), ("x1*x1", 3)])
    def test_refused_factor_reports_its_start(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse_monomial(text, 3)
        assert exc.value.pos == pos


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

    def test_depth_exact_against_the_class_through_the_dropped_variable(
        self, capsys
    ):
        # L(x2*x3, x3*x4) drops x1: its working spec is DEPTH0, and the
        # exact depth of the spec is 1, one more per dropped variable
        code = main(
            ["depth", "--n", "4", "--d", "2", "--u", "x2*x3", "--v", "x3*x4",
             "--exact"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["depth_class"], out["depth_exact"]) == ("DEPTH0", 1)
        assert "mismatch" not in out

    def test_depth_exact_disagreeing_with_the_class_is_a_mismatch(
        self, monkeypatch, capsys
    ):
        # a classifier that says DEPTH0 where the depth is 1: the CLI
        # exits 1 with the detail the sweep records for the same spec
        def wrong(work):
            return DepthCase(DepthClass.DEPTH0, None)

        monkeypatch.setattr(cli, "depth_class", wrong)
        monkeypatch.setattr(sweep_module, "depth_class", wrong)
        code = main(
            ["depth", "--n", "4", "--d", "2", "--u", "x1*x2", "--v", "x2*x3",
             "--exact"]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        found = sweep_module.check_spec(spec(4, 2, "x1*x2", "x2*x3"))
        assert [m.detail for m in found if m.family == "depth"] == [out["mismatch"]]
        assert out["mismatch"] == "classifier DEPTH0 vs exact depth 1"
        # without --exact nothing is compared
        args = ["depth", "--n", "4", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        assert main(args) == 0
        assert "mismatch" not in json.loads(capsys.readouterr().out)

    def test_depth_requires_spec_or_ideal(self):
        assert main(["depth", "--n", "3"]) == 2

    def test_depth_ideal_file(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[1, 0], [0, 1]]}))
        assert main(["depth", "--ideal", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["depth_exact"] == 0

    @pytest.mark.parametrize("p, expected", [("2", 2), ("3", 3)])
    def test_depth_ideal_depends_on_the_characteristic(
        self, p, expected, tmp_path, capsys
    ):
        # RP^2: H~_1 is nonzero only in characteristic 2; its K^b at full
        # support is built and ranked at either prime
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(ideal_to_json(real_projective_plane())))
        assert main(["depth", "--ideal", str(path), "--p", p]) == 0
        assert json.loads(capsys.readouterr().out)["depth_exact"] == expected

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
        # (x1, ..., x20): 2^20 - 1 lcms, but n = 20 is already over
        # KOSZUL_SUPPORT_LIMIT, tested before any search
        path = tmp_path / "ideal.json"
        gens = [[int(i == j) for i in range(20)] for j in range(20)]
        path.write_text(json.dumps({"n": 20, "gens": gens}))
        assert main(["depth", "--ideal", str(path)]) == 2
        assert "n = 20 is over KOSZUL_SUPPORT_LIMIT" in capsys.readouterr().err

    def test_lcm_lattice_walk_over_limit_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # (x1*x3, x1*x4, x2*x3, x2*x4) = (x1, x2) ∩ (x3, x4): h = 2 and
        # pd(I) = 2, so the box search runs after the seed. It enters 11
        # nodes, one of them the point where the square on {1, 2, 3, 4}
        # gives beta_2, so it answers at a node limit of 11, the limit that
        # took the lattice walk's place, and refuses at 10
        path = tmp_path / "ideal.json"
        gens = [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
        path.write_text(json.dumps({"n": 4, "gens": gens}))
        depth_module = importlib.import_module("lexseg.depth")
        monkeypatch.setattr(depth_module, "BOX_NODE_LIMIT", 11)
        assert main(["depth", "--ideal", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["depth_exact"] == 1
        monkeypatch.setattr(depth_module, "BOX_NODE_LIMIT", 10)
        assert main(["depth", "--ideal", str(path)]) == 2
        assert "more than BOX_NODE_LIMIT = 10 nodes" in capsys.readouterr().err

    def test_spec_past_the_lattice_limit_is_answered(self, capsys):
        # L(x1*x6*x9^2, x4*x5*x6*x7): 243 generators, more lcm lattice
        # elements than the walk that the box search replaced could take,
        # and h = 8, so the depth is 9 - 8
        code = main(["depth", "--n", "9", "--d", "4", "--u", "x1*x6*x9^2",
                     "--v", "x4*x5*x6*x7", "--exact"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["depth_exact"] == 1

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

    @pytest.mark.parametrize("command", ["decompose", "oracle-ass"])
    def test_component_limit_is_usage_error(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # 4 disjoint edges have 16 components: a fold limit of 15 refuses them
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(ideal_to_json(disjoint_edges(4))))
        decompose_module = importlib.import_module("lexseg.decompose")
        monkeypatch.setattr(decompose_module, "COMPONENT_LIMIT", 15)
        decompose_module._components.cache_clear()
        assert main([command, "--ideal", str(path)]) == 2
        assert "over COMPONENT_LIMIT = 15" in capsys.readouterr().err

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

    def test_filtration_search_over_limit_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr("lexseg.filtration.SEARCH_NODE_LIMIT", 1)
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 2
        assert "SEARCH_NODE_LIMIT" in capsys.readouterr().err

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
        out = run_cli(args)
        assert out.returncode == 2
        assert "CHARACTERISTIC_LIMIT" in out.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--n", "8", "--d", "30"], "exceeding the cap 100000"),
            (["ass", "--n", "8", "--d", "30", "--u", "x1^30", "--v", "x8^30"],
             "SEGMENT_LIMIT"),
            (["filtration", "--n", "8", "--d", "30", "--u", "x1^30", "--v", "x8^30"],
             "SEGMENT_LIMIT"),
        ],
        ids=["sweep", "ass", "filtration"],
    )
    def test_huge_degree_refused_from_its_count(self, args, message):
        # C(37, 30) = 10,295,472 monomials of degree 30 in 8 variables are
        # refused from their count, before any is listed; the process gets
        # a 1.5 GB address space, in which listing them fails (exit 3)
        out = run_cli(args, preexec_fn=cap_address_space)
        assert out.returncode == 2, out.stderr
        assert message in out.stderr

    @pytest.mark.parametrize(
        "command", [["ass"], ["filtration", "--verify"], ["stanley"]],
        ids=["ass", "filtration", "stanley"],
    )
    def test_narrow_segment_in_a_huge_degree_answered(self, command):
        # L(x1^30, x1^29*x8) has 8 generators among the 10,295,472 monomials
        # of degree 30 in 8 variables: it is walked, not picked out of them,
        # so it is answered in the same 1.5 GB address space
        args = [*command, "--n", "8", "--d", "30", "--u", "x1^30", "--v", "x1^29*x8"]
        out = run_cli(args, preexec_fn=cap_address_space)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("text, bounds", [("2..4", (2, 4)), ("3", (3, 3)),
                                              ("10..11", (10, 11))])
    def test_range_grammar(self, text, bounds):
        assert cli._parse_range(text) == bounds

    @pytest.mark.parametrize("text", [
        "-1..2", " 3", "2..", "..3", "2...3", "", "\u0662..\u0663", "\uff13",
    ])
    def test_range_outside_the_grammar_refused(self, text):
        with pytest.raises(ValueError, match="in ASCII digits"):
            cli._parse_range(text)

    def test_sweep_cap(self, capsys):
        assert main(["sweep", "--n", "2..2", "--d", "2..2", "--cap", "1"]) == 2
        assert "6 pairs, exceeding the cap 1" in capsys.readouterr().err

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
            # ASCII digits only: int() would take these
            (["--n", "1_0..1_1", "--d", "2..2"], "in ASCII digits"),
            (["--n", " +3 ", "--d", "2..2"], "in ASCII digits"),
            (["--n", "2..2", "--d", "\u0662"], "in ASCII digits"),
        ],
        ids=[
            "jobs-0", "jobs-negative", "jobs-over-cpu-count", "empty-n", "empty-d",
            "non-prime", "underscored-n", "signed-n", "arabic-indic-d",
        ],
    )
    def test_sweep_input_refused_before_any_work(
        self, args, message, monkeypatch, capsys
    ):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(sweep_module, "check_spec", no_work)
        assert main(["sweep", *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["sweep", "--n", "2..2", "--d", "2..2", "--p", "3_2003, 2"], "--p"),
            (["depth", "--n", "\u0663", "--d", "2", "--u", "x1^2", "--v", "x2*x3",
              "--exact", "--p", "\uff13"], "--n"),
            (["sweep", "--n", "2", "--d", "2", "--jobs", "\uff12"], "--jobs"),
            (["sweep", "--n", "2", "--d", "2", "--cap", "1_000"], "--cap"),
            (["sweep", "--n", "2", "--d", "2", "--p", "2,"], "--p"),
            (["ass", "--n", "3", "--d", "+2", "--u", "x1^2", "--v", "x2*x3"], "--d"),
            (["depth", "--n", "3", "--d", "2", "--u", "x1^2", "--v", "x2*x3",
              "--exact", "--p", " 2"], "--p"),
        ],
        ids=["sweep-p-underscored", "depth-arabic-indic-n", "sweep-jobs-fullwidth",
             "sweep-cap-underscored", "sweep-p-empty-item", "ass-d-signed",
             "depth-p-blank"],
    )
    def test_integer_flags_take_ascii_digits_only(
        self, args, flag, monkeypatch, capsys
    ):
        # int() would take each of these; every integer flag is -?[0-9]+
        def no_work(*_args, **_kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(sweep_module, "check_spec", no_work)
        monkeypatch.setattr(cli, "depth_exact", no_work)
        monkeypatch.setattr(cli, "associated_primes_lexsegment", no_work)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        assert "is not an integer in ASCII digits" in err

    def test_ass_text_prints_one_line_per_key(self, capsys):
        # a prime list is one value: [[1], [2, 3]] and [[1, 2], [3]] differ
        code = main(["ass", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "n: 3",
            "d: 2",
            "u: x1*x2",
            "v: x2*x3",
            "closed: [[1, 2], [1, 2, 3], [2, 3]]",
            "oracle: [[1, 2], [1, 2, 3], [2, 3]]",
        ]

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_ass_disagreement_is_a_mismatch(self, as_json, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "associated_primes_lexsegment", lambda s: {P(3, 1), P(3, 2, 3)}
        )
        args = ["ass", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        assert main(args + ["--json"] * as_json) == 1
        out = capsys.readouterr().out
        if as_json:
            found = json.loads(out)
            assert (found["closed"], found["mismatch"]) == ([[1], [2, 3]], True)
        else:
            assert out.splitlines()[-3:] == [
                "closed: [[1], [2, 3]]",
                "oracle: [[1, 2], [1, 2, 3], [2, 3]]",
                "mismatch: True",
            ]

    def test_sweep_mismatch_is_printed_and_exits_1(self, tmp_path, monkeypatch, capsys):
        # a closed form that is wrong on L(x1^2, x1*x2) alone
        real = sweep_module.associated_primes_lexsegment
        target = spec(2, 2, "x1^2", "x1*x2")
        monkeypatch.setattr(
            sweep_module, "associated_primes_lexsegment",
            lambda s: real(s) | {P(2, 2)} if s == target else real(s),
        )
        path = tmp_path / "report.json"
        assert main(["sweep", "--n", "2..2", "--d", "2..2", "--json", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["specs_tested: 6", "agreements: 5", "mismatches: 1"]
        assert lines[4:] == [
            "mismatch: n=2 d=2 u=x1^2 v=x1*x2 [ass] "
            "closed-form and oracle prime sets differ"
        ]
        report = json.loads(path.read_text())
        assert report["mismatch_count"] == 1
        assert report["mismatches"] == [
            {"n": 2, "d": 2, "u": "x1^2", "v": "x1*x2", "family": "ass",
             "detail": "closed-form and oracle prime sets differ",
             "closed": [[1], [1, 2], [2]], "oracle": [[1], [1, 2]]}
        ]

    def test_filtration_verify_failure_exits_1(self, monkeypatch, capsys):
        # the verifiers lexseg filtration --verify runs are the sweep's
        violation = "(x2, x3) at 0 inside (x1, x2, x3) at 1"
        monkeypatch.setattr(
            sweep_module, "verify_pretty_clean", lambda f: Report((violation,))
        )
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2",
             "--v", "x2*x3", "--verify"]
        )
        assert code == 1
        found = json.loads(capsys.readouterr().out)["verification"]
        assert found == {
            "prime_filtration": {"ok": True, "violations": []},
            "pretty_clean": {"ok": False, "violations": [violation]},
            "supp_equals_ass": {"ok": True, "violations": []},
        }

    def test_sweep_process_pool_matches_one_process(self):
        one = sweep_module.sweep((2, 3), (2, 2), jobs=1)
        pool = sweep_module.sweep((2, 3), (2, 2), jobs=2)
        assert one.specs_tested == pool.specs_tested == 6 + 21
        assert (pool.agreements, pool.mismatches) == (one.agreements, one.mismatches)

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        # a crash exits 3, never 1, which means a verification mismatch
        def broken(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_filtration", broken)
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "internal error: RecursionError: maximum recursion depth exceeded\n"
        )

    def test_long_chain_needs_no_recursion(self, capsys):
        # L(x1^50, x1*x2^49) has a 1,226-step chain, deeper than the
        # interpreter's default recursion limit
        code = main(
            ["filtration", "--n", "2", "--d", "50", "--u", "x1^50",
             "--v", "x1*x2^49", "--verify"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["steps"]) == 1226
        assert all(r["ok"] for r in out["verification"].values())

    def test_internal_error_has_its_own_code(self, monkeypatch, capsys):
        def broken(args):
            raise InternalConsistencyError("no pretty clean chain")

        monkeypatch.setattr(cli, "_cmd_filtration", broken)
        code = main(
            ["filtration", "--n", "3", "--d", "2", "--u", "x1*x2", "--v", "x2*x3"]
        )
        assert code == 3
        assert capsys.readouterr().err == "internal error: no pretty clean chain\n"
