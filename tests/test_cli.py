import csv
import io
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from exkit import cli, games, mp, relations, serialize
from exkit.cli import main
from exkit.core import Alphabet, FiniteDistribution, tensor_power, uniform
from exkit.games import chsh_game, iid_kernel
from exkit.relations import MARKOV, enumerate_types


@pytest.fixture()
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(serialize.dumps(serialize.game_to_json(chsh_game())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classes_filter_word_paper_example(capsys):
    code, out = run(
        capsys,
        "classes", "--relation", "markov", "--d", "3", "--n", "8",
        "--filter-word", "11323122",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 1
    assert payload["classes"][0]["size"] == 12


@pytest.mark.parametrize("n, word", [("4", "12"), ("3", "1")])
def test_classes_filter_word_length_must_match_n(n, word, capsys):
    code = main(["classes", "--relation", "markov", "--d", "2", "--n", n, "--filter-word", word])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    detail = json.loads(captured.err)["detail"]
    assert f"length {len(word)}" in detail and f"--n is {n}" in detail


def test_classes_exchangeable_d2_n3(capsys):
    code, out = run(capsys, "classes", "--relation", "exchangeable", "--d", "2", "--n", "3")
    payload = json.loads(out)
    assert code == 0 and payload["N"] == 4
    assert [c["size"] for c in payload["classes"]] == [1, 3, 3, 1]


def test_classes_lmarkov_includes_size_two_row(capsys):
    code, out = run(capsys, "classes", "--relation", "lmarkov", "--ell", "2", "--d", "2", "--n", "8")
    payload = json.loads(out)
    assert code == 0
    # the class of 00101100 (externally 11212211) has exactly two members
    code2, out2 = run(
        capsys,
        "classes", "--relation", "lmarkov", "--ell", "2", "--d", "2", "--n", "8",
        "--filter-word", "11212211",
    )
    row = json.loads(out2)["classes"][0]
    assert row["size"] == 2


def test_size_best_terms(capsys):
    code, out = run(capsys, "size", "--relation", "markov", "--d", "3", "--word", "11323122")
    payload = json.loads(out)
    assert code == 0
    assert payload["size"] == 12
    assert payload["best_formula"] == {
        "t_w": 2, "spanning_trees": 3, "factorial_ratio": "2/1", "end_vertex": 2,
    }



def test_size_best_terms_with_an_unvisited_letter(capsys):
    # Letter 3 never occurs: the in-trees are counted on letters 1 and 2.
    code, out = run(capsys, "size", "--relation", "markov", "--d", "3", "--word", "1121")
    payload = json.loads(out)
    assert code == 0
    assert payload["size"] == 2
    assert payload["best_formula"] == {
        "t_w": 2, "spanning_trees": 1, "factorial_ratio": "1/1", "end_vertex": 1,
    }

def test_certify_tensor_power_exit_zero(tmp_path, capsys):
    letter = FiniteDistribution(Alphabet(2), 1, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})
    p = tensor_power(letter, 4)
    path = tmp_path / "p.json"
    path.write_text(serialize.dumps(serialize.distribution_to_json(p)))
    code, out = run(capsys, "certify", str(path), "--relation", "exchangeable")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_certify_non_exchangeable_witness_on_stderr(tmp_path, capsys):
    p = FiniteDistribution(Alphabet(2), 2, {(0, 1): Fraction(1)})
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(serialize.distribution_to_json(p)))
    code = main(["certify", str(path), "--relation", "exchangeable"])
    captured = capsys.readouterr()
    assert code == 4
    payload = json.loads(captured.err)
    assert payload["error"] == "NotExchangeable"
    assert "witness" in payload


def test_certify_round_trip_verify(tmp_path, capsys):
    p = uniform(Alphabet(2), 4)
    dist_path = tmp_path / "p.json"
    dist_path.write_text(serialize.dumps(serialize.distribution_to_json(p)))
    cert_path = tmp_path / "cert.json"
    code = main(["certify", str(dist_path), "--relation", "markov", "--output", str(cert_path)])
    assert code == 0
    code, out = run(capsys, "certify", str(cert_path), "--verify")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_certify_conditional_exit_zero(tmp_path, capsys):
    joint = Alphabet(4, (2, 2))
    path = tmp_path / "joint.json"
    path.write_text(serialize.dumps(serialize.distribution_to_json(uniform(joint, 3))))
    code, out = run(capsys, "conditional", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_alpha_command(capsys):
    code, out = run(capsys, "alpha", "--relation", "exchangeable", "--d", "2", "--n", "4")
    payload = json.loads(out)
    assert code == 0 and payload["degree"] == 2
    assert Fraction(payload["alpha"]["lo"]) <= Fraction("2.94780690")


def test_mp_and_beta_commands(capsys):
    code, out = run(capsys, "mp", "--d", "2", "--n", "2", "--type", "1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["lambda_row"] == ["3/10", "2/5", "3/10"]
    code, out = run(capsys, "beta", "--d", "2", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and payload["beta_exact"] == "5/2"


def test_counterexample_command(capsys):
    code, out = run(capsys, "counterexample")
    payload = json.loads(out)
    assert code == 0
    assert set(payload["x_class_members"]) == {"1211", "1121"}
    assert payload["marginal_is_markov_exchangeable"] is False


def test_game_command_n1_and_n2(chsh_file, capsys):
    code, out = run(capsys, "game", chsh_file, "--n", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["classical_value"] == "3/4"
    code, out = run(capsys, "game", chsh_file, "--n", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["repeated_value"] == "5/8"
    assert payload["bound_ge_winning"] is True


def test_game_sequential_iid_matches_parallel(chsh_file, capsys):
    code, out = run(capsys, "game", chsh_file, "--n", "2", "--mode", "sequential")
    payload = json.loads(out)
    assert code == 0
    assert payload["repeated_value"] == "5/8"
    assert payload["bound_ge_winning"] is True


def test_game_sequential_n1_bound_without_analytic_prefactor(chsh_file, capsys):
    # The closed-form Markov pre-factor needs n >= 2; the certified bound does not.
    code, out = run(capsys, "game", chsh_file, "--n", "1", "--mode", "sequential")
    payload = json.loads(out)
    assert code == 0
    assert payload["bound_ge_winning"] is True
    assert payload["prefactor_analytic"] is None
    assert payload["degree"] is None


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_game_strategy_file_of_the_witness_prints_the_default_bytes(mode, chsh_file, tmp_path, capsys):
    # Without --strategy the game plays the classical witness; the same
    # witness read from a file must give the same report.
    _, witness = games.classical_value(chsh_game())
    slices = {
        f"{x + 1},{y + 1}": {f"{a + 1},{b + 1}": serialize.rational_str(p) for (a, b), p in row.items()}
        for (x, y), row in witness.table.items()
    }
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"slices": slices}))
    argv = ["game", chsh_file, "--n", "2", "--mode", mode]
    code, default = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--strategy", str(path)) == (0, default)


@pytest.mark.parametrize("kernel", ["stationary", "non-stationary", "missing"])
@pytest.mark.parametrize("mode", [[], ["--mode", "parallel"]])
def test_game_kernel_conflicts_with_parallel_mode(kernel, mode, chsh_file, tmp_path, capsys):
    # The parallel game has no kernel, so a given one is an error, whatever it holds.
    path = tmp_path / "kernel.json"
    if kernel == "stationary":
        path.write_text(serialize.dumps(serialize.kernel_to_json(iid_kernel(chsh_game()))))
    elif kernel == "non-stationary":
        rows = {f"{x},{y}": {"1,1": "1/1"} for x in (1, 2) for y in (1, 2)}
        path.write_text(json.dumps({"rows": rows}))
    code = main(["game", chsh_file, "--n", "2", "--kernel", str(path)] + mode)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == "--kernel conflicts with --mode parallel"


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_game_builds_the_repeated_game_once(mode, chsh_file, monkeypatch, capsys):
    builder = {"parallel": "parallel_game", "sequential": "sequential_game"}[mode]
    calls = []
    build = getattr(games, builder)

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(games, builder, counted)
    code, out = run(capsys, "game", chsh_file, "--n", "2", "--mode", mode)
    assert code == 0
    assert json.loads(out)["repeated_value"] == "5/8"
    assert len(calls) == 1


def test_cap_exceeded_exit_code(chsh_file, capsys):
    # Building the repeated game stays behind the enumeration cap.
    code = main(["game", chsh_file, "--n", "2", "--enum-cap", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "cap_exceeded"


def test_missing_file_exit_code(capsys):
    code = main(["certify", "/nonexistent/file.json"])
    assert code == 4


CHSH_ZERO_DENOMINATOR = {**serialize.game_to_json(chsh_game()), "T": {"1,1": "1/0"}}
GOLDEN = Path(__file__).parent / "data" / "golden"
CERT_MARKOV = json.loads((GOLDEN / "certify_markov_d2_n4.json").read_text())


@pytest.mark.parametrize("argv, content", [
    (["certify", "{file}"], {"d": 2, "n": 2, "entries": {"11": "1/2", "22": "1/0"}}),
    (["certify", "{file}"], [1, 2]),
    (["certify", "{file}"], {"d": 2, "n": 2, "entries": ["11", "22"]}),
    (["game", "{file}"], CHSH_ZERO_DENOMINATOR),
    (["game", "{file}"], "hello"),
    (["game", "{chsh}", "--mode", "sequential", "--kernel", "{file}"], "hello"),
    (["certify", "{file}", "--verify"], [1, 2]),
    (["certify", "{file}"], {"d": 2, "n": 2, "factors": 5, "entries": {"11": "1"}}),
    (["game", "{file}"], {**serialize.game_to_json(chsh_game()), "V": [1, 2]}),
    (["certify", "{file}", "--verify"], {**CERT_MARKOV, "relation": [1, 2]}),
    (["certify", "{file}", "--verify"], {**CERT_MARKOV, "options": "tight"}),
])
def test_malformed_file_exits_4(argv, content, chsh_file, tmp_path, capsys):
    # Exit 1 means "the certificate fails"; a malformed file is an input error.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code = main([a.format(file=path, chsh=chsh_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ExkitError"


CHSH_JSON = serialize.game_to_json(chsh_game())
CERT_WITHOUT = {field: {k: v for k, v in CERT_MARKOV.items() if k != field} for field in ("input", "relation")}
CONSTANT_SLICES = {f"{x},{y}": {"1,1": "1"} for x in (1, 2) for y in (1, 2)}


@pytest.mark.parametrize("argv, content, detail", [
    (["certify", "{file}"], {"d": 2, "entries": {"11": "1"}}, "a distribution has no 'n' field"),
    (["certify", "{file}"], {"n": 2, "entries": {"11": "1"}}, "a distribution has no 'd' field"),
    (["certify", "{file}"], {"d": 2, "n": "two", "entries": {"11": "1"}},
     "a distribution's 'n' must be an integer, got 'two'"),
    (["game", "{file}"], {**CHSH_JSON, "T": {"1": "1"}}, 'T key \'1\' must be two indices "i,j"'),
    (["game", "{file}"], {k: v for k, v in CHSH_JSON.items() if k != "V"}, "a game has no 'V' field"),
    (["game", "{chsh}", "--mode", "sequential", "--kernel", "{file}"], {"row": {}},
     "a kernel has no 'rows' field"),
    (["game", "{chsh}", "--strategy", "{file}"], {"slices": {"1,1,1": {}}},
     'slices key \'1,1,1\' must be two indices "i,j"'),
    (["game", "{chsh}", "--strategy", "{file}"], {}, "a strategy has no 'slices' field"),
    (["certify", "{file}", "--verify"], CERT_WITHOUT["input"], "a certificate has no 'input' field"),
    (["certify", "{file}", "--verify"], CERT_WITHOUT["relation"], "a certificate has no 'relation' field"),
    (["certify", "{file}"], {"d": 0, "n": 1, "entries": {}}, "a distribution's 'd' must be >= 1, got 0"),
    (["certify", "{file}"], {"d": 2, "factors": [0, 2], "n": 1, "entries": {}},
     "a distribution's 'factors' must be >= 1 with product 2, got [0, 2]"),
    (["certify", "{file}"], {"d": 2, "factors": [-1, -2], "n": 1, "entries": {}},
     "a distribution's 'factors' must be >= 1 with product 2, got [-1, -2]"),
    (["certify", "{file}"], {"d": 4, "factors": [2, 3], "n": 1, "entries": {}},
     "a distribution's 'factors' must be >= 1 with product 4, got [2, 3]"),
    # Flags and indices checked at the boundary, not left to a KeyError or
    # ValueError deep inside.
    (["classes", "--d", "0", "--n", "2"], {}, "--d must be >= 1, got 0"),
    (["classes", "--factors", "0,2", "--n", "2"], {},
     "--factors must be comma-separated integers >= 1, got '0,2'"),
    (["classes", "--factors", "2,x", "--n", "2"], {},
     "--factors must be comma-separated integers >= 1, got '2,x'"),
    (["game", "{file}"], {**CHSH_JSON, "T": {**CHSH_JSON["T"], "3,1": "0"}},
     "T key '3,1' is outside 1..2 x 1..2"),
    (["game", "{file}"], {**CHSH_JSON, "V": [[5, 5, 5, 5]]},
     "V entry [5, 5, 5, 5] is outside 1..2 x 1..2 x 1..2 x 1..2"),
    (["game", "{chsh}", "--strategy", "{file}"], {"slices": {**CONSTANT_SLICES, "1,1": {"3,1": "1"}}},
     "slice 1,1 key '3,1' is outside 1..2 x 1..2"),
    (["game", "{chsh}", "--strategy", "{file}"], {"slices": {**CONSTANT_SLICES, "3,1": {"1,1": "1"}}},
     "slices key '3,1' is outside 1..2 x 1..2"),
    (["game", "{chsh}", "--strategy", "{file}", "--n", "2"], {"slices": {"1,1": {"1,1": "1"}}},
     "a strategy has no slice for input pair '1,2'"),
    (["game", "{chsh}", "--mode", "sequential", "--kernel", "{file}"],
     {"rows": {**CONSTANT_SLICES, "3,1": {"1,1": "1"}}}, "rows key '3,1' is outside 1..2 x 1..2"),
])
def test_malformed_file_names_the_field(argv, content, detail, chsh_file, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code = main([a.format(file=path, chsh=chsh_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err) == {"error": "ExkitError", "detail": detail}


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "classes", "--relation", "markov", "--d", "2", "--n", "4")
    _, out2 = run(capsys, "classes", "--relation", "markov", "--d", "2", "--n", "4")
    assert out1 == out2


def test_csv_and_pretty_formats(capsys):
    code, out = run(capsys, "classes", "--relation", "exchangeable", "--d", "2", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("type,size,alpha_tight")
    assert len(lines) == 5
    code, out = run(capsys, "beta", "--d", "2", "--n", "4", "--format", "pretty")
    assert code == 0 and "beta_exact: 7/2" in out
    # Without rows of its own a payload is flattened to one csv row: nested
    # objects as dotted columns, lists as JSON text.
    argv = ["beta", "--d", "2", "--n", "4"]
    _, out = run(capsys, *argv)
    payload = json.loads(out)
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row == {
        "d": "2", "n": "4", "beta_exact": "7/2", "argmax_type": "[2, 2]",
        **{f"beta_analytic.{k}": str(v) for k, v in payload["beta_analytic"].items()},
    }


def test_precision_bits_flag_minimum(capsys):
    argv = ["alpha", "--relation", "exchangeable", "--d", "2", "--n", "4"]
    assert main(argv + ["--precision-bits", "32"]) == 4  # must be >= 64
    assert main(argv + ["--precision-bits", "256"]) == 0


def test_precision_bits_flag_maximum(capsys):
    # A run starts at no more than MAX_BITS, where escalation stops.
    argv = ["alpha", "--relation", "exchangeable", "--d", "2", "--n", "3"]
    assert main(argv + ["--precision-bits", "1024"]) == 0
    capsys.readouterr()
    assert main(argv + ["--precision-bits", "1025"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == "precision must be <= 1024 bits"


@pytest.mark.parametrize("options, detail", [
    ({"bits": 8}, "precision must be >= 64 bits"),
    ({"bits": -8}, "precision must be >= 64 bits"),
    ({"alpha_mode": "bogus"}, "unknown alpha mode 'bogus'"),
    ({"bits": 2048}, "precision must be <= 1024 bits"),
    ({"bits": "x"}, "options's 'bits' must be an integer, got 'x'"),
])
def test_verify_rejects_bad_certificate_options(options, detail, tmp_path, capsys):
    # The certificate's own options are checked as the flags would be.
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**CERT_MARKOV, "options": {**CERT_MARKOV["options"], **options}}))
    code = main(["certify", str(path), "--verify"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == detail


@pytest.mark.parametrize("fmt, golden", [
    ("json", "classes_markov_d2_n4.json"),
    ("csv", "classes_markov_d2_n4.csv"),
    ("pretty", "classes_markov_d2_n4.txt"),
])
def test_classes_computes_each_class_once(fmt, golden, tmp_path, monkeypatch):
    calls = []
    original = cli.alpha_tight
    monkeypatch.setattr(cli, "alpha_tight", lambda *args: calls.append(args) or original(*args))
    out = tmp_path / golden
    code = main(["classes", "--relation", "markov", "--d", "2", "--n", "4",
                 "--format", fmt, "--output", str(out)])
    assert code == 0
    assert len(calls) == enumerate_types(MARKOV, Alphabet(2), 4).N == 14
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_classes_counts_each_class_once(tmp_path, monkeypatch):
    # One BEST count per enumeration candidate; alpha_tight reuses it.
    counted = []
    original = relations.trajectory_count
    monkeypatch.setattr(
        relations, "trajectory_count", lambda *args: counted.append(args) or original(*args)
    )
    out = tmp_path / "classes.json"
    code = main(["classes", "--relation", "markov", "--d", "2", "--n", "4", "--output", str(out)])
    assert code == 0
    assert len(counted) == len(list(MARKOV.candidates(Alphabet(2), 4)))
    assert out.read_bytes() == (GOLDEN / "classes_markov_d2_n4.json").read_bytes()


@pytest.fixture()
def joint_file(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(serialize.dumps(serialize.distribution_to_json(uniform(Alphabet(4, (2, 2)), 2))))
    return str(path)


@pytest.mark.parametrize("argv, flag", [
    (["certify", "{joint}", "--conditional", "--relation", "markov"], "--relation markov"),
    (["certify", "{joint}", "--conditional", "--product", "exchangeable,markov"], "--product"),
    (["certify", "{joint}", "--conditional", "--alpha-mode", "tight"], "--alpha-mode tight"),
    (["conditional", "{joint}", "--relation", "lmarkov"], "--relation lmarkov"),
    (["conditional", "{joint}", "--product", "exchangeable,exchangeable"], "--product"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--relation", "exchangeable"],
     "--relation exchangeable"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--product", "exchangeable,markov"],
     "--product"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--alpha-mode", "tight"],
     "--alpha-mode tight"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4_tight.json"), "--verify", "--alpha-mode", "analytic"],
     "--alpha-mode analytic"),
    (["conditional", str(GOLDEN / "conditional_2x2_n3.json"), "--verify", "--relation", "markov"],
     "--relation markov"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--conditional"],
     "--conditional"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--ell", "3"], "--ell 3"),
    (["certify", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify", "--precision-bits", "256"],
     "--precision-bits 256"),
    (["conditional", str(GOLDEN / "conditional_2x2_n3.json"), "--verify", "--precision-bits", "256"],
     "--precision-bits 256"),
    (["conditional", str(GOLDEN / "certify_markov_d2_n4.json"), "--verify"], "conditional --verify"),
    (["conditional", "{joint}", "--ell", "3"], "--ell 3"),
])
def test_conditional_rejects_contradictory_flags(argv, flag, joint_file, capsys):
    code = main([a.replace("{joint}", joint_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "ExkitError" and flag in error["detail"]


def test_classes_cap_bounds_candidates_before_enumerating(capsys):
    # 5 * C(35, 24), about 2.1e9 candidate types: rejected without walking any.
    start = time.process_time()
    code = main(["classes", "--relation", "markov", "--d", "5", "--n", "12", "--enum-cap", "10"])
    assert code == 2
    assert time.process_time() - start < 1
    assert json.loads(capsys.readouterr().err)["error"] == "cap_exceeded"


@pytest.mark.parametrize("word", ["1123", "12"])
def test_size_without_factored_best_form(word, capsys):
    # The end state has no outgoing transition (t_w = 0): the size is
    # reported and the factored BEST terms are left out.
    d = max(int(c) for c in word)
    code, out = run(capsys, "size", "--relation", "markov", "--d", str(d), "--word", word)
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1
    assert "best_formula" not in payload


def test_usage_errors_exit_4_and_cap_still_exits_2(joint_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conditional", joint_file, "--alpha-mode", "tight"])
    assert exc.value.code == 4
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(["classes", "--relation", "markov", "--d", "5", "--n", "12", "--enum-cap", "10"]) == 2


@pytest.mark.parametrize("cap", [[], ["--enum-cap", "5"], ["--enum-cap", "4"], ["--enum-cap", "1"]])
def test_non_invariant_class_over_the_cap_exits_4(cap, capsys):
    # Five of the six words of type (2, 2) at 1/5 each: the class's count
    # proves P is not invariant, so a class larger than the cap still gets
    # its witness.  Below 5 the enumeration's 5 candidates are over the cap
    # too, and P's check still comes first.
    path = Path(__file__).parent / "data" / "noninvariant_exchangeable_d2_n4.json"
    code = main(["certify", str(path), "--relation", "exchangeable", *cap])
    payload = json.loads(capsys.readouterr().err)
    assert code == 4
    assert payload["error"] == "NotExchangeable"
    assert payload["witness"] == [[0, 0, 1, 1], [1, 1, 0, 0]]


@pytest.mark.parametrize("relation, entries, witness", [
    # Markov, 62 letters: listing the class walks 61 steps.
    ("markov", {"12" + "1" * 60: "1"}, [[0, 1] + [0] * 60, [0] * 60 + [1, 0]]),
    # Exchangeable, 61 letters: two of the 61 words of counts (60, 1).
    ("exchangeable", {"1" * 60 + "2": "1/2", "1" * 59 + "21": "1/2"},
     [[0] * 60 + [1], [0] * 58 + [1, 0, 0]]),
])
def test_non_invariant_class_of_long_words_exits_4(relation, entries, witness, tmp_path, capsys):
    # Only the size caps bound the walk that finds the missing member.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"d": 2, "n": len(next(iter(entries))), "entries": entries}))
    code = main(["certify", str(path), "--relation", relation])
    payload = json.loads(capsys.readouterr().err)
    assert code == 4
    assert payload["error"] == "NotExchangeable" and payload["witness"] == witness


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, content, code, payload", [
    # An invariant P passes its check, so the cap's exit 2 stands.
    (["--relation", "exchangeable", "--enum-cap", "4"],
     {"d": 2, "n": 4, "entries": {"".join(w): "1/16" for w in itertools.product("12", repeat=4)}},
     2, {"error": "cap_exceeded", "detail": "5 candidate types exceed enumeration cap 4"}),
    # Words too short for l-Markov(2): the typing's message, not the enumeration's.
    (["--relation", "lmarkov", "--ell", "2"],
     {"d": 2, "n": 2, "entries": {"11": "1/4", "12": "1/4", "21": "1/4", "22": "1/4"}},
     4, {"error": "WordTooShort", "detail": "l-Markov(2) needs words of length >= 3"}),
])
def test_certify_reports_the_enumeration_error_after_checking_p(argv, content, code, payload, tmp_path,
                                                                capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(["certify", str(path), *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == payload


def test_certify_rejects_a_word_spelled_twice(capsys):
    # "12" and "1,2" both name the word (0, 1); the listed values sum to 3/2.
    code = main(["certify", str(DATA / "duplicate_word_d2_n2.json"), "--relation", "exchangeable"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ExkitError", "detail": "entries '12' and '1,2' name the same word"}


@pytest.mark.parametrize("content, code, payload", [
    ({"d": 2, "n": 1, "entries": {"0": "1"}}, 4,
     {"error": "ExkitError", "detail": "word '0' has letters outside 1..2"}),
    ({"d": 2, "n": 1, "entries": {"3": "1"}}, 4,
     {"error": "ExkitError", "detail": "word '3' has letters outside 1..2"}),
    # int reads the Arabic-Indic one as 1; the superscript two is no digit to it.
    ({"d": 2, "n": 1, "entries": {"\u0661": "1/2", "2": "1/2"}}, 0, "holds"),
    ({"d": 2, "n": 1, "entries": {"\u00b2": "1"}}, 4,
     {"error": "ValueError", "detail": "invalid literal for int() with base 10: '\u00b2'"}),
    ({"d": 2, "n": 1, "entries": {"": "1"}}, 4,
     {"error": "BadWordLength", "detail": "word () has length 0, expected 1"}),
    ({"d": 10, "n": 2, "entries": {"10,10": "1"}}, 0, "holds"),
    ({"d": 10, "n": 2, "entries": {"10,11": "1"}}, 4,
     {"error": "ExkitError", "detail": "word '10,11' has letters outside 1..10"}),
    # Values are shared by their text only: true and [1] after a 1 are still
    # rejected, and 0.5 or "2/4" after "1/2" still read as 1/2.
    ({"d": 2, "n": 1, "entries": {"1": 1, "2": True}}, 4,
     {"error": "ExkitError", "detail": "True is not a rational p/q"}),
    ({"d": 2, "n": 1, "entries": {"1": "1", "2": True}}, 4,
     {"error": "ExkitError", "detail": "True is not a rational p/q"}),
    ({"d": 2, "n": 1, "entries": {"1": 1, "2": [1]}}, 4,
     {"error": "ExkitError", "detail": "[1] is not a rational p/q"}),
    ({"d": 2, "n": 1, "entries": {"1": "1/2", "2": 0.5}}, 0, "holds"),
    ({"d": 2, "n": 1, "entries": {"1": "1/2", "2": "2/4"}}, 0, "holds"),
])
def test_certify_reads_words_and_values_as_before(content, code, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(["certify", str(path), "--relation", "exchangeable"]) == code
    captured = capsys.readouterr()
    if code:
        assert json.loads(captured.err) == payload
    else:
        assert json.loads(captured.out)["verdict"] == payload


# Each subcommand takes exactly the flags it reads; any other is a usage error.
SUBCOMMAND_FLAGS = {
    "classes": {"--relation", "--ell", "--product", "--d", "--factors", "--format", "--enum-cap",
                "--output", "--n", "--filter-word"},
    "size": {"--relation", "--ell", "--product", "--d", "--factors", "--format", "--output",
             "--word"},
    "certify": {"--relation", "--ell", "--product", "--format", "--precision-bits", "--enum-cap",
                "--output", "--conditional", "--alpha-mode", "--verify"},
    "alpha": {"--relation", "--ell", "--product", "--d", "--factors", "--format",
              "--precision-bits", "--output", "--n"},
    "mp": {"--format", "--enum-cap", "--output", "--d", "--n", "--type"},
    "beta": {"--format", "--precision-bits", "--output", "--d", "--n"},
    "conditional": {"--relation", "--ell", "--product", "--format", "--precision-bits",
                    "--enum-cap", "--output", "--verify"},
    "counterexample": {"--format", "--output"},
    "game": {"--format", "--precision-bits", "--enum-cap", "--output", "--n", "--mode", "--kernel",
             "--strategy"},
}


def subcommand_flags():
    subparsers = next(
        action for action in cli.build_parser()._actions if action.dest == "command"
    )
    return {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_each_subcommand_takes_only_the_flags_it_reads():
    flags = subcommand_flags()
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 66


MARKOV_DIST = str(GOLDEN / "markov_d2_n4.json")
JOINT = str(GOLDEN / "joint_2x2_n3.json")


@pytest.mark.parametrize("argv, flag", [
    (["classes", "--relation", "markov", "--d", "2", "--n", "3"], ["--precision-bits", "128"]),
    (["size", "--relation", "markov", "--d", "2", "--word", "12"], ["--precision-bits", "128"]),
    (["size", "--relation", "markov", "--d", "2", "--word", "12"], ["--enum-cap", "10"]),
    (["certify", MARKOV_DIST, "--relation", "markov"], ["--d", "2"]),
    (["certify", MARKOV_DIST, "--relation", "markov"], ["--factors", "1,2"]),
    (["conditional", JOINT], ["--d", "4"]),
    (["conditional", JOINT], ["--factors", "2,2"]),
    (["alpha", "--d", "2", "--n", "4"], ["--enum-cap", "10"]),
    (["beta", "--d", "2", "--n", "4"], ["--enum-cap", "10"]),
    (["mp", "--d", "2", "--n", "2"], ["--precision-bits", "128"]),
    (["counterexample"], ["--precision-bits", "128"]),
    (["counterexample"], ["--enum-cap", "10"]),
])
def test_dropped_flags_exit_4(argv, flag, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def assert_rejects_flag(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "ExkitError" and flag in error["detail"]


@pytest.mark.parametrize("argv", [
    ["classes", "--product", "exchangeable,markov", "--factors", "2,2", "--n", "2"],
    ["classes", "--relation", "markov", "--product", "exchangeable,markov", "--factors", "2,2",
     "--n", "2"],
    ["size", "--relation", "exchangeable", "--product", "exchangeable,markov", "--d", "2",
     "--word", "12"],
    ["alpha", "--relation", "lmarkov", "--product", "markov,markov", "--d", "2", "--n", "4"],
    ["certify", str(Path(__file__).parent / "data" / "noninvariant_exchangeable_d2_n4.json"),
     "--product", "exchangeable,markov"],
])
def test_product_without_relation_product_exits_4(argv, capsys):
    assert_rejects_flag(argv, "--product", capsys)


@pytest.mark.parametrize("relation, alphabet", [
    ("markov", ["--d", "2"]),
    ("exchangeable", ["--d", "2"]),
    ("product", ["--factors", "2,2"]),
])
def test_ell_without_relation_lmarkov_exits_4(relation, alphabet, capsys):
    argv = ["classes", "--relation", relation, "--ell", "5", "--n", "3"] + alphabet
    assert_rejects_flag(argv, "--ell 5", capsys)
    argv = ["alpha", "--relation", relation, "--ell", "5", "--n", "3"] + alphabet
    assert_rejects_flag(argv, "--ell 5", capsys)
    assert_rejects_flag(["certify", MARKOV_DIST, "--relation", relation, "--ell", "5"], "--ell 5",
                        capsys)


def test_ell_without_relation_exits_4(capsys):
    assert_rejects_flag(["classes", "--ell", "3", "--d", "2", "--n", "4"], "--ell 3", capsys)


@pytest.mark.parametrize("parts, named", [
    ("markov:3,exchangeable", "only lmarkov takes an order"),
    ("exchangeable,exchangeable:2", "only lmarkov takes an order"),
    ("lmarkov2,exchangeable", "unknown relation kind 'lmarkov2'"),
])
def test_product_parts_go_through_the_relation_parser(parts, named, capsys):
    argv = ["classes", "--relation", "product", "--product", parts, "--factors", "2,2", "--n", "3"]
    assert_rejects_flag(argv, named, capsys)


@pytest.mark.parametrize("relation, parts, expected", [
    ("lmarkov", ["--ell", "3"], {"kind": "lmarkov", "ell": 3}),
    ("lmarkov", [], {"kind": "lmarkov", "ell": 2}),
    ("product", ["--product", "lmarkov:3, markov"],
     {"kind": "product", "parts": [{"kind": "lmarkov", "ell": 3}, {"kind": "markov"}]}),
    ("product", ["--product", "lmarkov,exchangeable"],
     {"kind": "product", "parts": [{"kind": "lmarkov", "ell": 2}, {"kind": "exchangeable"}]}),
    ("product", [], {"kind": "product", "parts": [{"kind": "exchangeable"}] * 2}),
])
def test_relation_flags_name_the_relation(relation, parts, expected, capsys):
    alphabet = ["--factors", "2,2"] if relation == "product" else ["--d", "2"]
    code, out = run(capsys, "alpha", "--relation", relation, *parts, *alphabet, "--n", "5")
    assert code == 0
    assert json.loads(out)["relation"] == expected


@pytest.mark.parametrize("t", ["1,2", "1,1,0", "3,-1"])
def test_mp_type_must_be_d_counts_summing_to_n(t, capsys):
    code = main(["mp", "--d", "2", "--n", "2", "--type", t])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "BadParams"
    assert f"type [{t.replace(',', ', ')}]" in error["detail"]
    assert "d = 2" in error["detail"] and "n = 2" in error["detail"]


def test_mp_type_builds_the_lambda_matrix_once(monkeypatch, capsys):
    # cmd_mp, mp_of_extreme and cone_constants share one (n, d) matrix.
    mp.lambda_matrix.cache_clear()
    calls = []
    original = mp._lambda_entry
    monkeypatch.setattr(mp, "_lambda_entry", lambda *args: calls.append(args) or original(*args))
    code, out = run(capsys, "mp", "--d", "3", "--n", "4", "--type", "2,1,1")
    assert code == 0 and json.loads(out)["cone"]["smaller"] in ("alpha", "beta")
    assert len(calls) == math.comb(4 + 2, 2) ** 2


def test_mp_enum_cap_bounds_the_lambda_matrix(monkeypatch, capsys):
    # C(n+d-1, d-1)^2 entries are checked against the cap before any is built.
    mp.lambda_matrix.cache_clear()
    calls = []
    original = mp._lambda_entry
    monkeypatch.setattr(mp, "_lambda_entry", lambda *args: calls.append(args) or original(*args))
    code = main(["mp", "--d", "3", "--n", "20", "--enum-cap", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not calls
    assert json.loads(captured.err)["error"] == "cap_exceeded"
    # d = 3, n = 5 has 21 types, so 441 entries.
    assert main(["mp", "--d", "3", "--n", "5", "--enum-cap", "440"]) == 2
    assert main(["mp", "--d", "3", "--n", "5", "--enum-cap", "441"]) == 0
    assert len(calls) == 441


@pytest.mark.parametrize("relation, error, detail", [
    ({"kind": "lmarkov"}, "ExkitError", "'ell'"),
    ({"kind": "lmarkov", "ell": "x"}, "ExkitError", "'ell'"),
    ({"ell": 2}, "ExkitError", "'kind'"),
    ({"kind": "product"}, "ExkitError", "'parts'"),
    ({"kind": "lmarkov", "ell": 0}, "BadParams", "order must be >= 1"),
    ({"kind": "product", "parts": [{"kind": "product", "parts": [{"kind": "markov"}]}]},
     "BadParams", "do not nest"),
])
def test_verify_names_the_bad_relation_field(relation, error, detail, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**CERT_MARKOV, "relation": relation}))
    code = main(["certify", str(path), "--verify"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error and detail in err["detail"]


@pytest.mark.parametrize("argv, error, detail", [
    (["classes", "--relation", "product", "--product", "lmarkov:x", "--factors", "2,2", "--n", "2"],
     "ExkitError", "'ell'"),
    (["alpha", "--relation", "product", "--product", "exchangeable,lmarkov:1.5", "--factors", "2,2", "--n", "4"],
     "ExkitError", "'ell'"),
    (["classes", "--relation", "lmarkov", "--ell", "0", "--d", "2", "--n", "3"],
     "BadParams", "order must be >= 1"),
    (["alpha", "--relation", "product", "--product", "markov,lmarkov:0", "--factors", "2,2", "--n", "4"],
     "BadParams", "order must be >= 1"),
])
def test_relation_flags_name_the_bad_field(argv, error, detail, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error and detail in err["detail"]
