"""The command-line surface: spec grammar, commands, exit codes, formats."""

import io
import json

import pytest

from superext.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_spec,
)
from superext.engine import analyze_structural
from superext.groups import (
    MAX_DOCUMENT_CHARS,
    SpecError,
    group_isomorphic,
    make_generalized_quaternion,
    to_cayley_document,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- spec parsing ----------------------------------------------------------------------


def test_parse_product():
    g = parse_spec("C2xC4")
    assert g.order == 8 and g.is_abelian


def test_parse_quaternion():
    assert group_isomorphic(parse_spec("Q8"), make_generalized_quaternion(8))


def test_parse_file(tmp_path):
    doc = to_cayley_document(make_generalized_quaternion(8))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g = parse_spec(f"file:{path}")
    assert group_isomorphic(g, make_generalized_quaternion(8))


def test_parse_errors_carry_position():
    with pytest.raises(SpecError) as exc:
        parse_spec("C2xB3")
    assert exc.value.position == 3
    with pytest.raises(SpecError):
        parse_spec("Q12")
    with pytest.raises(SpecError):
        parse_spec("C2xxC2")


def test_parse_size_cap():
    with pytest.raises(SpecError):
        parse_spec("C16xC16")


def test_product_above_cap_is_input_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "C4xD8xC4")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: product order 128 exceeds cap 64 while building 'C4xD8xC4'\n"


# -- analyze ---------------------------------------------------------------------------


def test_analyze_q8(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Q8")
    assert code == EXIT_OK
    assert "2 x C2^3 x Q8" in out and "C2^3 x Q8" in out


def test_analyze_brute_agrees(capsys):
    code, out, _ = run_cli(capsys, "analyze", "C4", "--brute")
    assert code == EXIT_OK
    assert "verdict: agree" in out


def test_analyze_c4_brute_builds_lambda_once_and_validates_it(capsys, monkeypatch):
    from superext import cli, engine

    built, validated = [], []
    real_lambda, real_validate = engine.lambda_semigroup, cli.validate_associativity

    def counting_lambda(*args, **kwargs):
        built.append(real_lambda(*args, **kwargs))
        return built[-1]

    def recording_validate(sem, **kwargs):
        validated.append(sem)
        return real_validate(sem, **kwargs)

    monkeypatch.setattr(engine, "lambda_semigroup", counting_lambda)
    monkeypatch.setattr(cli, "validate_associativity", recording_validate)
    code, _, _ = run_cli(capsys, "analyze", "C4", "--brute")
    assert code == EXIT_OK
    assert len(built) == 1 and len(validated) == 1 and validated[0] is built[0]


def test_analyze_c3_trivial(capsys):
    code, out, _ = run_cli(capsys, "analyze", "C3", "--brute")
    assert code == EXIT_OK
    assert " 1" in out


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "C8", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == analyze_structural(parse_spec("C8"), "C8").to_json()


def test_analyze_rejects_bad_spec(capsys):
    # a token takes ASCII digits only (not Arabic-Indic ones) and no trailing newline
    for spec in ("Z9", "C\u0663", "Q\u0668", "C2\n"):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert code == EXIT_INPUT and out == "", spec
        assert f"error: bad token {spec!r} at position 0" in err, spec


def test_analyze_rejects_order_above_pipeline_cap(capsys):
    for route in ((), ("--brute",)):
        code, _, err = run_cli(capsys, "analyze", "C2xC2xC8", *route)
        assert code == EXIT_INPUT and "capped at order 16" in err, route


def test_analyze_names_the_token_a_constructor_refuses(capsys):
    for spec, reason in (("D3", "dihedral order"), ("C65", "exceeds cap 64"), ("D66", "exceeds cap 64")):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert code == EXIT_INPUT and out == "", spec
        assert reason in err and f"token {spec!r} at position 0" in err, spec


@pytest.mark.parametrize("option", [("--budget", "0"), ("--seed", "0"), ("--seed", "3")])
def test_brute_options_without_brute_are_input_errors(capsys, option):
    code, out, err = run_cli(capsys, "analyze", "C6", *option)
    assert (code, out, err) == (EXIT_INPUT, "", "error: --budget and --seed apply only with --brute\n")


def test_analyze_brute_over_budget(capsys):
    code, _, err = run_cli(capsys, "analyze", "C6", "--brute", "--budget", "100")
    assert code == EXIT_BUDGET
    assert err == "error: budget exceeded: lambda has more than 100 systems\n"


# -- table ------------------------------------------------------------------------------


def test_table_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "table")
    code2, out2, _ = run_cli(capsys, "table")
    assert code1 == code2 == EXIT_OK and out1 == out2


def test_table_rows(capsys):
    _, out, _ = run_cli(capsys, "table")
    lines = out.splitlines()
    c8 = next(l for l in lines if l.startswith("C8"))
    assert c8.split()[1] == "2"
    a4 = next(l for l in lines if l.startswith("A4"))
    assert "2^2 x C2" in a4
    d8_index = next(i for i, l in enumerate(lines) if l.startswith("D8"))
    assert any("discrepancy" in l for l in lines[d8_index : d8_index + 2])


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--json")
    assert code == EXIT_OK
    docs = json.loads(out)
    assert len(docs) == 9
    by_name = {d["group"]: d for d in docs}
    assert by_name["Q8"]["min_left_ideal"] == "2 x C2^3 x Q8"
    assert by_name["C2xC4"]["min_left_ideal"] == "C2^3 x C4^2"
    # rows small enough for the brute route carry its agree verdict
    assert by_name["C2"]["provenance"] == "both(agree)"
    assert by_name["C8"]["provenance"] == "structural"


# -- mls-count ----------------------------------------------------------------------------


def test_mls_count_values(capsys):
    for spec, count in (("C1", 1), ("C4", 12), ("C5", 81)):
        code, out, _ = run_cli(capsys, "mls-count", spec)
        assert code == EXIT_OK and f"count={count} " in out


def test_mls_count_budget(capsys):
    code, out, _ = run_cli(capsys, "mls-count", "C5", "--budget", "7")
    assert code == EXIT_BUDGET and "partial=true" in out


def test_mls_count_builds_no_signatures(capsys, monkeypatch):
    from superext import setfam

    def refuse(*args, **kwargs):
        raise AssertionError("a signature object was built only to be counted")

    monkeypatch.setattr(setfam, "MlsSignature", refuse)
    code, out, _ = run_cli(capsys, "mls-count", "C6")
    assert code == EXIT_OK and out == "count=2646 partial=false\n"


def test_mls_count_budget_edge(capsys):
    code, out, _ = run_cli(capsys, "mls-count", "C6", "--budget", "2645")
    assert code == EXIT_BUDGET and out == "count>=2645 partial=true\n"
    code, out, _ = run_cli(capsys, "mls-count", "C6", "--budget", "2646")
    assert code == EXIT_OK and out == "count=2646 partial=false\n"


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_non_integer_budget_is_input_error(capsys):
    # int() takes the first four: a sign, an underscore, blanks and non-ASCII digits;
    # --seed takes the same ASCII digits as --budget
    for command in (("mls-count", "C3", "--budget"), ("analyze", "C4", "--brute", "--seed")):
        for text in ("+81", "8_1", " 81", "\u0668\u0661", "abc", "-1"):
            code, out, err = usage_exit(capsys, *command, text)
            assert code == EXIT_INPUT and out == "" and command[-1] in err, (command, text)
            message = f"{command[-1][2:]} must be a non-negative integer, got {text!r}"
            assert message in err, (command, text)


def test_missing_spec_is_input_error(capsys):
    code, out, err = usage_exit(capsys, "analyze")
    assert code == EXIT_INPUT and out == "" and "spec" in err


def test_negative_budget_is_input_error(capsys):
    for command in (("mls-count", "C3"), ("analyze", "C3", "--brute")):
        code, out, err = usage_exit(capsys, *command, "--budget", "-5")
        assert code == EXIT_INPUT and out == "" and "non-negative" in err, command


def test_zero_budget_stays_valid(capsys):
    code, out, _ = run_cli(capsys, "mls-count", "C3", "--budget", "0")
    assert code == EXIT_BUDGET and out == "count>=0 partial=true\n"


def test_help_exits_zero(capsys):
    code, out, _ = usage_exit(capsys, "--help")
    assert code == EXIT_OK and "mls-count" in out


def test_mls_count_stream(tmp_path, capsys, expected_stream):
    for spec in ("C1", "C2", "C3", "C4", "C5", "C6"):
        out_path = tmp_path / f"{spec}.mls"
        code, _, _ = run_cli(capsys, "mls-count", spec, "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == expected_stream(parse_spec(spec)).encode(), spec


def test_mls_count_over_budget_writes_no_stream(tmp_path, capsys):
    out_path = tmp_path / "c5.mls"
    code, out, _ = run_cli(capsys, "mls-count", "C5", "--budget", "80", "--out", str(out_path))
    assert code == EXIT_BUDGET and out == "count>=80 partial=true\n"
    assert not out_path.exists()


def test_mls_count_of_order_seven_builds_no_systems(capsys, monkeypatch):
    from superext import setfam

    def refuse(*args, **kwargs):
        raise AssertionError("the systems were enumerated only to be counted")

    monkeypatch.setattr(setfam, "_enumerate_bits", refuse)
    code, out, _ = run_cli(capsys, "mls-count", "C7", "--budget", "2000000")
    assert code == EXIT_OK and out == "count=1422564 partial=false\n"


def test_mls_count_order_seven_budget_edge(capsys):
    code, out, _ = run_cli(capsys, "mls-count", "C7", "--budget", "1422563")
    assert code == EXIT_BUDGET and out == "count>=1422563 partial=true\n"
    code, out, _ = run_cli(capsys, "mls-count", "C7", "--budget", "1422564")
    assert code == EXIT_OK and out == "count=1422564 partial=false\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "file:/nonexistent/path.json")
    assert code == EXIT_INPUT


def test_directory_as_input_file_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", f"file:{tmp_path}")
    assert code == EXIT_INPUT and out == "" and err.startswith("error: ")


def test_directory_as_output_file_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "mls-count", "C3", "--out", str(tmp_path))
    assert code == EXIT_INPUT and out == "count=4 partial=false\n" and err.startswith("error: ")


def test_deeply_nested_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "analyze", f"file:{path}")
    assert code == EXIT_INPUT and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "document",
    [
        {"order": 2, "table": 5},
        {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["a"]},
        {"order": 2, "table": [[False, True], [True, False]]},  # JSON booleans, not entries
        {"order": 2, "table": [[0, 1], [1, 0]], "names": [[1], {}]},  # names must be strings
    ],
)
def test_malformed_document_is_input_error(tmp_path, capsys, document):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "analyze", f"file:{path}")
    assert code == EXIT_INPUT and out == "" and err.startswith("error: ")


def test_oversized_document_is_input_error(tmp_path, capsys):
    # the loader reads at most MAX_DOCUMENT_CHARS + 1 characters, so file:/dev/zero cannot exhaust memory
    doc = json.dumps({"order": 1, "table": [[0]]})
    path = tmp_path / "g.json"
    path.write_text(doc + " " * (MAX_DOCUMENT_CHARS - len(doc)))
    code, _, _ = run_cli(capsys, "analyze", f"file:{path}")
    assert code == EXIT_OK
    path.write_text(doc + " " * (MAX_DOCUMENT_CHARS + 1 - len(doc)))
    code, out, err = run_cli(capsys, "analyze", f"file:{path}")
    assert code == EXIT_INPUT and out == "" and err.startswith("error: ") and "exceeds" in err


def test_disagreement_exit_code(capsys, monkeypatch):
    # force a verdict to pin the exit-code contract for disagreements
    from superext import cli, engine

    real_cross_check = engine.cross_check

    def fake_cross_check(group, name, budget=None):
        check = real_cross_check(parse_spec("C4"), "C4", budget=budget)
        object.__setattr__(check, "verdict", "disagree")
        return check

    monkeypatch.setattr(cli.engine, "cross_check", fake_cross_check)
    code, out, _ = run_cli(capsys, "analyze", "C4", "--brute")
    assert code == EXIT_DISAGREE and "verdict: disagree" in out


def test_invariant_failure_exit_code(capsys, monkeypatch):
    # an internal check failing is reported like a disagreement, with nothing on stdout
    from superext import engine
    from superext.groups import InvariantError

    def broken(group, name="?"):
        raise InvariantError("forced failure")

    monkeypatch.setattr(engine, "analyze_structural", broken)
    code, out, err = run_cli(capsys, "analyze", "C4")
    assert code == EXIT_DISAGREE and out == ""
    assert err == "invariant failure: forced failure\n"


def test_brute_route_refuses_order_seven_before_enumerating(capsys, monkeypatch):
    # lambda(C7) would hold 1,422,564 elements, each with a Phi table: the budget
    # must not let the brute route start on it
    from superext import engine

    def enumerate_mls(*args, **kwargs):
        raise AssertionError("lambda_semigroup enumerated an order-7 group")

    monkeypatch.setattr(engine, "enumerate_mls", enumerate_mls)
    for budget in ("100", "2000000"):
        code, out, err = run_cli(capsys, "analyze", "C7", "--brute", "--budget", budget)
        assert code == EXIT_INPUT and "order 6" in err and out == ""


def test_unsupported_quaternion_names_its_position_once(capsys):
    code, out, err = run_cli(capsys, "analyze", "C2xQ64")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: Q64 not supported at position 3; use Q8, Q16 or Q32\n"
    with pytest.raises(SpecError) as exc:
        parse_spec("Q64")
    assert str(exc.value) == "Q64 not supported at position 0; use Q8, Q16 or Q32"
    assert exc.value.position == 0
