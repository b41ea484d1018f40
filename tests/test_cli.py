import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_copy, use_kernels

from toricdim import VarietyDescriptor, _kernels_py, cli
from toricdim.cli import (
    DescriptorError,
    SCHEMA_VERSION,
    main,
    parse_descriptor,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- descriptor grammar ---------------------------------------------------


def test_parse_descriptor_kinds(tmp_path):
    assert parse_descriptor("veronese:d=4,n=2") == VarietyDescriptor.veronese(4, 2)
    assert parse_descriptor("segre:n=1,1,1") == VarietyDescriptor.segre((1, 1, 1))
    assert parse_descriptor("sv:d=2,1;n=1,3") == VarietyDescriptor.segre_veronese(
        (2, 1), (1, 3)
    )
    assert parse_descriptor("rnc:8") == VarietyDescriptor.rnc(8)

    path = tmp_path / "mat.csv"
    path.write_text("1,1,1\n0,1,2\n")
    desc = parse_descriptor(f"matrix:{path}")
    assert desc.kind == "custom"
    assert desc.matrix().entries == ((1, 1, 1), (0, 1, 2))


# (descriptor, position, message) for each class of malformed descriptor
MALFORMED = [
    ("veronese", 8, "expected ':' after the kind"),
    ("", 0, "expected ':' after the kind"),
    ("orbit:d=1", 0, "unknown kind 'orbit'"),
    (":d=1", 0, "unknown kind ''"),
    ("veronese:x=4,n=2", 9, "expected 'd='"),
    ("veronese:d=4;n=2", 12, "expected ',n='"),
    ("veronese:d=1,2,n=2", 12, "expected ',n='"),
    ("segre:d=1", 6, "expected 'n='"),
    ("sv:n=1;n=1", 3, "expected 'd='"),
    ("sv:d=1,n=1", 6, "expected ';n='"),
    ("sv:d=1;d=1", 6, "expected ';n='"),
    ("rnc:abc", 4, "expected an integer"),
    ("rnc:", 4, "expected an integer"),
    ("veronese:d=,n=2", 11, "expected an integer"),
    ("veronese:d=2,n=", 15, "expected an integer"),
    ("segre:n=", 8, "expected an integer"),
    ("segre:n=1,", 10, "expected an integer"),
    ("sv:d=1;n=1,,2", 11, "expected an integer"),
    ("rnc:8junk", 5, "unexpected trailing text"),
    ("rnc:1,2", 5, "unexpected trailing text"),
    ("rnc:0x", 5, "unexpected trailing text"),
    ("veronese:d=4,n=2x", 16, "unexpected trailing text"),
    ("segre:n=1,1;", 11, "unexpected trailing text"),
    ("sv:d=1;n=1 ", 10, "unexpected trailing text"),
    ("veronese:d=0,n=2", 16, "d and n must be >= 1"),
    ("veronese:d=2,n=-1", 17, "d and n must be >= 1"),
    ("segre:n=1,0", 11, "factor dimensions must be >= 1"),
    ("segre:n=-2", 10, "factor dimensions must be >= 1"),
    ("sv:d=1,0;n=1,1", 14, "all entries must be >= 1"),
    ("sv:d=1;n=0", 10, "all entries must be >= 1"),
    ("rnc:0", 5, "degree must be >= 1"),
    ("rnc:-3", 6, "degree must be >= 1"),
    ("sv:d=1,2;n=1", 12, "d and n must have equal lengths"),
    ("sv:d=0,2;n=1", 12, "d and n must have equal lengths"),
    ("matrix:", 7, "expected a file path"),
]


@pytest.mark.parametrize("text, pos, message", MALFORMED, ids=[t for t, *_ in MALFORMED])
def test_descriptor_error_position_and_message(text, pos, message):
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor(text)
    assert exc.value.pos == pos
    assert str(exc.value) == f"descriptor {text!r}: {message} (at position {pos})"


_SIZE = st.integers(min_value=1, max_value=99)


@settings(deadline=None)
@given(
    st.one_of(
        st.builds(VarietyDescriptor.veronese, _SIZE, _SIZE),
        st.builds(VarietyDescriptor.segre, st.lists(_SIZE, min_size=1, max_size=5)),
        st.integers(min_value=1, max_value=5).flatmap(
            lambda k: st.builds(
                VarietyDescriptor.segre_veronese,
                st.lists(_SIZE, min_size=k, max_size=k),
                st.lists(_SIZE, min_size=k, max_size=k),
            )
        ),
        st.builds(VarietyDescriptor.rnc, _SIZE),
    )
)
def test_descriptor_round_trips_through_its_label(desc):
    assert parse_descriptor(str(desc)) == desc


# --- exit codes -------------------------------------------------------------


def test_dim_secant_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "dim-secant", "rnc:8", "--r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["computed_dim"] == 7
    assert doc["status"] == "nondefective"

    copy = matrix_copy("veronese:d=4,n=2", tmp_path)
    code, out, _ = run_cli(capsys, "dim-secant", copy, "--r", "5")
    assert code == 1  # defective case is reported but not certified
    assert json.loads(out)["computed_dim"] == 13
    # Alexander-Hirschowitz certifies the same defect on v_4(P^2).
    code, out, _ = run_cli(capsys, "dim-secant", "veronese:d=4,n=2", "--r", "5")
    assert code == 0
    assert (json.loads(out)["computed_dim"], json.loads(out)["status"]) == (13, "defective")


def test_a_quadratic_veronese_defect_is_certified(capsys):
    # sigma_2 of v_2(P^4), the symmetric 5 x 5 matrices of rank <= 2, has
    # dimension 8, one below its parameter count: the first draw meets it.
    code, out, _ = run_cli(capsys, "dim-secant", "veronese:d=2,n=4", "--r", "2")
    doc = json.loads(out)
    assert (code, doc["computed_dim"], doc["expected_dim"]) == (0, 8, 9)
    assert (doc["status"], doc["error_bound"], doc["attempts"]) == ("defective", 0.0, 1)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_dim_secant_at_a_64_bit_prime(backend, request, monkeypatch, capsys, tmp_path):
    # A prime above 2^63, where `a + p - x` no longer fits in 64 bits.
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    use_kernels(impl, monkeypatch)
    code, out, _ = run_cli(capsys, "dim-secant", matrix_copy("veronese:d=4,n=2", tmp_path),
                           "--r", "5", "--prime", "17293822569102704683")
    assert code == 1  # Alexander-Hirschowitz defective: 13, not 14
    assert json.loads(out)["computed_dim"] == 13
    # v_4(P^2) itself: the first draw meets the theorem bound, certified.
    code, out, _ = run_cli(capsys, "dim-secant", "veronese:d=4,n=2", "--r", "5",
                           "--prime", "17293822569102704683")
    assert (code, json.loads(out)["computed_dim"], json.loads(out)["attempts"]) == (0, 13, 1)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_dim_secant_rejects_exponents_beyond_64_bits(
    backend, request, monkeypatch, capsys, tmp_path
):
    # The compiled kernels read exponents as int64; both backends must refuse
    # such a matrix with a message instead of answering or raising.
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    use_kernels(impl, monkeypatch)
    path = tmp_path / "big.csv"
    path.write_text(f"1,1,1\n0,1,{2**70}\n")
    code, out, err = run_cli(capsys, "dim-secant", f"matrix:{path}", "--r", "1")
    assert code == 2 and out == ""
    assert "outside [-2^63, 2^63)" in err


def test_dim_secant_without_an_error_budget(tmp_path, capsys):
    # v_2(P^2) with every exponent times 10^4: sigma_2 is still defective,
    # and its minors have degree up to 6 * 2 * 20000 = 240000 >= p - 1.
    path = tmp_path / "v2p2.csv"
    path.write_text("20000,10000,10000,0,0,0\n0,10000,0,20000,10000,0\n"
                    "0,0,10000,0,10000,20000\n")
    argv = ("dim-secant", f"matrix:{path}", "--r", "2", "--prime", "65537")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "240000" in err and "65537" in err


def test_dim_hadamard_json_values(capsys):
    code, out, _ = run_cli(
        capsys, "dim-hadamard", "veronese:d=4,n=2", "--r", "2,2,2,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["computed_dim"] == 14
    assert doc["r"] == [2, 2, 2, 2]
    assert doc["fills_ambient"] is True


def test_generic_hrank_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "generic-hrank", "segre:n=1,1,1,1", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["found_m"] == 3
    assert doc["trace"] == [[1, 9], [2, 14], [3, 15]]

    # r = 1 never fills a non-dense toric variety; still a certified answer
    code, out, _ = run_cli(capsys, "generic-hrank", "rnc:8", "--r", "1")
    assert code == 0
    assert json.loads(out)["status"] == "infinite (toric idempotent)"


def test_verify_table_csv_default(capsys):
    code, out, _ = run_cli(capsys, "verify-table", "binary")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "table,descriptor,r,R,ambient_dim,expected_dim,computed_dim,status,pass"
    )
    assert len(lines) == 12
    assert all(line.endswith(",true") for line in lines[1:])
    assert "sv:d=1,1,1,1;n=1,1,1,1" in lines[-1]


def test_verify_table_json_and_text(capsys):
    code, out, _ = run_cli(capsys, "verify-table", "binary", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["n_rows"] == 11 and doc["n_pass"] == 11
    assert doc["extended"] is False

    code, out, _ = run_cli(capsys, "verify-table", "binary", "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "11/11 rows pass"


def test_degeneration_demo_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "degeneration-demo")
    assert code == 0
    assert "first row of M(nu) == all-ones, exactly" in out
    assert "FAIL" not in out
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict == {
        "all_pass": True,
        "dim_lower_bound": 7,
        "schema": SCHEMA_VERSION,
    }


def test_degeneration_demo_seeds_are_taken_mod_2_64(capsys):
    reports = {}
    for seed in (-5, 5, 5 + 2**64):
        code, reports[seed], _ = run_cli(
            capsys, "degeneration-demo", "--seed", str(seed), "--format", "json"
        )
        assert code == 0
    assert reports[-5] != reports[5] == reports[5 + 2**64]


def test_degeneration_demo_json(capsys):
    code, out, _ = run_cli(
        capsys, "degeneration-demo", "--r", "2,2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["r"] == [2, 2]
    assert doc["nus"] == ["1/10", "1/100", "1/1000"]


@pytest.mark.parametrize(
    "descriptor, r, limit",
    [
        ("rnc:30", "20,20", "R*rows <= 64"),
        ("rnc:8", "40,40", "R*rows <= 64"),
        ("rnc:1", "2,2", "R <= 2"),
        ("rnc:30", "16,17", "R <= 31"),
    ],
)
def test_degeneration_demo_names_the_limit_it_exceeds(capsys, descriptor, r, limit):
    code, out, err = run_cli(
        capsys, "degeneration-demo", "--descriptor", descriptor, "--r", r
    )
    assert code == 2
    assert out == ""
    assert f"(limit: {limit}" in err or f"(limits: {limit}" in err
    assert "could not sample" not in err


def test_binomial_check_exit_codes(tmp_path, capsys):
    two = tmp_path / "two.txt"
    two.write_text("2 0\n0 2\n")
    code, out, _ = run_cli(capsys, "binomial-check", str(two))
    assert code == 0
    assert out == "binomial-segment (2 support vectors)\n"

    three = tmp_path / "three.txt"
    three.write_text("# a conic\n2,0\n1,1\n0,2\n")
    code, out, _ = run_cli(capsys, "binomial-check", str(three))
    assert code == 1
    assert out.startswith("segment-with-interior-points")

    code, out, _ = run_cli(capsys, "binomial-check", str(three), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["binomial"] is False and doc["n_vectors"] == 3


def test_binomial_check_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 x\n")
    code, _, err = run_cli(capsys, "binomial-check", str(bad))
    assert code == 2
    assert "non-integer entry" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, _, err = run_cli(capsys, "binomial-check", str(empty))
    assert code == 2
    assert "empty support" in err


def test_usage_errors_return_2(capsys):
    code, _, err = run_cli(capsys, "dim-secant", "orbit:d=1", "--r", "2")
    assert code == 2
    assert "error:" in err and "unknown kind" in err

    code, _, err = run_cli(capsys, "dim-secant", "rnc:8", "--r", "0")
    assert code == 2

    # r is checked before the matrix is built, which here is over its cap
    code, out, err = run_cli(capsys, "generic-hrank", "veronese:d=2,n=4000", "--r", "0")
    assert code == 2 and out == ""
    assert err == "error: r must be >= 1\n"

    # 2^64 + 13 is prime but too wide for the compiled kernels
    code, out, err = run_cli(capsys, "dim-secant", "rnc:8", "--r", "2",
                             "--prime", "18446744073709551629")
    assert code == 2 and out == ""
    assert "error:" in err and "2^64" in err

    with pytest.raises(SystemExit) as exc:
        main(["dim-secant"])  # missing required --r
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "nonsense"])
    assert exc.value.code == 2

    # one scale value leaves the error-ratio check with nothing to test
    code, out, err = run_cli(capsys, "degeneration-demo", "--nus", "1/10")
    assert code == 2 and out == ""
    assert "strictly decreasing, positive" in err

    # one point leaves the error-ratio check with nothing to test
    for r in ("1", "1,1"):
        code, out, err = run_cli(capsys, "degeneration-demo", "--r", r)
        assert code == 2 and out == ""
        assert "(limit: R >= 2)" in err

    # only the experiments table has an extended form
    for table in ("veronese", "binary"):
        code, out, err = run_cli(capsys, "verify-table", table, "--extended")
        assert code == 2 and out == ""
        assert "--extended applies only to the experiments table" in err

    # the demo and the support check have a text and a JSON report, no CSV
    for argv in (["degeneration-demo"], ["binomial-check", "-"]):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2 and out == ""
        assert f"error: {argv[0]} writes text or json, not csv" in err

    # only the probing commands take --prime and --seed; the demo has its
    # own --seed, the support check none; no command takes --trials or
    # --retries, whatever their value
    for argv in (
        ["binomial-check", "F", "--prime", "4"],
        ["binomial-check", "F", "--trials", "0"],
        ["binomial-check", "F", "--seed", "1"],
        ["binomial-check", "F", "--retries", "-3"],
        ["degeneration-demo", "--trials", "0"],
        ["degeneration-demo", "--prime", "4"],
        ["degeneration-demo", "--retries", "1"],
        ["dim-secant", "rnc:6", "--r", "2", "--retries", "2"],
        ["dim-hadamard", "veronese:d=4,n=2", "--r", "2,2", "--retries", "2"],
        ["generic-hrank", "rnc:8", "--r", "1", "--retries", "2"],
        ["verify-table", "binary", "--retries", "2"],
        ["dim-secant", "rnc:3", "--r", "2", "--trials", "10000000000000000000"],
        ["dim-hadamard", "veronese:d=4,n=2", "--r", "2,2", "--trials", "2"],
        ["generic-hrank", "rnc:8", "--r", "1", "--trials", "1"],
        ["verify-table", "binary", "--trials", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_main_builds_the_parser_once_and_keeps_no_state(capsys):
    # One parser serves every call in the process: a usage error, a failed
    # --format check and an explicit --format leave the next call's report,
    # stderr and exit code those of a call on its own.
    cli._build_parser.cache_clear()
    calls = [
        ("dim-secant veronese:d=4,n=2 --r 5 --format text", 0, "dim-secant-v4-2-r5.txt"),
        ("dim-secant veronese:d=4,n=2", None, None),  # missing required --r
        ("dim-secant veronese:d=4,n=2 --r 5", 0, "dim-secant-v4-2-r5.json"),
        ("degeneration-demo --format csv", 2, "degeneration-demo-csv.txt"),
        ("degeneration-demo", 0, "degeneration-demo.txt"),
        ("verify-table binary --format json", 0, "verify-table-binary.json"),
        ("verify-table binary", 0, "verify-table-binary.csv"),
    ]
    for argv, code, name in calls:
        if name is None:
            with pytest.raises(SystemExit) as exc:
                main(argv.split())
            assert exc.value.code == 2
            assert "the following arguments are required: --r" in capsys.readouterr().err
            continue
        assert run_cli(capsys, *argv.split()) == (
            code,
            (GOLDEN / name).read_text(),
            "error: degeneration-demo writes text or json, not csv\n" if code == 2 else "",
        ), argv
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_out_of_memory_exits_2_with_a_message(monkeypatch, capsys):
    # a builder over its entry cap exits 2 before it builds
    code, out, err = run_cli(capsys, "dim-secant", "veronese:d=2,n=4000", "--r", "2")
    assert code == 2 and out == ""
    assert "exceeds cap" in err
    # an engine whose allocation fails, as hadamard_ranks_mod's buffers do
    # for rnc:100000 --r 50000 under a 3 GB address-space limit, exits 2 too
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "secant_dimension", exhausted)
    code, out, err = run_cli(capsys, "dim-secant", "rnc:8", "--r", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory")


def test_json_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out_path in (a, b):
        code = main(
            ["dim-hadamard", "veronese:d=3,n=2", "--r", "2,2", "--out", str(out_path)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert list(doc.keys()) == sorted(doc.keys())


def test_text_format_report(capsys):
    code, out, _ = run_cli(
        capsys, "dim-secant", "rnc:6", "--r", "2", "--format", "text"
    )
    assert code == 0
    assert "computed_dim" in out
    lines = dict(
        (line.split(None, 1)[0], line.split(None, 1)[1].strip())
        for line in out.splitlines()
    )
    assert lines["computed_dim"] == "3"
    assert lines["descriptor"] == "rnc:6"


def test_matrix_descriptor_through_cli(tmp_path, capsys):
    path = tmp_path / "rnc3.csv"
    path.write_text("3,2,1,0\n0,1,2,3\n")
    code, out, _ = run_cli(capsys, "dim-secant", f"matrix:{path}", "--r", "2")
    assert code == 0
    assert json.loads(out)["computed_dim"] == 3

    code, _, err = run_cli(capsys, "dim-secant", "matrix:/nonexistent.csv", "--r", "2")
    assert code == 2


def test_zero_column_sums_are_checked_against_the_row_span(tmp_path, capsys):
    # The columns t1/t2, t2/t1, 1 all sum to 0, yet they map onto the conic
    # xy = z^2, of dimension 1, and the all-ones vector is not in their span.
    conic = tmp_path / "conic.csv"
    conic.write_text("1,-1,0\n-1,1,0\n")
    code, out, err = run_cli(capsys, "dim-secant", f"matrix:{conic}", "--r", "1")
    assert code == 2 and out == ""
    assert "not projectively homogeneous" in err
    # Zero sums with the all-ones vector in the span, as half of rows 1 + 2.
    chart = tmp_path / "chart.csv"
    chart.write_text("2,0,1\n0,2,1\n-2,-2,-2\n")
    code, out, _ = run_cli(capsys, "dim-secant", f"matrix:{chart}", "--r", "1")
    assert json.loads(out)["variety_dim"] == 1
