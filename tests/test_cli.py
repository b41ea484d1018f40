import json

import pytest

from toricdim import VarietyDescriptor, _kernels_py, kernels, secantdim
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


def test_parse_descriptor_error_positions():
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("veronese:x=4,n=2")
    assert exc.value.pos == 9
    assert "expected 'd='" in str(exc.value)

    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("rnc:abc")
    assert exc.value.pos == 4

    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("rnc:8junk")
    assert exc.value.pos == 5
    assert "trailing" in str(exc.value)

    with pytest.raises(DescriptorError):
        parse_descriptor("veronese")
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("orbit:d=1")
    assert "unknown kind" in str(exc.value)
    with pytest.raises(DescriptorError):
        parse_descriptor("sv:d=1,2;n=1")  # length mismatch
    with pytest.raises(DescriptorError):
        parse_descriptor("veronese:d=0,n=2")
    with pytest.raises(DescriptorError):
        parse_descriptor("matrix:")


# --- exit codes -------------------------------------------------------------


def test_dim_secant_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "dim-secant", "rnc:8", "--r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["computed_dim"] == 7
    assert doc["status"] == "nondefective"

    code, out, _ = run_cli(capsys, "dim-secant", "veronese:d=4,n=2", "--r", "5")
    assert code == 1  # defective case is reported but not certified
    assert json.loads(out)["computed_dim"] == 13


@pytest.mark.parametrize("backend", ["python", "c"])
def test_dim_secant_at_a_64_bit_prime(backend, request, monkeypatch, capsys):
    # A prime above 2^63, where `a + p - x` no longer fits in 64 bits.
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    for name in ("rank_mod", "kr_rank_mod", "eta_mod"):
        monkeypatch.setattr(kernels, name, getattr(impl, name))
    # Secant reports are memoised per config, not per backend.
    secantdim._secant_dimension_cached.cache_clear()
    code, out, _ = run_cli(capsys, "dim-secant", "veronese:d=4,n=2", "--r", "5",
                           "--prime", "17293822569102704683")
    assert code == 1  # Alexander-Hirschowitz defective: 13, not 14
    assert json.loads(out)["computed_dim"] == 13


@pytest.mark.parametrize("backend", ["python", "c"])
def test_dim_secant_rejects_exponents_beyond_64_bits(
    backend, request, monkeypatch, capsys, tmp_path
):
    # The compiled kernels read exponents as int64; both backends must refuse
    # such a matrix with a message instead of answering or raising.
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    for name in ("rank_mod", "kr_rank_mod", "eta_mod"):
        monkeypatch.setattr(kernels, name, getattr(impl, name))
    path = tmp_path / "big.csv"
    path.write_text(f"1,1,1\n0,1,{2**70}\n")
    code, out, err = run_cli(capsys, "dim-secant", f"matrix:{path}", "--r", "1")
    assert code == 2 and out == ""
    assert "outside [-2^63, 2^63)" in err


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

    # only the probing commands take --prime, --trials and --retries; the
    # demo has its own --seed, the support check none
    for argv in (
        ["binomial-check", "F", "--prime", "4"],
        ["binomial-check", "F", "--trials", "0"],
        ["binomial-check", "F", "--seed", "1"],
        ["binomial-check", "F", "--retries", "-3"],
        ["degeneration-demo", "--trials", "0"],
        ["degeneration-demo", "--prime", "4"],
        ["degeneration-demo", "--retries", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


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
