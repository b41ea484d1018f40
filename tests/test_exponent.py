import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_normal_curve

from toricdim import (
    ExponentMatrix,
    HadamardSpec,
    HomogeneityError,
    MatrixSizeError,
    VarietyDescriptor,
    normalize,
    read_matrix_csv,
    segre_veronese,
)
from toricdim import exponent, probing
from toricdim._rational import rational_rank
from toricdim.exponent import homogeneous_exponents

# Hand-checked builder outputs; column order is descending lex of the
# concatenated exponent vectors.

SEGRE_P1xP2 = (
    (1, 1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
)

RNC8 = (
    (8, 7, 6, 5, 4, 3, 2, 1, 0),
    (0, 1, 2, 3, 4, 5, 6, 7, 8),
)


def test_segre_p1_x_p2_matrix():
    mat = segre_veronese((1, 1), (1, 2))
    assert mat.entries == SEGRE_P1xP2
    assert mat.n_rows == 5 and mat.n_cols == 6
    assert mat.rank() == 4  # dim(P^1 x P^2) + 1


def test_rational_normal_curve_degree_8():
    mat = rational_normal_curve(8)
    assert mat.entries == RNC8
    assert mat.ambient_dim == 8
    assert mat.rank() == 2


def test_homogeneous_exponents_descending_lex():
    vecs = list(homogeneous_exponents(2, 3))
    assert vecs == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert all(sum(v) == 2 for v in vecs)


@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
)
@settings(max_examples=40, deadline=None)
def test_segre_veronese_column_count(factors):
    degrees = tuple(d for d, _ in factors)
    dims = tuple(n for _, n in factors)
    mat = segre_veronese(degrees, dims)
    assert mat.n_cols == math.prod(
        math.comb(n + d, d) for d, n in zip(degrees, dims)
    )
    assert mat.n_rows == sum(n + 1 for n in dims)
    assert mat.is_homogeneous()
    assert mat.rank() == sum(dims) + 1
    mat.validate_variety()


def test_builders_reject_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        segre_veronese((0,), (1,))
    with pytest.raises(ValueError):
        segre_veronese((1, 2), (1,))
    # 10 rows x 220 columns
    monkeypatch.setattr(exponent, "ENTRY_CAP", 2199)
    with pytest.raises(MatrixSizeError):
        segre_veronese((3,), (9,))
    monkeypatch.setattr(exponent, "ENTRY_CAP", 2200)
    assert segre_veronese((3,), (9,)).n_cols == 220


def _recursive_exponents(degree, length):
    # The recursive builder the iterative one replaced: one generator per
    # variable, so a length near the recursion limit overflows it.
    if length == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _recursive_exponents(degree - first, length - 1):
            yield (first,) + rest


def test_homogeneous_exponents_match_the_recursive_builder():
    for degree in range(8):
        for length in range(1, 9):
            assert list(homogeneous_exponents(degree, length)) == list(
                _recursive_exponents(degree, length)
            ), (degree, length)
    with pytest.raises(ValueError):
        next(homogeneous_exponents(-1, 2))
    with pytest.raises(ValueError):
        next(homogeneous_exponents(2, 0))


def test_builder_needs_no_recursion_for_a_long_factor():
    # P^1 x P^999: 1002 rows and 2000 columns, past the recursion limit of
    # one generator per variable
    mat = VarietyDescriptor.segre((1, 999)).matrix()
    assert (mat.n_rows, mat.n_cols) == (1002, 2000)
    assert mat.column(0) == (1, 0, 1) + (0,) * 999
    assert mat.column(1999) == (0, 1) + (0,) * 999 + (1,)
    rnc = rational_normal_curve(100_000)
    assert rnc.n_cols == 100_001 and rnc.column(1) == (99_999, 1)


def test_over_cap_builder_refuses_before_building(monkeypatch):
    # v_2(P^4000) has 4001 x 8006001 entries; it must fail on the count,
    # before a single exponent vector is made.
    def no_build(degree, length):
        raise AssertionError("built an exponent vector")

    monkeypatch.setattr(exponent, "homogeneous_exponents", no_build)
    with pytest.raises(MatrixSizeError, match="32032010001 matrix entries"):
        segre_veronese((2,), (4000,))


def test_validate_variety_rejects_degenerate():
    with pytest.raises(ValueError, match="two columns"):
        ExponentMatrix(((1,), (0,))).validate_variety()
    with pytest.raises(ValueError, match="duplicate"):
        ExponentMatrix(((1, 1), (2, 2))).validate_variety()
    with pytest.raises(HomogeneityError):
        ExponentMatrix(((1, 0), (2, 0))).validate_variety()


def test_entries_must_be_integers():
    with pytest.raises(TypeError):
        ExponentMatrix(((1.5, 2),))
    with pytest.raises(ValueError, match="ragged"):
        ExponentMatrix(((1, 2), (3,)))
    # the compiled kernels read exponents as signed 64-bit integers
    ExponentMatrix(((1, 1), (-(2**63), 2**63 - 1)))
    for big in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(ValueError, match="outside"):
            ExponentMatrix(((1, 1), (0, big)))


class _Int(int):
    pass


@pytest.mark.parametrize("rows, error, message", [
    (((1, 2), (2**63, True)), ValueError, "matrix entry 9223372036854775808 is outside"),
    (((1, 2), (True, 2**63)), TypeError, "got True"),
    (((1, 2.0, 2**70),), TypeError, "got 2.0"),
    (((1, 2), (3, 2**70, 4)), ValueError, "matrix entry 1180591620717411303424 is outside"),
    (((1, 2), (False,)), TypeError, "got False"),
    (((1, 2), (3,), (1.5, 2)), ValueError, "ragged"),
    (((_Int(1), 2), (3, _Int(-(2**63) - 1))), ValueError, "outside"),
])
def test_the_first_bad_entry_raises_in_row_order(rows, error, message):
    with pytest.raises(error, match=message):
        ExponentMatrix(rows)


def test_int_subclass_entries_are_kept():
    rows = ((_Int(1), 1), (0, _Int(2**63 - 1)))
    assert ExponentMatrix(rows).entries == rows
    assert type(ExponentMatrix(rows).entries[0][0]) is _Int


def test_normalize_rnc():
    abar = normalize(rational_normal_curve(8))
    assert abar.entries == ((1,) * 9, tuple(range(9)))


def test_normalize_idempotent_and_span_preserving():
    for mat in (
        rational_normal_curve(5),
        segre_veronese((1, 1), (1, 2)),
        segre_veronese((2,), (2,)),
    ):
        abar = normalize(mat)
        assert abar.entries[0] == (1,) * mat.n_cols
        assert abar.column(0) == (1,) + (0,) * (abar.n_rows - 1)
        assert abar.rank() == mat.rank()
        assert normalize(abar).entries == abar.entries
        # same rational row span: stacking adds no rank
        assert rational_rank(mat.entries + abar.entries) == mat.rank()


def test_normalize_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        normalize(ExponentMatrix(((1, 0), (2, 0))))
    # equal column sums of 0 do not put the all-ones vector in the span
    with pytest.raises(HomogeneityError, match="not projectively homogeneous"):
        normalize(ExponentMatrix(((1, -1, 0), (-1, 1, 0))))


def test_column_degrees_with_negative_exponents():
    mat = ExponentMatrix(((1, 1, 1, 1), (0, -1, 2, -3), (0, 2, -1, 1)))
    # D+: the positive parts of the columns sum to 1, 3, 3, 2.  M: the most
    # negative entries of the rows are 0, -3, -1.
    assert mat.column_degrees == (3, 4)
    # Two points: g = min(2 * 3, 4) = 4, deg = 4 * (2 * 3 + 2 * 4).
    assert probing.minor_degree(mat, 1, 2) == 56
    # Two factors of two points each, three points in all.
    assert probing.minor_degree(mat, 2, 3) == 4 * (3 * 3 + 3 * 4)


def test_csv_round_trip(tmp_path):
    mat = segre_veronese((1, 1), (1, 2))
    path = tmp_path / "mat.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(mat.entries)
    again = read_matrix_csv(path)
    assert again.entries == mat.entries


def test_csv_rejects_junk(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_matrix_csv(path)
    (tmp_path / "empty.csv").write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(tmp_path / "empty.csv")


def test_descriptor_labels_and_dims():
    v = VarietyDescriptor.veronese(4, 2)
    assert str(v) == "veronese:d=4,n=2"
    assert v.matrix().ambient_dim == 14 and v.matrix().rank() - 1 == 2
    s = VarietyDescriptor.segre((1, 1, 1, 1))
    assert str(s) == "segre:n=1,1,1,1"
    assert s.matrix().ambient_dim == 15 and s.matrix().rank() - 1 == 4
    sv = VarietyDescriptor.segre_veronese((2, 1), (1, 3))
    assert str(sv) == "sv:d=2,1;n=1,3"
    r = VarietyDescriptor.rnc(8)
    assert str(r) == "rnc:8"
    assert r.matrix().entries == RNC8
    c = VarietyDescriptor.custom(rational_normal_curve(3), label="matrix:x.csv")
    assert c.matrix().entries == rational_normal_curve(3).entries


def test_descriptor_is_hashable_and_cached():
    a = VarietyDescriptor.veronese(3, 2)
    b = VarietyDescriptor.veronese(3, 2)
    assert a == b and hash(a) == hash(b)
    assert a.matrix() is b.matrix()


def test_hadamard_spec():
    spec = HadamardSpec((2, 3))
    assert spec.m == 2
    assert spec.r_prime == (1, 2)
    assert spec.total_points == 4
    assert str(spec) == "(2,3)"
    with pytest.raises(ValueError):
        HadamardSpec((2, 0))
    with pytest.raises(ValueError):
        HadamardSpec(())
