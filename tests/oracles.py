"""Closed-form oracles of the paper's classifications, which the tests
compare the probes against: the defective Veronese secants
(Alexander-Hirschowitz), the defective binary Segre-Veronese secants, and
the generic Hadamard rank formulas with their hypotheses."""

import math

from toricdim import AH_SPORADIC


class FormulaNotGuaranteedError(ValueError):
    """Inputs fall outside the hypotheses of the closed-form rank formula."""


def _ceil_div(a: int, b: int) -> int:
    # exact: binomial products overflow float64
    return -(-a // b)


def ah_defective(d: int, n: int, r: int) -> bool:
    """Is the r-th secant of the degree-d Veronese of P^n defective?"""
    if d < 1 or n < 1 or r < 1:
        raise ValueError("need d >= 1, n >= 1, r >= 1")
    if d == 2:
        return 2 <= r <= n
    return (d, n, r) in AH_SPORADIC


def binary_sv_defective(degrees, s: int) -> bool:
    """Is the s-th secant of the binary Segre-Veronese of multidegree
    `degrees` (one P^1 factor per entry) defective?

    Defective exactly for ((2,2t), 2t+1), ((1,1,2t), 2t+1) with t >= 1,
    ((2,2,2), 7) and ((1,1,1,1), 3); order of the degrees is irrelevant.
    """
    ds = tuple(sorted(int(x) for x in degrees))
    if not ds or any(x < 1 for x in ds) or s < 1:
        raise ValueError("degrees must be >= 1 and s >= 1")
    if len(ds) == 2 and ds[0] == 2 and ds[1] % 2 == 0 and s == ds[1] + 1:
        return True
    if (
        len(ds) == 3
        and ds[0] == 1
        and ds[1] == 1
        and ds[2] % 2 == 0
        and s == ds[2] + 1
    ):
        return True
    if ds == (2, 2, 2) and s == 7:
        return True
    if ds == (1, 1, 1, 1) and s == 3:
        return True
    return False




def generic_hrank_formula(family: str, params, r: int) -> int:
    """Closed-form generic r-th Hadamard rank for the covered families.

    family "veronese":     params = (d, n), requires d >= 3;
                           ceil((C(n+d,d) - n) / ((r-1)(n+1))).
    family "binary":       params = degrees of a binary Segre-Veronese,
                           requires degrees not of shape (2,2t) or (1,1,2t);
                           ceil((prod(d_i+1) - n) / ((r-1)(n+1))), n factors.
    family "high_degree":  params = (degrees, dims), requires the two largest
                           degrees >= 3 and the rest >= 2;
                           ceil((prod C(n_i+d_i,d_i) - sum n) / ((r-1)(sum n + 1))).

    Raises FormulaNotGuaranteedError outside these hypotheses.
    """
    if r < 2:
        raise FormulaNotGuaranteedError("formula not guaranteed: needs r >= 2")
    if family == "veronese":
        d, n = params
        if d < 3:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: Veronese closed form needs d >= 3"
            )
        return _ceil_div(math.comb(n + d, d) - n, (r - 1) * (n + 1))
    if family == "binary":
        ds = tuple(sorted(int(x) for x in params))
        if not ds or any(x < 1 for x in ds):
            raise ValueError("degrees must be >= 1")
        two_family = len(ds) == 2 and ds[0] == 2 and ds[1] % 2 == 0
        one_one_family = (
            len(ds) == 3 and ds[0] == 1 and ds[1] == 1 and ds[2] % 2 == 0
        )
        if two_family or one_one_family:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: degrees lie in a defective family"
            )
        n = len(ds)
        numer = math.prod(x + 1 for x in ds) - n
        return _ceil_div(numer, (r - 1) * (n + 1))
    if family == "high_degree":
        degrees, dims = params
        degrees = tuple(int(x) for x in degrees)
        dims = tuple(int(x) for x in dims)
        if len(degrees) != len(dims) or not degrees:
            raise ValueError("degrees and dims must be equal-length, non-empty")
        top = sorted(degrees, reverse=True)
        if len(top) < 2 or top[1] < 3 or top[-1] < 2:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: needs two degrees >= 3 and the rest >= 2"
            )
        s = sum(dims)
        numer = math.prod(math.comb(n + d, d) for d, n in zip(degrees, dims)) - s
        return _ceil_div(numer, (r - 1) * (s + 1))
    raise ValueError(f"unknown family {family!r}")
