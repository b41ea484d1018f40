"""One test per gating criterion; each emits a single ACCEPTANCE line.

Every check here is an exact integer assertion (rank equalities over the
probe field, exact rational comparisons); the only interval is the error
ratio band of the degeneration check, which is part of its definition.
"""

import random

from conftest import rational_normal_curve, record_acceptance
from oracles import ah_defective

from toricdim import (
    RunConfig,
    VarietyDescriptor,
    demo_points,
    enumerate_check_rvectors,
    expected_generic_hrank,
    generic_hrank,
    hadamard_dimension,
    limit_check,
    normalize,
    secant_dimension,
)
from toricdim.hadamdim import eta_hadamard
from toricdim.secantdim import eta_secant

CFG = RunConfig(seed=0)


def _record(criterion: int, title: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE C{criterion} {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c1_veronese_check_tables(table_rows):
    rows = table_rows("veronese")
    counts = {}
    for row in rows:
        counts[row.descriptor] = counts.get(row.descriptor, 0) + 1
    want_counts = {
        "veronese:d=3,n=4": 10,
        "veronese:d=4,n=2": 4,
        "veronese:d=4,n=3": 21,
        "veronese:d=4,n=4": 100,
    }
    want_fill = {
        "veronese:d=3,n=4": 34,
        "veronese:d=4,n=2": 14,
        "veronese:d=4,n=3": 34,
        "veronese:d=4,n=4": 69,
    }
    ok = counts == want_counts
    ok = ok and all(
        row.computed_dim == row.ambient_dim == want_fill[row.descriptor]
        for row in rows
    )
    ok = ok and all(row.passed for row in rows)
    _record(1, "Veronese check tables", ok, f"{len(rows)} rows, counts {sorted(counts.values())}")


def test_c2_binary_check_tables(table_rows):
    rows = table_rows("binary")
    head, tail = rows[:-1], rows[-1]
    ok = len(head) == 10
    ok = ok and all(
        row.computed_dim == row.ambient_dim == 26 and row.passed for row in head
    )
    ok = ok and tail.r == (2, 2) and tail.ambient_dim == 15
    ok = ok and tail.computed_dim == 14 and tail.passed
    _record(2, "binary check tables", ok,
            f"10 rows fill P^26, (1,1,1,1) x (2,2) dim {tail.computed_dim} in P^15")


def test_c3_hypersurface_cases():
    sextic = hadamard_dimension(VarietyDescriptor.veronese(6, 1), (2, 2), CFG)
    segre = hadamard_dimension(VarietyDescriptor.segre((1, 1, 1, 1)), (2, 2), CFG)
    ok = sextic.computed_dim == 5 and sextic.ambient_dim == 6
    ok = ok and segre.computed_dim == 14 and segre.ambient_dim == 15
    _record(3, "hypersurface cases", ok,
            f"sextic curve {sextic.computed_dim}/6, Segre {segre.computed_dim}/15")


def test_c4_alexander_hirschowitz_consistency():
    ok = True
    probed = 0
    for d in range(1, 5):
        for n in range(1, 5):
            desc = VarietyDescriptor.veronese(d, n)
            saturated_rows = 0
            for r in range(1, 15):
                rep = secant_dimension(desc, r, CFG)
                probed += 1
                ok = ok and rep.defect_flag == ah_defective(d, n, r)
                if rep.expected_dim == rep.ambient_dim:
                    saturated_rows += 1
                    if saturated_rows >= 2:
                        break
    quintic = secant_dimension(VarietyDescriptor.veronese(4, 2), 5, CFG)
    ok = ok and quintic.computed_dim == 13 and quintic.expected_dim == 14
    _record(4, "Alexander-Hirschowitz consistency", ok,
            f"{probed} grid points, sigma_5 quartic surface dim {quintic.computed_dim}")


def test_c5_experiment_subset(table_rows):
    rows = table_rows("experiments")
    ok = len(rows) == 150 and all(
        row.computed_dim == row.expected_dim and row.passed for row in rows
    )
    _record(5, "experiment subset", ok, f"{len(rows)} rows match the chain bound")


def test_c6_degeneration_verifier():
    abar = normalize(rational_normal_curve(8))
    pts = demo_points(abar, (2, 3), seed=0)
    rep = limit_check(abar, (2, 3), pts, label="rnc:8")
    probe = secant_dimension(VarietyDescriptor.rnc(8), 4, CFG)
    ok = rep.row0_exact_ok and rep.first_order_ok and rep.rowspan_ok
    ok = ok and all(5 <= q <= 20 for q in rep.error_ratios)
    ok = ok and rep.all_pass
    ok = ok and rep.dim_lower_bound == 7 == probe.computed_dim
    ratios = ", ".join(f"{float(q):.2f}" for q in rep.error_ratios)
    _record(6, "degeneration verifier", ok,
            f"ratios {ratios}, bound >= {rep.dim_lower_bound}")


def test_c7_property_suites():
    pool = [
        VarietyDescriptor.veronese(2, 1),
        VarietyDescriptor.veronese(2, 2),
        VarietyDescriptor.veronese(3, 1),
        VarietyDescriptor.veronese(3, 2),
        VarietyDescriptor.segre((1, 1)),
        VarietyDescriptor.segre((1, 1, 1)),
        VarietyDescriptor.segre_veronese((2, 1), (1, 1)),
        VarietyDescriptor.rnc(5),
        VarietyDescriptor.rnc(8),
    ]
    ok = True

    rng = random.Random(0)
    for _ in range(50):  # chain inequality on random small cases
        desc = rng.choice(pool)
        r = tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3)))
        rep = hadamard_dimension(desc, r, CFG)
        ok = ok and (
            rep.lower_bound_dim_R
            <= rep.computed_dim
            <= rep.expected_dim_hadamard
            <= rep.expected_dim_R
        )
        flipped = hadamard_dimension(desc, tuple(reversed(r)), CFG)
        ok = ok and flipped.computed_dim == rep.computed_dim

    for i in range(20):  # m = 1: both coefficient constructions coincide
        desc = pool[i % len(pool)]
        rows = desc.matrix().entries
        big_r = 1 + i % 4
        pts = [
            tuple(rng.randrange(1, 101) for _ in range(len(rows)))
            for _ in range(big_r)
        ]
        ok = ok and eta_hadamard(rows, (big_r,), pts, 101) == eta_secant(rows, pts, 101)

    counts = {R: len(enumerate_check_rvectors(R)) for R in (3, 5, 7, 9, 14)}
    ok = ok and counts == {3: 1, 5: 4, 7: 10, 9: 21, 14: 100}

    for desc in (VarietyDescriptor.rnc(7), VarietyDescriptor.veronese(3, 2)):
        dims = [secant_dimension(desc, r, CFG).computed_dim for r in range(1, 7)]
        ok = ok and dims == sorted(dims)

    _record(7, "property suites", ok,
            "chain x50, eta m=1 x20, partitions, monotone R")


def test_c8_generic_hadamard_rank():
    vero = generic_hrank(VarietyDescriptor.veronese(3, 2), 2, CFG)
    segre = generic_hrank(VarietyDescriptor.segre((1, 1, 1, 1)), 2, CFG)
    ok = vero.found_m == 3 == expected_generic_hrank(9, 2, 2)
    ok = ok and segre.found_m == 3 == expected_generic_hrank(15, 4, 2)
    ok = ok and (2, 14) in segre.trace  # square does not fill: a hypersurface
    _record(8, "generic Hadamard rank", ok,
            f"cubic surface m={vero.found_m}, Segre m={segre.found_m}")
