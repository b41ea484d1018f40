#!/usr/bin/env bash
# The shell steps of .github/workflows/tests.yml, which a checkout runs
# the same way:
#
#   bash --noprofile --norc -eo pipefail scripts/ci.sh build tier1 large install
#
#   build    compile _fastkernels.c in place under -Wall -Wextra -Werror and
#            check that toricdim picks it; with TORICDIM_ASAN=1, under
#            TORICDIM_FAST_CFLAGS with AddressSanitizer, whose runtime then
#            preloads every step
#   tier1    the tier-1 suite; TORICDIM_PURE=1 runs it on the pure kernels
#   large    under a 3 GB address-space limit, a factor of 1000 variables
#            builds, and a builder over its entry cap (through dim-secant,
#            generic-hrank and dim-hadamard), an r checked before that
#            builder, and two probes whose walks do not fit exit 2: one
#            whose monomial values at its points do not, and one, at
#            WORD_PRIME, whose 32-bit basis of 4092 x 184756 words does
#            not; each query's stderr must equal the text it states, so a
#            traceback or another check's message fails; AddressSanitizer
#            reserves more address space than that limit, so run it
#            without TORICDIM_ASAN
#   oom      with TORICDIM_ASAN=1, the WORD_PRIME probe of `large` whose
#            32-bit basis does not fit, under AddressSanitizer's cap on
#            one allocation (max_allocation_size_mb) in place of a ulimit:
#            it must exit 2 with the out-of-memory message, so the C
#            allocation-failure path (basis_new, and the buffers of
#            hadamard_ranks_mod allocated before it) runs instrumented;
#            ASan's own warning on the refused allocation goes to a log
#   install  install the package and check, from outside the checkout, that
#            its console script's reports equal the stored ones: the extended
#            sweep and the exact-rational degeneration-demo JSON report on
#            both backends, and the three stored tables on the pure kernels;
#            skipped without `wheel`, which setuptools < 70.1 needs to build it
set -eo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
preload=
if [ -n "$TORICDIM_ASAN" ]; then
    preload=$(gcc -print-file-name=libasan.so)
fi

build() {
    if [ -n "$TORICDIM_ASAN" ]; then
        CFLAGS="$TORICDIM_FAST_CFLAGS" LDFLAGS=-fsanitize=address \
            python setup.py build_ext --inplace --force
    else
        CFLAGS="-Wall -Wextra -Werror" python setup.py build_ext --inplace --force
    fi
    # The extension is optional: setup.py exits 0 when the compile fails.
    LD_PRELOAD=$preload python -c \
        "from toricdim import kernels; assert kernels.backend_name() == 'c'"
}

tier1() {
    LD_PRELOAD=$preload python -m pytest -q --continue-on-collection-errors
}

# check CODE TEXT ARGS...: the CLI on ARGS exits CODE with stderr TEXT.
check() {
    local expected=$1 text=$2 code=0
    shift 2
    python -m toricdim.cli "$@" > /dev/null 2> "$tmp/err.txt" || code=$?
    cat "$tmp/err.txt"
    if [ "$code" != "$expected" ] || [ "$(< "$tmp/err.txt")" != "$text" ]; then
        echo "$* exited $code, expected $expected with: $text"
        return 1
    fi
}

large() (
    ulimit -v 3000000
    local cap="error: 32032010001 matrix entries exceeds cap 20000000"
    check 0 "" dim-secant segre:n=1,999 --r 2
    check 2 "$cap" dim-secant veronese:d=2,n=4000 --r 2
    check 2 "$cap" generic-hrank veronese:d=2,n=4000 --r 2
    check 2 "$cap" dim-hadamard veronese:d=2,n=4000 --r 2,2
    check 2 "error: r must be >= 1" generic-hrank veronese:d=2,n=4000 --r 0
    local oom="error: out of memory: the query's matrices do not fit"
    check 2 "$oom" dim-secant rnc:100000 --r 50000
    check 2 "$oom" dim-secant veronese:d=10,n=10 --r 372
)

oom() {
    if [ -z "$TORICDIM_ASAN" ]; then
        echo "oom: needs TORICDIM_ASAN=1 and the kernel it builds"
        return 1
    fi
    local code=0
    ASAN_OPTIONS=${ASAN_OPTIONS:+$ASAN_OPTIONS:}allocator_may_return_null=1:max_allocation_size_mb=1024:log_path=$tmp/asan \
        LD_PRELOAD=$preload check 2 "error: out of memory: the query's matrices do not fit" \
        dim-secant veronese:d=10,n=10 --r 372 || code=$?
    cat "$tmp"/asan.* 2> /dev/null || true
    return $code
}

install() (
    if ! python -c "import wheel" 2> /dev/null; then
        echo "install: skipped, wheel is not installed"
        return 0
    fi
    python -m pip install --no-build-isolation .
    cd "$tmp"
    unset PYTHONPATH
    for pure in "" 1; do
        TORICDIM_PURE=$pure toricdim verify-table experiments --extended --format csv \
            > extended.csv
        cmp extended.csv "$root/perfbench/golden/experiments-extended.csv"
        TORICDIM_PURE=$pure toricdim degeneration-demo --format json > degeneration.json
        cmp degeneration.json "$root/tests/golden/degeneration-demo.json"
    done
    for table in veronese binary experiments; do
        TORICDIM_PURE=1 toricdim verify-table "$table" --format csv > "$table.csv"
        cmp "$table.csv" "$root/perfbench/golden/$table.csv"
    done
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for step in "$@"; do
    case $step in
        build | tier1 | large | oom | install) echo "== $step"; "$step" ;;
        *) echo "unknown step: $step" >&2; exit 2 ;;
    esac
done
