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
#            builds, and a builder over its entry cap and a probe whose basis
#            does not fit exit 2 with a message, never a traceback
#   install  install the package and check, from outside the checkout, that
#            its console script's report equals the benchmark's oracle; skipped
#            without `wheel`, which setuptools < 70.1 needs to build it
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

check() {
    local expected=$1 code=0
    shift
    python -m toricdim.cli dim-secant "$@" > /dev/null 2> "$tmp/err.txt" || code=$?
    cat "$tmp/err.txt"
    if [ "$code" != "$expected" ] || grep -q Traceback "$tmp/err.txt"; then
        echo "dim-secant $* exited $code, expected $expected"
        return 1
    fi
}

large() (
    ulimit -v 3000000
    check 0 segre:n=1,999 --r 2
    check 2 veronese:d=2,n=4000 --r 2
    check 2 rnc:100000 --r 50000
)

install() (
    if ! python -c "import wheel" 2> /dev/null; then
        echo "install: skipped, wheel is not installed"
        return 0
    fi
    python -m pip install --no-build-isolation .
    cd "$tmp"
    unset PYTHONPATH
    toricdim verify-table experiments --extended --format csv > extended.csv
    cmp extended.csv "$root/perfbench/golden/experiments-extended.csv"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for step in "$@"; do
    case $step in
        build | tier1 | large | install) echo "== $step"; "$step" ;;
        *) echo "unknown step: $step" >&2; exit 2 ;;
    esac
done
