#!/usr/bin/env bash
# Compare the CLI reports of this checkout with those of another commit:
#
#   scripts/same_reports.sh REF
#
# runs each command of `commands` below through `python -m toricdim.cli`,
# in this checkout and in a copy of REF (`git archive`), on the pure
# kernels and, when gcc builds the kernel of both trees, on the compiled
# ones.  It prints every command whose exit code, stdout or stderr differ,
# and exits 1 if any differ.  Both trees run from one scratch directory,
# so the label of the `matrix:` query is the same.  A change that alters
# reports on purpose fails it, so CI does not run it.
set -eo pipefail
set -f  # the commands are split on spaces, never globbed
if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
here=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$1" | tar -x -C "$tmp/ref"
# The quartic chart of test_generic_hrank_raises_nothing_for_powers_it_never_reaches.
printf '1,1,1,1,1\n-1000,-500,0,500,1000\n' > "$tmp/wide-quartic.csv"
# v_2(P^2) with a doubled row and no all-ones row: normalize's span tests
# meet short exact ranks, some certified by the first prime's left kernel
# and some (the homogeneity test) by the Hadamard bound.
printf '0,2,0,4,2,0\n0,1,0,2,1,0\n2,1,1,0,0,0\n0,0,1,0,1,2\n' > "$tmp/unnormalised-v2.csv"
cp tests/golden/support-conic.txt tests/golden/support-binomial.txt "$tmp"

tables=(veronese binary experiments "experiments --extended")
commands=()
for seed in 0 3 7 11; do
    for format in csv json text; do
        for table in "${tables[@]}"; do
            commands+=("verify-table $table --format $format --seed $seed")
        done
    done
done
for prime in 65537 4294967311 18446744073709551557; do
    for table in "${tables[@]}"; do
        commands+=("verify-table $table --prime $prime")
    done
    commands+=("generic-hrank segre:n=1,1,1,1 --r 2 --prime $prime")
    commands+=("generic-hrank veronese:d=2,n=6 --r 2 --prime $prime")
done
commands+=(
    "generic-hrank segre:n=1,1,1,1 --r 2"
    "generic-hrank segre:n=1,1,1,1,1 --r 2"
    "generic-hrank veronese:d=2,n=6 --r 2"
    "generic-hrank rnc:8 --r 3"
    "generic-hrank veronese:d=4,n=2 --r 2"
    "generic-hrank sv:d=2,2;n=2,2 --r 3"
    "dim-secant veronese:d=4,n=8 --r 55"
    "dim-secant veronese:d=5,n=6 --r 66"
    "dim-hadamard veronese:d=4,n=8 --r 28,28"
    "dim-secant veronese:d=4,n=8 --r 70"
)
for r in 2,4 4,2 3,3 2,2,2,2; do
    commands+=("dim-hadamard matrix:$tmp/wide-quartic.csv --r $r --prime 65537")
done
# The degeneration benchmark's queries, whose short exact ranks the left
# kernel certifies, the binomial-check golden queries, and a matrix that
# normalize must put in chart form.
for seed in 0 3 7 11; do
    for format in text json; do
        for query in "rnc:8 --r 2,3" "rnc:20 --r 3,4" "rnc:30 --r 4,5" \
                "veronese:d=4,n=2 --r 2,3"; do
            commands+=("degeneration-demo --descriptor $query --format $format --seed $seed")
        done
    done
done
commands+=(
    "binomial-check support-conic.txt"
    "binomial-check support-conic.txt --format json"
    "binomial-check support-binomial.txt"
    "dim-secant matrix:unnormalised-v2.csv --r 2"
    "dim-secant matrix:unnormalised-v2.csv --r 3"
)

# run TREE OUT PURE: every command in TREE, its stdout, stderr and exit
# code under OUT, on the pure kernels when PURE is non-empty.
run() {
    local i=0 code
    mkdir -p "$2"
    for command in "${commands[@]}"; do
        code=0
        (cd "$tmp" && TORICDIM_PURE=$3 PYTHONPATH="$1/src" python -m toricdim.cli $command \
            > "$2/$i.out" 2> "$2/$i.err") || code=$?
        echo "$code" > "$2/$i.code"
        i=$((i + 1))
    done
}

backends=(pure)
compiled=yes
for tree in "$here" "$tmp/ref"; do
    (cd "$tree" && python setup.py build_ext --inplace --force > "$tmp/build.log" 2>&1) || true
    if ! (cd "$tmp" && TORICDIM_PURE= PYTHONPATH="$tree/src" python -c \
            "from toricdim import kernels; assert kernels.backend_name() == 'c'" 2> /dev/null); then
        echo "compiled: skipped, the kernel of $tree does not build"
        compiled=
    fi
done
if [ -n "$compiled" ]; then
    backends+=(compiled)
fi

differ=0
for backend in "${backends[@]}"; do
    pure=
    if [ "$backend" = pure ]; then
        pure=1
    fi
    run "$here" "$tmp/out/$backend/here" "$pure"
    run "$tmp/ref" "$tmp/out/$backend/ref" "$pure"
    i=0
    for command in "${commands[@]}"; do
        for part in code out err; do
            if ! cmp -s "$tmp/out/$backend/here/$i.$part" "$tmp/out/$backend/ref/$i.$part"; then
                echo "$backend: $command: $part differs"
                differ=1
            fi
        done
        i=$((i + 1))
    done
    echo "$backend: ${#commands[@]} commands compared"
done
exit $differ
