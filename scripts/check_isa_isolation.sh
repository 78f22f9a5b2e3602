#!/bin/sh
# Fails when the AVX2 tier object of the static library defines a pe::
# symbol that another object in the archive also defines.
#
# simd_avx2.cc is compiled with -mavx2 -mfma. An inline function with
# external linkage that it emits out of line is a weak symbol, and the
# linker may keep that AVX2 copy for every caller: the baseline kernels
# and the planner would then execute AVX2 instructions and die with
# SIGILL on a host the cpuid probe put on the scalar tier.
#
# Usage: check_isa_isolation.sh <nm> <libpe.a>
set -eu
nm_tool=$1
lib=$2
member=simd_avx2.cc.o

# Mangled names: a symbol is pe::'s when its outermost scope is pe
# (_ZN2pe..., _ZNK2pe..., _ZTVN2pe...), whatever its return type.
status=0
report=$("$nm_tool" -A --defined-only "$lib" | awk -v m="$member" '
{
    # "<archive>:<member>:<address> <type> <name>"
    n = split($1, part, ":")
    obj = part[n - 1]
    if (obj == m)
        present = 1
    if ($2 !~ /^[A-Zu]$/ || $3 !~ /^_Z[A-Z]*2pe[0-9]/)
        next
    if (obj == m)
        mine[$3] = 1
    else
        others[$3] = others[$3] " " obj
}
END {
    if (!present) {
        print "isa_isolation: no " m " in the archive"
        exit 1
    }
    defined = 0
    shared = 0
    for (s in mine) {
        ++defined
        if (s in others) {
            print "isa_isolation: " s " is defined by " m \
                  " and by" others[s]
            ++shared
        }
    }
    printf "isa_isolation: %s defines %d pe:: symbols, %d also " \
           "defined elsewhere\n", m, defined, shared
    exit shared > 0
}') || status=$?
if command -v c++filt >/dev/null 2>&1; then
    printf '%s\n' "$report" | c++filt
else
    printf '%s\n' "$report"
fi
exit $status
