#!/bin/sh
# CI gate: --narrow=on is a semantics-preserving optimization.
#
# Three checks over a bundled ISAX x core grid:
#   1. compiling with --narrow=on --verify-each succeeds — every rewrite
#      the narrowing passes make is translation-validated (E0530 aborts
#      the compile on any counterexample) and the pass sanitizer re-checks
#      the IR after each pass;
#   2. an RTL-in-the-loop cosimulation of an ISAX-exercising program
#      prints the identical architectural trace with the knob off and on,
#      and the same a0..a7 as the cycle-cost model (the reference
#      interpreter) on that program; each program runs its ISAX
#      instruction three times in a row on different operands, so a
#      simulation engine reused with stale state between instructions
#      shows up as a diff;
#   3. for an ISAX the analysis provably narrows (sqrt_tightly), the
#      emitted SystemVerilog actually differs between off and on — the
#      knob is not a silent no-op.
#
# Usage: scripts/check_narrow.sh   (from the repository root)
set -eu

CLI=_build/default/bin/longnail_cli.exe
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

dune build bin/longnail_cli.exe

compile_grid() {
    isax="$1" target="$2" core="$3"
    "$CLI" bundled -n "$isax" > "$TMP/$isax.core_desc"
    "$CLI" compile -c "$core" -t "$target" "$TMP/$isax.core_desc" \
        -o "$TMP/$isax-$core-on" --narrow on --verify-each > /dev/null
    "$CLI" compile -c "$core" -t "$target" "$TMP/$isax.core_desc" \
        -o "$TMP/$isax-$core-off" --narrow off > /dev/null
    echo "narrow: $isax on $core compiles translation-validated"
}

compile_grid sqrt_tightly X_SQRT_T vexriscv
compile_grid sqrt_decoupled X_SQRT_D orca
compile_grid chksum X_CHKSUM picorv32
compile_grid dotprod X_DOTP piccolo

# the knob must not be a silent no-op where the analysis proves bits
if diff -r "$TMP/sqrt_tightly-vexriscv-on" "$TMP/sqrt_tightly-vexriscv-off" > /dev/null; then
    echo "error: --narrow=on left sqrt_tightly's artifacts unchanged" >&2
    exit 1
fi
echo "narrow: sqrt_tightly artifacts narrowed"

cosim() {
    isax="$1" core="$2" prog="$3"
    printf '%s\n' "$prog" > "$TMP/$isax.s"
    "$CLI" run -c "$core" -n "$isax" --engine rtl-loop --narrow off \
        "$TMP/$isax.s" > "$TMP/$isax-$core-trace-off.txt"
    "$CLI" run -c "$core" -n "$isax" --engine rtl-loop --narrow on \
        "$TMP/$isax.s" > "$TMP/$isax-$core-trace-on.txt"
    if ! diff -u "$TMP/$isax-$core-trace-off.txt" "$TMP/$isax-$core-trace-on.txt"; then
        echo "error: --narrow=on changed the cosimulation trace of $isax on $core" >&2
        exit 1
    fi
    "$CLI" run -c "$core" -n "$isax" --engine cost \
        "$TMP/$isax.s" > "$TMP/$isax-$core-cost.txt"
    grep -E '^ *a[0-9]+ =' "$TMP/$isax-$core-trace-on.txt" > "$TMP/$isax-$core-regs-rtl.txt"
    grep -E '^ *a[0-9]+ =' "$TMP/$isax-$core-cost.txt" > "$TMP/$isax-$core-regs-cost.txt"
    if ! diff -u "$TMP/$isax-$core-regs-cost.txt" "$TMP/$isax-$core-regs-rtl.txt"; then
        echo "error: the RTL-in-the-loop run of $isax on $core disagrees with the cost model" >&2
        exit 1
    fi
    echo "narrow: $isax on $core cosimulates identically"
}

cosim sqrt_tightly vexriscv 'li a1, 16
li a4, 1764
li a5, 0x7FFFFFFF
.isax SQRT rs1=a1, rd=a2
.isax SQRT rs1=a4, rd=a3
.isax SQRT rs1=a5, rd=a6
add a7, a2, a3
ebreak'

cosim chksum picorv32 'li a1, 0x01020304
li a2, 0x50607080
li a4, 0xFFFFFFFF
li a5, 0x00000001
.isax CHKSUM rs1=a1, rs2=a2, rd=a3
.isax CHKSUM rs1=a4, rs2=a5, rd=a6
.isax CHKSUM rs1=a2, rs2=a4, rd=a7
add a0, a3, a6
ebreak'

cosim dotprod vexriscv 'li a1, 0x01020304
li a2, 0x05060708
li a4, 0x7F80FF01
li a5, 0x80017FFF
.isax DOTP rs1=a1, rs2=a2, rd=a3
.isax DOTP rs1=a4, rs2=a5, rd=a6
.isax DOTP rs1=a5, rs2=a1, rd=a7
add a0, a3, a6
ebreak'

echo "--narrow=on is translation-validated and trace-preserving"
