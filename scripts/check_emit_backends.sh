#!/bin/sh
# CI gate: both emission backends cover the full bundled-ISAX x host-core
# grid, and both backends still produce byte-identical output.
#
# Three checks:
#   1. The pinned golden digests still match: SystemVerilog per paper core
#      (test_cache "paper-core artifacts golden") and Verilog-2001 per
#      bundled ISAX x registered core (test_cache "v2001 artifacts golden",
#      test/v2001_digests.txt). An emitter change must not move a byte of
#      either backend's output.
#   2. Every bundled ISAX compiles for every registered core under BOTH
#      `--emit sv` and `--emit v2001`, producing .sv / .v files plus the
#      SCAIE-V configuration.
#   3. The Verilog-2001 output parses with iverilog when one is installed;
#      otherwise it is lexically linted for SystemVerilog-only constructs
#      (always_ff / always_comb / always_latch / logic declarations), the
#      same keyword list V2001_emit.lint enforces.
#
# Usage: scripts/check_emit_backends.sh   (from the repository root)
set -eu

CLI=_build/default/bin/longnail_cli.exe
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

dune build bin/longnail_cli.exe test/test_cache.exe test/v2001_digests.txt

# 1) byte-identical SystemVerilog and Verilog-2001: the pinned digests
if ! _build/default/test/test_cache.exe test fingerprints 6,7 > "$TMP/golden.log" 2>&1; then
    cat "$TMP/golden.log" >&2
    echo "error: the pinned SV or V2001 golden digests no longer match" >&2
    exit 1
fi

ISAXES="$("$CLI" bundled | awk '{print $1}')"
CORES="$("$CLI" cores --names)"

lint_v2001() {
    # $1: a .v file. Prefer a real parser; fall back to the lexical lint.
    if command -v iverilog > /dev/null 2>&1; then
        iverilog -g2001 -t null "$1"
    elif grep -nwE 'always_ff|always_comb|always_latch|logic' "$1"; then
        echo "error: SystemVerilog-only construct in $1 (above)" >&2
        return 1
    fi
}

grid=0
for isax in $ISAXES; do
    src="$TMP/$isax.core_desc"
    "$CLI" bundled --name "$isax" > "$src"
    # the compile target is the single InstructionSet (or composing Core)
    # the bundled description defines
    target="$(sed -n -e 's/^InstructionSet \([A-Za-z0-9_]*\).*/\1/p' \
                     -e 's/^Core \([A-Za-z0-9_]*\).*/\1/p' "$src" | head -n 1)"
    if [ -z "$target" ]; then
        echo "error: cannot determine compile target of bundled ISAX '$isax'" >&2
        exit 1
    fi
    for core in $CORES; do
        out_sv="$TMP/sv_${isax}_${core}"
        out_v="$TMP/v2001_${isax}_${core}"
        for backend in sv v2001; do
            out="$TMP/${backend}_${isax}_${core}"
            if ! "$CLI" compile -c "$core" -t "$target" --emit "$backend" \
                    -o "$out" "$src" > /dev/null 2> "$TMP/err.log"; then
                cat "$TMP/err.log" >&2
                echo "error: $isax on $core failed under --emit $backend" >&2
                exit 1
            fi
        done
        # each backend produced HDL under its own extension + the config
        [ -n "$(find "$out_sv" -name '*.sv' | head -n 1)" ] || {
            echo "error: --emit sv produced no .sv for $isax on $core" >&2; exit 1; }
        [ -n "$(find "$out_v" -name '*.v' | head -n 1)" ] || {
            echo "error: --emit v2001 produced no .v for $isax on $core" >&2; exit 1; }
        [ -f "$out_v/scaiev_config.yaml" ] || {
            echo "error: --emit v2001 dropped scaiev_config.yaml for $isax on $core" >&2
            exit 1; }
        for v in "$out_v"/*.v; do
            lint_v2001 "$v" || exit 1
        done
        grid=$((grid + 1))
    done
done

if command -v iverilog > /dev/null 2>&1; then
    how="parsed with iverilog -g2001"
else
    how="lexically linted (iverilog not installed)"
fi
echo "emit-backend grid: $grid ISAX x core pairs under both backends; v2001 $how; SV and V2001 goldens byte-identical"
