#!/bin/sh
# Paper-figure gate (registered with ctest, label `paper`).
#
# Runs the 13 paper bench binaries single-threaded and byte-compares each
# one's stdout, minus the `[pool] ... wall time` line, with the reference
# in perfbench/ref/paper/<name>.txt. Then compares the table printed by
# fig12_system_schedule with perfbench/ref/fig12_table.txt. The reference
# files are only read. Any difference fails the test and prints a diff.
#
# usage: paper_gate.sh <bench_bin_dir> <perfbench_ref_dir> <scratch_dir>
set -eu

BIN_DIR="$1"
REF_DIR="$2"
SCRATCH="$3"

BENCHES="table1_bti_recovery fig4_bti_permanent fig5_em_stress_recovery
fig6_em_early_recovery fig7_em_periodic fig9_assist_circuit
fig10_load_size fig11_pdn_layers ablation_ac_frequency
ablation_compact_models sram_recovery_boost logic_aging_sta
em_population_ttf"

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
cd "$SCRATCH"

# The same filter as perfbench's strip_pool_lines.
strip_pool_lines() {
    grep -v '^\[pool\].*wall time' || true
}

failed=0
for name in $BENCHES; do
    if ! DH_THREADS=1 "$BIN_DIR/$name" > "$name.raw"; then
        echo "FAIL: $name exited with an error"
        failed=1
        continue
    fi
    strip_pool_lines < "$name.raw" > "$name.txt"
    if cmp -s "$name.txt" "$REF_DIR/paper/$name.txt"; then
        echo "ok:   $name"
    else
        echo "FAIL: $name differs from $REF_DIR/paper/$name.txt"
        diff "$REF_DIR/paper/$name.txt" "$name.txt" || true
        failed=1
    fi
done

if DH_THREADS=1 "$BIN_DIR/fig12_system_schedule" > fig12.raw; then
    grep -E '^[+|]' fig12.raw > fig12_table.txt || true
    if cmp -s fig12_table.txt "$REF_DIR/fig12_table.txt"; then
        echo "ok:   fig12_system_schedule table"
    else
        echo "FAIL: fig12 table differs from $REF_DIR/fig12_table.txt"
        diff "$REF_DIR/fig12_table.txt" fig12_table.txt || true
        failed=1
    fi
else
    echo "FAIL: fig12_system_schedule exited with an error"
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    exit 1
fi
cd /
rm -rf "$SCRATCH"
echo "PASS: every paper figure matches its reference"
