#!/usr/bin/env bash
# Print every metric of every workload: the end-to-end run, then the
# traced per-layer run. Usage: bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-10}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for workload in lsm_wal_ingest sharded_balanced; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
            sed '$d'
        echo
    done
done
