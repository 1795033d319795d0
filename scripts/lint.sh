#!/usr/bin/env bash
# Static gate: formatting + clippy + rustdoc, all with warnings denied.
#
#   scripts/lint.sh          # check formatting, lints and docs
#   scripts/lint.sh --fix    # apply rustfmt, then re-check lints and docs
#
# Also invoked by scripts/perf_smoke.sh --check, so a perf gate run cannot
# pass on a tree that fails the static checks.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
  cargo fmt
else
  cargo fmt --check
fi

cargo clippy -q --all-targets -- -D warnings

# Lockfile gate: a manifest edit that would rewrite Cargo.lock or
# e2ebench/Cargo.lock fails here, instead of silently changing what the
# benchmark builds. --locked makes cargo refuse to write either lock.
cargo metadata -q --offline --locked --format-version 1 > /dev/null
cargo metadata -q --offline --locked --format-version 1 --manifest-path e2ebench/Cargo.toml > /dev/null

# Backend-equivalence gate: the runtime-dispatched kernels (scalar
# reference, native avx2 where the host has avx2+fma) must return
# bit-identical geometry and channel results. Each arm forces one backend
# via SURFOS_SIMD and re-runs the em lane-semantics suite plus the
# geometry/channel equivalence proptests under it. (The avx2 arm is
# skipped, not failed, on hosts without it — SURFOS_SIMD=avx2
# deliberately falls back when not runnable, which would silently retest
# the detected backend.)
simd_arms=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
  simd_arms+=(avx2)
fi
for arm in "${simd_arms[@]}"; do
  SURFOS_SIMD="$arm" cargo test -q -p surfos-em -p surfos-geometry -p surfos-channel
done

# Shard-equivalence gate: the sharded kernel must stay bit-identical to a
# flat single-scene evaluation even with the worker pool forced serial, so
# a result that silently depends on thread count cannot land.
SURFOS_THREADS=1 cargo test -q -p surfos-bench --test shard_equivalence

# Flight-recorder gate: a real `surfosd --trace` run over the demo script
# must produce a valid Chrome Trace Event document — balanced B/E pairs
# and monotonic timestamps on every track. The checker lives in
# crates/bench/tests/trace_valid.rs and reads the file via env var.
trace_tmp="$(mktemp)"
trap 'rm -f "$trace_tmp"' EXIT
cargo run -q --release -p surfos --bin surfosd -- --trace "$trace_tmp" examples/demo.surfos > /dev/null
SURFOS_TRACE_CHECK="$trace_tmp" \
  cargo test -q --release -p surfos-bench --test trace_valid trace_file_from_env

# Service-plane gate: boot a real `surfosd serve` on an ephemeral loopback
# port, drive it with a surfos-loadgen burst, then ask it to quit over
# stdin and require a clean shutdown plus a metrics snapshot carrying the
# rpc.* series (validated by crates/bench/tests/metrics_valid.rs, which
# reads the file via env var).
metrics_tmp="$(mktemp)"
serve_log="$(mktemp)"
serve_ctl="$(mktemp -d)"
trap 'rm -f "$trace_tmp" "$metrics_tmp" "$serve_log"; rm -rf "$serve_ctl"' EXIT
mkfifo "$serve_ctl/ctl"
cargo build -q --release -p surfos -p surfos-bench --bin surfosd --bin surfos-loadgen
target/release/surfosd serve --listen 127.0.0.1:0 --metrics-json "$metrics_tmp" \
  < "$serve_ctl/ctl" > "$serve_log" &
serve_pid=$!
exec 9> "$serve_ctl/ctl" # hold the control pipe open until we say quit
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/^surfosd: listening on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$serve_log")"
  [[ -n "$port" ]] && break
  sleep 0.1
done
[[ -n "$port" ]] || { echo "surfosd serve never reported its port" >&2; kill "$serve_pid"; exit 1; }
target/release/surfos-loadgen --connect "127.0.0.1:$port" --conns 8 --requests 400 > /dev/null
echo quit >&9
exec 9>&-
wait "$serve_pid"
grep -q '^surfosd: stopped$' "$serve_log" || { echo "surfosd did not shut down cleanly" >&2; exit 1; }
SURFOS_METRICS_CHECK="$metrics_tmp" \
  cargo test -q --release -p surfos-bench --test metrics_valid metrics_file_from_env

# Doc gate: broken intra-doc links and missing docs (where a crate opts in
# via #![warn(missing_docs)]) fail the build, not just warn.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "lint: formatting, clippy, lockfiles, backend equivalence (${simd_arms[*]}), shard equivalence (serial), trace export, daemon smoke (serve + loadgen + metrics) and rustdoc clean"
