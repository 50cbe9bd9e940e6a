#!/usr/bin/env bash
# Builds the benchmark harness and cmd/explorerd from the checkout it is
# run in, then runs one benchmark invocation. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload study-http --seed 1 --seconds 25 --trace 0
#
# Every build artefact and temporary file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOENV=off XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/explorerd" jitomev/cmd/explorerd
cd "$root"

# The harness and the explorerd it starts run on one CPU: the first this
# shell may use. On a shared virtual machine, work handed between two
# vCPUs waits whenever the host has descheduled one of them, and that
# wait, not the program, set most of the run-to-run spread. Go's default
# GOMAXPROCS follows the affinity mask, so both processes use one
# processor.
pin=()
if command -v taskset >/dev/null; then
	cpu=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status | cut -d, -f1 | cut -d- -f1)
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$out/perfbench" --explorerd "$out/explorerd" --workdir "$out/work" "$@"
