#!/usr/bin/env bash
# Run the preset x controller matrix through the command-line runner.
#
#     tools/preset_matrix.sh OUT
#
# Writes each run's artifacts under OUT/<preset>/, its standard error to
# OUT/<preset>.stderr and one line "<preset> <exit code>" per CLI call to
# OUT/codes. Run it from two checkouts and `diff -r` the two OUT
# directories: a change that keeps every trajectory.csv, report.txt,
# config.echo, comparison.txt, exit code and warning byte-identical shows
# no difference.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 64
fi
mkdir -p "$1" || exit 1
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.." || exit 1
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
: > "$out/codes"

run() {
    local name=$1
    shift
    python3 -m consensuslab.cli --preset "$name" --out "$out/$name" --quiet "$@" \
        2> "$out/$name.stderr"
    echo "$name $?" >> "$out/codes"
}

run serial_lti --compare compositional,conventional,naive-serial
run timevarying_fig1 --compare compositional,conventional,naive-serial
run saturated_fig2 --compare compositional,conventional,naive-serial
run gps_fig3 --compare compositional,conventional-ideal,conventional-delayed
run counterexample_appD
run saturated_regime
