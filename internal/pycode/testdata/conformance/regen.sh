#!/bin/sh
# Regenerates the expected stdout (<case>.out) of every conformance case
# (<case>.py) with CPython 3.11, the reference pycode follows. The Go test
# reads only the committed files, so running it needs no Python. Usage:
#
#	./regen.sh [path to a python3.11 interpreter]
set -eu
py=${1:-python3.11}
"$py" -c 'import sys; sys.exit(sys.version_info[:2] != (3, 11))' ||
	{ echo "regen.sh: $py is not CPython 3.11" >&2; exit 1; }
cd "$(dirname "$0")"
for f in *.py; do
	"$py" "$f" >"${f%.py}.out"
done
