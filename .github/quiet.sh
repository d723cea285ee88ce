#!/bin/sh
# Run a command, pass its stderr through, and fail when it exits nonzero or
# writes anything to stderr, such as a NumPy warning:
#     PYTHONPATH=src sh .github/quiet.sh python -m chemotaxis_lab check ...
err=$(mktemp)
trap 'rm -f "$err"' EXIT
"$@" 2>"$err" || { cat "$err" >&2; exit 1; }
cat "$err" >&2
test ! -s "$err"
