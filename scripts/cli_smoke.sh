#!/bin/sh
# Runs the installed `gammaproc` console script on small commands, and exits
# nonzero at the first command that fails or, for a removed option, that does
# not exit 2 (a usage error).  One CSV and one JSON ensemble are read back with
# the standard library: each CSV cell must be Python's '%.17g' text of the
# double it reads as, and each JSON time and value its repr.
#
#     sh scripts/cli_smoke.sh
set -e
gammaproc --version
gammaproc simulate --process ar1 --n 3 --paths 2
gammaproc simulate --process ar1 --n 3 --paths 2 --format json
gammaproc simulate --process rm --alpha 0.01 --rho 0.001 --n 50 --paths 3 --format json
gammaproc verify --process ar1 --suite tail
gammaproc verify --process ar1 --suite tail --alpha 3
gammaproc verify --process ar1 --alpha 0.01 --suite marginal
gammaproc verify --process ar1 --alpha 1000 --suite tail
gammaproc verify --process cthin --suite generator
gammaproc verify --process cir --cir-method squared-ou --alpha 1.5 --suite marginal
gammaproc verify --process rm --suite acf
gammaproc simulate --process rm --n 10000 --dt 0.25 --paths 2
gammaproc simulate --process cthin --dt 0.3 --n 3
gammaproc compare --process-a cthin --process-b cir --points 3 --paths 2000
# every CSV time and value cell must be the '%.17g' text of the double it reads as
csv=$(mktemp)
gammaproc simulate --process cthin --alpha 0.01 --rho 0.001 --n 200 --paths 5 --format csv \
    --out "$csv"
python - "$csv" <<'PY'
import sys
with open(sys.argv[1]) as fh:
    lines = fh.read().splitlines()
assert lines[0] == "path,t,value" and len(lines) == 1001, len(lines)
bad = [c for line in lines[1:] for c in line.split(",")[1:] if "%.17g" % float(c) != c]
assert not bad, bad[:5]
PY
rm -f "$csv"
# every JSON path value and grid time must be Python's repr of the double it reads
# as; this ensemble holds zeros and values below 1e-4, some of them at row ends
json=$(mktemp)
gammaproc simulate --process rm --alpha 0.01 --rho 0.001 --n 200 --paths 5 --format json \
    --out "$json"
python - "$json" <<'PY'
import json
import sys
with open(sys.argv[1]) as fh:
    doc = json.loads(fh.read(), parse_float=str)
cells = doc["grid"] + [tok for path in doc["paths"] for tok in path]
assert len(doc["paths"]) == 5 and len(cells) == 1200, len(cells)
assert any(float(path[-1]) < 1e-4 for path in doc["paths"])
bad = [tok for tok in cells if repr(float(tok)) != tok]
assert not bad, bad[:5]
PY
rm -f "$json"
code=0; gammaproc simulate --process cthin --cthin-steps 16 --n 3 || code=$?
test "$code" -eq 2
code=0; gammaproc simulate --process cir --cir-method euler --n 3 || code=$?
test "$code" -eq 2
code=0; gammaproc simulate --process cir --euler-substeps 16 --n 3 || code=$?
test "$code" -eq 2
