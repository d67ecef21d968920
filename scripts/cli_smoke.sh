#!/bin/sh
# Runs the installed `gammaproc` console script on small commands, and exits
# nonzero at the first command that fails or, for a removed option, that does
# not exit 2 (a usage error).
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
code=0; gammaproc simulate --process cthin --cthin-steps 16 --n 3 || code=$?
test "$code" -eq 2
code=0; gammaproc simulate --process cir --cir-method euler --n 3 || code=$?
test "$code" -eq 2
code=0; gammaproc simulate --process cir --euler-substeps 16 --n 3 || code=$?
test "$code" -eq 2
