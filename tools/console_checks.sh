#!/usr/bin/env bash
# Console checks of the satadjust command line: byte-identical reruns,
# the match stage alone, thread counts, and the exit codes of bad input.
# Run it in an empty directory, which it fills with its outputs.
# SATADJUST names the command (default: the installed console script),
# so that it runs from the root of a checkout without installing:
#
#   mkdir console && cd console
#   SATADJUST="python3 -m satadjust.cli" PYTHONPATH=../src \
#       bash ../tools/console_checks.sh
set -eo pipefail

satadjust() { command ${SATADJUST:-satadjust} "$@"; }

satadjust synth --out demo --images 2 --points 40 --bias-range 6 --noise 0 --seed 77 --render --half-extent 350
# the same seed writes the same bytes: RPC files, rasters, truth tables
satadjust synth --out demo_again --images 2 --points 40 --bias-range 6 --noise 0 --seed 77 --render --half-extent 350
diff -r demo demo_again
satadjust pipeline demo/img_000 demo/img_001 --out run --threads 1
# the match stage alone gives the pipeline's matching output
satadjust match --products run/products --out rematch
cmp rematch/correspondences.txt run/correspondences.txt
cmp rematch/tracks.txt run/tracks.txt
# two workers write every file that one writes, byte for byte
satadjust pipeline demo/img_000 demo/img_001 --out run2 --threads 2
diff -r run run2
code=0
satadjust pipeline demo/img_000 demo/img_001 --out bad --window 28 || code=$?
test "$code" -eq 2
test ! -e bad/products
code=0
satadjust pipeline demo/img_000 demo/img_001 --out badnd --nodata 300 || code=$?
test "$code" -eq 2
test ! -e badnd/products
# projections that overflow leave no usable track: exit 2
cp -r demo hugeh
sed -i 's/^HEIGHT_SCALE: .*/HEIGHT_SCALE: 1e200/' hugeh/img_000.rpc
code=0
satadjust pipeline hugeh/img_000 hugeh/img_001 --out hugerun --threads 1 2> hugerun.err || code=$?
cat hugerun.err
test "$code" -eq 2
# the overflow is masked, not reported as a NumPy warning
if grep -q RuntimeWarning hugerun.err; then exit 1; fi
satadjust report --tracks run/tracks.txt --products run/products --biases run/biases.txt
# adjust reads the products' sidecars, not their rasters
mkdir nopix
cp run/products/*.meta nopix/
satadjust adjust --tracks run/tracks.txt --products nopix --out adj
cmp adj/biases.txt run/biases.txt
cmp adj/report.json run/report.json
# a denominator that changes sign between the validation samples
# is a numerical failure: exit 3, without a traceback
mkdir pole
cp run/products/*.meta pole/
sed -i 's/^LINE_DEN_COEFF_2: .*/LINE_DEN_COEFF_2: 5.0/' pole/img_000.meta
code=0
satadjust adjust --tracks run/tracks.txt --products pole --out polerun 2> pole.err || code=$?
cat pole.err
test "$code" -eq 3
if grep -q Traceback pole.err; then exit 1; fi
# match validates the products' models too: exit 3, no matches
mkdir polematch
cp run/products/* polematch/
sed -i 's/^LINE_DEN_COEFF_2: .*/LINE_DEN_COEFF_2: 5.0/' polematch/img_000.meta
code=0
satadjust match --products polematch --out polematchrun 2> polematch.err || code=$?
cat polematch.err
test "$code" -eq 3
if grep -q Traceback polematch.err; then exit 1; fi
test ! -e polematchrun/correspondences.txt
# a bias file must name exactly the product images
echo "img_999 1.0 2.0" > ghost_biases.txt
code=0
satadjust report --tracks run/tracks.txt --products run/products --biases ghost_biases.txt || code=$?
test "$code" -eq 2
code=0
satadjust synth --out badsynth --bias-range nan || code=$?
test "$code" -eq 2
# a render too large to allocate is a data error: exit 2, no output
code=0
satadjust synth --out huge --render --half-extent 45000 || code=$?
test "$code" -eq 2
test ! -e huge
# a half extent far wider than any satellite scene is a data
# error too: exit 2, no output, no traceback
code=0
satadjust synth --out hx --half-extent 1e308 > hx.log 2>&1 || code=$?
cat hx.log
test "$code" -eq 2
test ! -e hx
if grep -q Traceback hx.log; then exit 1; fi
