#!/usr/bin/env bash
# Run the installed `multiobserver` console script on the configs the package
# ships as data, with every Python warning an error:
#   - validate the four bundled configs;
#   - run example4 and check that every file its metadata.json names is non-empty;
#   - calibrate example4, example2 and example3, and validate what each writes;
#   - check that example1's calibration exits 2 with its pinned message.
# Install the package first (`python -m pip install .`) and run this from a
# scratch directory outside the checkout: it writes its outputs there.
set -eo pipefail
export PYTHONWARNINGS=error
scenarios="$(python -c "from importlib import resources; print(resources.files('multiobserver') / 'scenarios')")"
for config in "$scenarios"/example*.json; do multiobserver validate --config "$config"; done
multiobserver run --config "$scenarios/example4.json" --horizon 50 --out runs
python -c "import json, pathlib; run = pathlib.Path('runs/example4'); files = json.loads((run / 'metadata.json').read_text())['files']; assert all((run / name).stat().st_size > 0 for name in files.values() if name is not None), files"
multiobserver calibrate --config "$scenarios/example4.json" --trials 2 --out calibrated.json
multiobserver validate --config calibrated.json
# example2's reduced-order bank steps both fits in one bank pass
multiobserver calibrate --config "$scenarios/example2.json" --trials 2 --out calibrated2.json
multiobserver validate --config calibrated2.json
# example3's circle bank has |J| = 3 and 1 classes (example4's has 3 and 2):
# both circle kernels step each of them
multiobserver calibrate --config "$scenarios/example3.json" --trials 2 --horizon 50 --out calibrated3.json
multiobserver validate --config calibrated3.json
# example1's plant diverges in the observer fits, which ends the fit (exit 2)
status=0
multiobserver calibrate --config "$scenarios/example1.json" --trials 2 --out calibrated1.json 2> calibrate1.err || status=$?
cat calibrate1.err
test "$status" -eq 2
grep -F "calibration failed for: J:1,2: plant diverged at step 4 of calibration trial 0" calibrate1.err
