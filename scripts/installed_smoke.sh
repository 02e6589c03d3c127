#!/usr/bin/env bash
# Run the installed `multiobserver` console script on the configs the package
# ships as data, with every Python warning an error:
#   - validate the four bundled configs;
#   - validate example3 with S:1 no longer marked practical (it has no certificate
#     over sin's slope sector), example2 with its tanh_channel gain widened from
#     -1.25 to -2 (its reduced-order J:1,2 loop fails over the slopes [-2, 0]),
#     example4 with a uniform attack on sensor 3 whose high - low overflows,
#     example3 with the removed settings calibration.c_safety: 1.3 and
#     scenario.noise_bound: 0.1, and example4 with isolation.eps: 1e308, whose
#     isolation thresholds overflow, and check that each exits 1 with its
#     listed problem and no traceback;
#   - run example4 and check that every file its metadata.json names is non-empty;
#   - run example3 for 100 000 steps into a temp directory and check that its
#     trajectory.csv has 100 002 lines and that no .tmp file is left;
#   - calibrate example4, example2 and example3, and validate what each writes;
#   - check that example1's calibration exits 2 with its pinned message;
#   - run example1 on seed 2 and check that it exits 2 with its step-4 divergence message;
#   - run example1 on seed 5070 and check that it exits 2 with its step-10 starvation message;
#     neither run leaves a directory.
# Install the package first (`python -m pip install .`) and run this from a
# scratch directory outside the checkout: it writes its outputs there.
set -eo pipefail
export PYTHONWARNINGS=error
scenarios="$(python -c "from importlib import resources; print(resources.files('multiobserver') / 'scenarios')")"
for config in "$scenarios"/example*.json; do multiobserver validate --config "$config"; done
# a circle and a reduced-order observer without a sector certificate, a range
# whose width overflows, two removed settings and an overflowing isolation
# threshold are listed config faults (exit 1)
python - "$scenarios" <<'CONFIGS'
import json, pathlib, sys
scenarios = pathlib.Path(sys.argv[1])
raw = json.loads((scenarios / "example3.json").read_text())
del raw["observers"]["bundle"]["S:1"]["practical"]
pathlib.Path("uncertified.json").write_text(json.dumps(raw))
raw = json.loads((scenarios / "example2.json").read_text())
raw["plant"]["nonlinearity"]["params"]["gain"] = -2.0
pathlib.Path("wide_channel.json").write_text(json.dumps(raw))
raw = json.loads((scenarios / "example4.json").read_text())
raw["scenario"]["attacks"]["3"] = {"kind": "uniform", "low": -1e308, "high": 1e308}
pathlib.Path("huge_uniform.json").write_text(json.dumps(raw))
raw = json.loads((scenarios / "example3.json").read_text())
raw["calibration"]["c_safety"] = 1.3
pathlib.Path("removed_setting.json").write_text(json.dumps(raw))
raw = json.loads((scenarios / "example3.json").read_text())
raw["scenario"]["noise_bound"] = 0.1
pathlib.Path("removed_bound.json").write_text(json.dumps(raw))
raw = json.loads((scenarios / "example4.json").read_text())
raw["isolation"]["eps"] = 1e308
pathlib.Path("huge_eps.json").write_text(json.dumps(raw))
CONFIGS
for case in "uncertified:S:1: sector certificate failed" \
            "wide_channel:J:1,2: sector certificate failed over slopes [-2, 0]" \
            "huge_uniform:scenario.attacks[3]: uniform signal's high - low overflows" \
            "removed_setting:calibration.c_safety: unknown field" \
            "removed_bound:scenario.noise_bound: unknown field" \
            "huge_eps:isolation: threshold for J:1,2,3 must be finite and >= 0, got inf"; do
    name="${case%%:*}"
    status=0
    multiobserver validate --config "$name.json" 2> "$name.err" || status=$?
    cat "$name.err"
    test "$status" -eq 1
    grep -F "  - ${case#*:}" "$name.err"
    if grep -qF Traceback "$name.err"; then exit 1; fi
done
multiobserver run --config "$scenarios/example4.json" --horizon 50 --out runs
python -c "import json, pathlib; run = pathlib.Path('runs/example4'); files = json.loads((run / 'metadata.json').read_text())['files']; assert all((run / name).stat().st_size > 0 for name in files.values() if name is not None), files"
# a long run streams every artifact into its .tmp and renames it when complete
long="$(mktemp -d)"
multiobserver run --config "$scenarios/example3.json" --horizon 100000 --out "$long"
test "$(wc -l < "$long/example3/trajectory.csv")" -eq 100002
test -z "$(find "$long" -name '*.tmp')"
rm -r "$long"
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
# example1's plant diverges on seed 2, and its whole bank on seed 5070 (exit 2)
for case in "2:plant state exceeded the divergence ceiling at step 4 (|x| = 1.168e+19)" \
            "5070:all deviation scores are infinite at step 10"; do
    seed="${case%%:*}"
    status=0
    multiobserver run --config "$scenarios/example1.json" --seed "$seed" --out runs 2> "run$seed.err" || status=$?
    cat "run$seed.err"
    test "$status" -eq 2
    grep -F "runtime failure: ${case#*:}" "run$seed.err"
    test ! -e runs/example1
done
