"""The artifact writers against the ``csv.writer`` reference in ``_brute``.

The inputs are built by hand to reach what the bundled runs never do:
edge-case floats, a disturbance column, a run without truth, a window
without quorum, and run lengths on both sides of the row-block edges.
"""

import csv
import io

import _brute
import numpy as np
import pytest

from multiobserver import EstimatorRun, IsolationReport, IsolationWindow, Trajectory, bank_index
from multiobserver._csvtext import ROW_BLOCK, quote
from multiobserver.estimator import frames_to_csv
from multiobserver.isolation import steps_to_csv, windows_to_csv

EDGE_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 1e-05, 1e16, 5e-324,
               0.30000000000000004, -1.2345678901234567e-300]
LENGTHS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]


def _track(rng, rows, cols):
    """Floats over many magnitudes, every seventh entry an edge case."""
    a = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 13, (rows, cols))
    every = a.reshape(-1)[::7]
    every[:] = np.resize(EDGE_FLOATS, every.size)
    return a


def _text(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


@pytest.mark.parametrize("rows", LENGTHS)
def test_trajectory_csv_matches_the_reference(rows):
    rng = np.random.default_rng(rows)
    n, p = 3, 4
    traj = Trajectory(
        x=_track(rng, rows, n),
        y=_track(rng, rows, p),
        u=np.zeros((rows, 0)),
        d=_track(rng, rows, 1),  # n_d = 1: the writer emits a d column
        # the writer reads every dtype as float, as float(v) did
        m=_track(rng, rows, p).astype(np.float32),
        a=rng.integers(-5, 6, (rows, p)),
    )
    got = _text(Trajectory.write_csv, traj)
    assert got == _brute.trajectory_csv(traj)
    assert got.splitlines()[0].endswith(",m4,d1")
    assert len(got.splitlines()) == rows + 1


@pytest.mark.parametrize("with_truth", [True, False])
@pytest.mark.parametrize("rows", LENGTHS)
def test_frames_csv_matches_the_reference(rows, with_truth):
    rng = np.random.default_rng(rows)
    bank = bank_index(5, 2)  # J labels hold commas, so they are quoted
    n, n_j = 2, len(bank.j_subsets)
    run = EstimatorRun(
        bank=bank,
        est=np.zeros((len(bank.all_subsets), rows, n)),
        pi=_track(rng, rows, n_j),
        sigma_idx=rng.integers(0, n_j, rows),
        x_hat=_track(rng, rows, n),
        truth=_track(rng, rows, n) if with_truth else None,
    )
    got = _text(frames_to_csv, run)
    assert got == _brute.frames_csv(run)
    rows_read = list(csv.reader(io.StringIO(got)))
    assert rows_read[0][-1] == f"pi_{bank.j_subsets[-1].label}"
    if not with_truth:
        assert {row[2 + n] for row in rows_read[1:]} == {""}


def test_isolation_csvs_match_the_reference():
    # unions repeat, include the empty and the full set, and cross a row block
    unions = [(1, 2, 3), (), (1, 2, 3, 4, 5), (2,), (1, 3, 4)]
    step_unions = {k: unions[k % 7 % 5] for k in range(4, 4 + 2 * ROW_BLOCK + 3)}
    windows = (
        IsolationWindow(1, 4, 6, {(1, 2, 3): 2, (1, 3, 4): 1}, (1, 2, 3), (4, 5), False),
        IsolationWindow(2, 7, 9, {}, None, (), True),  # no quorum: no winner
        IsolationWindow(3, 10, 12, {(1, 2, 3, 4, 5): 3}, (1, 2, 3, 4, 5), (), False),
        IsolationWindow(4, 13, 15, {(1, 2, 3): 3}, (1, 2, 3), (4, 5), False),
    )
    report = IsolationReport(k_bar_star=4, step_unions=step_unions, windows=windows)
    got = _text(windows_to_csv, report)
    assert got == _brute.windows_csv(report)
    assert got.splitlines()[2] == "2,7,9,,,1"
    assert _text(steps_to_csv, report) == _brute.steps_csv(report)


@pytest.mark.parametrize("text", ["", "J", "J:1,2", "pi_S:1", 'say "hi"', "a,\"b\"", "two\nlines"])
def test_quote_matches_csv_writer(text):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["k", text])
    assert "k," + quote(text) + "\n" == buf.getvalue()
