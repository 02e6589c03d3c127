"""CSV text of the run artifacts, written a block of rows at a time.

Each writer turns at most ``ROW_BLOCK`` rows of its arrays into Python
lists with one ``tolist()`` call and formats every float with ``repr``,
the shortest text that ``float()`` reads back exactly.  Boxing one
numpy scalar per field and passing it through ``csv.writer`` cost more
than the formatting; the blocks keep those lists small on long runs.
"""

from __future__ import annotations

import numpy as np

ROW_BLOCK = 256


def quote(text: str) -> str:
    """``text`` as one CSV field, quoted where ``csv.writer`` quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_rows(block: np.ndarray) -> list[str]:
    """Each row of the 2-D ``block``, its floats by ``repr`` and comma-joined."""
    return [",".join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist()]
