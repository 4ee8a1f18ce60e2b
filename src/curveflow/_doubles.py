"""Doubles as text at 17 significant digits, which round-trips exactly.

One formatter serves the JSON arrays and the CSV tables.  It fills one
``%.17g`` template per call, with no formatting call per element, and gives
the same bytes as ``format(x, ".17g")`` per element, ``-0`` included.
"""

from __future__ import annotations

import numpy as np


def format_doubles(values, newline="\n", null=None):
    """Text of a 1-D or 2-D float array: cells joined by commas, rows by newline.

    Non-finite values print as ``nan``/``inf``/``-inf``, the spelling of
    ``format(x, ".17g")``, unless ``null`` gives another spelling (JSON
    has no non-finite numbers and writes ``null``).
    """
    a = np.asarray(values, dtype=float)
    rows, cols = a.shape if a.ndim == 2 else (1, a.size)
    if null is not None:
        finite = np.isfinite(a).ravel()
        if not finite.all():
            # spell the non-finite cells out in the template, format the rest
            spelled = null.replace("%", "%%")
            cells = ["%.17g" if ok else spelled for ok in finite.tolist()]
            lines = (",".join(cells[r * cols : (r + 1) * cols]) for r in range(rows))
            return newline.join(lines) % tuple(a.ravel()[finite].tolist())
    line = ",".join(["%.17g"] * cols)
    return newline.join([line] * rows) % tuple(a.ravel().tolist())
