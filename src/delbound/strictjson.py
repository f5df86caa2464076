"""Strict JSON values: the one rule by which every JSON output, and every
certificate id, writes a float. A NaN or infinite float becomes None
(null), which strict parsers accept. Pure Python, so the LP and NRT
commands print through it without loading numpy.
"""

from __future__ import annotations

import math


def strict_json(value):
    """value with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json(v) for v in value]
    return value
