"""Strict parsing of the numeric ``REPRO_*`` environment settings."""

from __future__ import annotations

import os
from typing import Callable, Optional, Union

Number = Union[int, float]


def env_number(name: str, kind: Callable[[str], Number] = float
               ) -> Optional[Number]:
    """Environment variable ``name`` parsed by ``kind`` (``float`` or
    ``int``); ``None`` when unset or blank.  A malformed value raises
    ``ValueError`` naming the variable — a typo such as
    ``REPRO_SHARD_MB=1GB`` must not silently mean "unbounded"."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}={raw!r} is not {what}") from None
