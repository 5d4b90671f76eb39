"""The JSON encoder behind every HTTP response body and RPC frame.

:func:`dumps` encodes with orjson.  A ``?detail=1`` view at n = 20k is
60,000 floats; the stdlib encoder spends most of a round trip formatting
them, and orjson does the same job more than ten times faster.

The stdlib encoder is kept for the inputs orjson would change or refuse:

* orjson writes NaN and ±Infinity as ``null``.  The API has always sent
  them as the ``NaN``/``Infinity`` tokens that ``json.loads`` reads back,
  and SLO reports, broken gauges and metrics histories carry them.
* orjson raises on ``numpy.float64``, on ints wider than 64 bits and on
  non-``str`` dict keys.  (Its ``OPT_NON_STR_KEYS`` would accept the keys
  but spell a float key its own way, ``"1e16"`` where the stdlib writes
  ``"1e+16"``, which is a different key once decoded.  No route sends a
  non-``str`` key, so they cost nothing on the stdlib path.)

So whenever orjson raises or its output contains ``null``, the object is
encoded again by ``json.dumps``.  ``null`` only comes from ``None`` or a
non-finite float, so the probe never misses a NaN.  A false positive (a
``None``, or the text ``null`` inside a string) costs speed, never
meaning.

Decoded with ``json.loads``, both paths give the same values.  Only the
bytes differ: compact separators, shortest float spellings such as
``1e16`` and ``0.00001``, and raw UTF-8 where the stdlib writes ``\\u``
escapes.  (orjson also encodes a few types the stdlib refuses, such as
dataclasses, enums and datetimes; no payload carries one.)

Decoding stays ``json.loads`` everywhere, because ``orjson.loads``
rejects the ``NaN`` tokens the fallback writes.
"""

from __future__ import annotations

import json

import orjson

__all__ = ["dumps"]


def dumps(obj) -> bytes:
    """Encode ``obj`` as compact UTF-8 JSON."""
    try:
        encoded = orjson.dumps(obj)
    except TypeError:  # orjson.JSONEncodeError subclasses TypeError
        pass
    else:
        if b"null" not in encoded:
            return encoded
    return json.dumps(obj, separators=(",", ":")).encode()
