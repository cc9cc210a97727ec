"""On-disk cache for exact coefficient tables.

Location: $BALLINT_CACHE_DIR, else $XDG_CACHE_HOME/ballint, else
~/.cache/ballint.  Keys are content hashes over (nu, order m, code tag),
the code tag being a SHA-256 of the source of the modules that compute
and store coefficients, so an entry never outlives the code that wrote
it, and identical requests across runs share one entry.  Sinc's tables
are the entries at nu = 1/2.  No key holds a truncation index: every
k >= m + 1 gives the same coefficients.
Payloads hold exact rational strings only; decimals are recomputed on
render so cached and computed output stay byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .rationals import format_rational, parse_rational

__all__ = ["cache_dir", "cache_key", "load_coeffs", "store_coeffs"]

ENV_VAR = "BALLINT_CACHE_DIR"

# every module whose source can change a stored coefficient or its encoding
_CODE_MODULES = ("rationals.py", "series.py", "bessel.py", "cache.py")


@functools.cache
def _code_tag() -> str:
    digest = hashlib.sha256()
    for name in _CODE_MODULES:
        digest.update(Path(__file__).with_name(name).read_bytes())
    return digest.hexdigest()


def cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "ballint"


def _entry(nu: Fraction, m: int) -> dict:
    return {"nu": format_rational(nu), "m": m, "code": _code_tag()}


def cache_key(nu: Fraction, m: int) -> str:
    payload = json.dumps(_entry(nu, m), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_coeffs(nu: Fraction, m: int) -> list[Fraction] | None:
    path = cache_dir() / f"{cache_key(nu, m)}.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        values = [parse_rational(s) for s in doc["coefficients"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if len(values) != m + 1:
        return None
    return values


def store_coeffs(nu: Fraction, m: int, coeffs) -> None:
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        doc = {**_entry(nu, m), "coefficients": [format_rational(c) for c in coeffs]}
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, directory / f"{cache_key(nu, m)}.json")
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        # cache is best-effort; unwritable locations degrade to recompute
        return
