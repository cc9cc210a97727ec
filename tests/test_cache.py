"""Coefficient cache: location, round-trip, corruption tolerance."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from ballint import cache
from ballint.cache import cache_dir, cache_key, load_coeffs, store_coeffs

COEFFS = [Fraction(1), Fraction(-3, 20), Fraction(-13, 1120)]
HALF = Fraction(1, 2)


class TestLocation:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path / "c"))
        assert cache_dir() == tmp_path / "c"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BALLINT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_dir() == tmp_path / "ballint"


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        store_coeffs(HALF, 2, COEFFS)
        assert load_coeffs(HALF, 2) == COEFFS

    def test_nu_keyed_separately(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        store_coeffs(Fraction(1), 2, COEFFS)
        assert load_coeffs(Fraction(1), 2) == COEFFS
        assert load_coeffs(HALF, 2) is None
        assert load_coeffs(Fraction(1), 3) is None

    def test_entry_records_code_tag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        store_coeffs(HALF, 2, COEFFS)
        doc = json.loads((tmp_path / f"{cache_key(HALF, 2)}.json").read_text(encoding="utf-8"))
        assert doc["code"] == cache._code_tag() and "version" not in doc and "k" not in doc
        # one pipeline: sinc's tables are the nu = 1/2 entries
        assert doc["nu"] == "1/2" and "pipeline" not in doc

    def test_miss_is_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        assert load_coeffs(HALF, 7) is None


class TestKeys:
    def test_distinct_parameters_distinct_keys(self):
        keys = {
            cache_key(HALF, 2),
            cache_key(HALF, 3),
            cache_key(Fraction(1), 2),
            cache_key(Fraction(2), 2),
        }
        assert len(keys) == 4

    def test_key_is_hex_digest(self):
        k = cache_key(HALF, 2)
        assert len(k) == 64 and set(k) <= set("0123456789abcdef")

    def test_key_carries_code_tag(self, monkeypatch):
        # entries written by other code never share a key with this code's
        key = cache_key(HALF, 2)
        monkeypatch.setattr(cache, "_code_tag", lambda: "0" * 64)
        assert cache_key(HALF, 2) != key

    def test_code_tag_digests_the_coefficient_modules(self):
        source = Path(cache.__file__).parent
        modules = ("rationals", "series", "bessel", "cache")
        want = hashlib.sha256(b"".join((source / f"{name}.py").read_bytes() for name in modules))
        assert cache._code_tag() == want.hexdigest()


class TestCorruption:
    def _entry_path(self, tmp_path) -> Path:
        return tmp_path / f"{cache_key(HALF, 2)}.json"

    def test_garbage_payload(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        store_coeffs(HALF, 2, COEFFS)
        self._entry_path(tmp_path).write_text("{not json", encoding="utf-8")
        assert load_coeffs(HALF, 2) is None

    def test_non_canonical_rational(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        self._entry_path(tmp_path).write_text(
            '{"coefficients": ["1", "-3/20", "2/4"]}', encoding="utf-8")
        assert load_coeffs(HALF, 2) is None

    def test_wrong_length(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path))
        store_coeffs(HALF, 2, COEFFS[:2])
        assert load_coeffs(HALF, 2) is None

    def test_unwritable_location_degrades(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        monkeypatch.setenv("BALLINT_CACHE_DIR", str(blocker / "sub"))
        store_coeffs(HALF, 2, COEFFS)  # silently skipped
        assert load_coeffs(HALF, 2) is None
