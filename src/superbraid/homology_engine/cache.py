"""On-disk JSON cache of computed homology rows.

One file per (family, n, d, coefficient) holding the groups for all degrees,
written atomically.  A row is only reused when the stored convention
fingerprint matches; a fingerprint mismatch is an error rather than a silent
recompute so that stale caches get noticed.  So is a file that is truncated,
not JSON, missing a field, written under another cache version, or for
another row (n, d, coefficients or, in family A, the n degrees), and so is
a path that cannot be read or written.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..exact_linalg import AbelianGroup, prime_power_base, require_prime

CACHE_VERSION = 1
_FIELDS = frozenset({"fingerprint", "groups", "version"})


class CacheConflictError(RuntimeError):
    """A cache file exists with a different convention fingerprint."""


class CacheFormatError(CacheConflictError):
    """A cache file is unreadable, incomplete, of another version or row,
    or cannot be written."""


def cache_root(explicit=None) -> Path | None:
    """The cache directory: explicit argument, else SUPERBRAID_CACHE, else none.

    An empty explicit path raises CacheFormatError: Path('') would name
    the working directory, while an empty SUPERBRAID_CACHE means no cache.
    """
    if explicit is not None:
        if not os.fspath(explicit):
            raise CacheFormatError("the cache directory is an empty path")
        return Path(explicit)
    env = os.environ.get("SUPERBRAID_CACHE")
    return Path(env) if env else None


def parse_coeff(coeff: str) -> tuple[str, int | None]:
    """Split a coefficient spec into ('z', None) or ('f', p), with p
    certified by require_prime."""
    if coeff == "z":
        return ("z", None)
    if coeff.startswith("f:"):
        return ("f", require_prime(int(coeff[2:])))
    raise ValueError(f"bad coefficient spec {coeff!r}; use 'z' or 'f:p'")


def coeff_tag(coeff: str) -> str:
    """Canonical short tag: 'z' for integers, 'f<p>' for a prime field.
    It is read off parse_coeff, so no tag names a ring that does not
    exist."""
    kind, p = parse_coeff(coeff)
    return kind if p is None else f"{kind}{p}"


def cache_path(root: Path, family: str, n: int, d: int, coeff: str) -> Path:
    return Path(root) / f"h_{family}_{n}_{d}_{coeff_tag(coeff)}.json"


def encode_groups(groups) -> list[dict]:
    return [{"i": i, "rank": g.rank, "torsion": list(g.primary())}
            for i, g in enumerate(groups)]


def decode_groups(payload) -> list[AbelianGroup]:
    """The groups of a cache payload.  Each degree and rank must be an int
    at least 0, and each torsion entry a prime power p^k with p certified
    by require_prime, as encode_groups writes them; anything else raises
    ValueError, so a corrupt entry can never print as a group or send the
    group arithmetic into a long factorisation."""
    out = [None] * len(payload)
    for item in payload:
        i = item["i"]
        for name, x in (("degree", i), ("rank", item["rank"])):
            if type(x) is not int or x < 0:
                raise ValueError(f"{name} {x!r} is not an integer >= 0")
        if i >= len(out) or out[i] is not None:
            raise ValueError("cache payload has missing or duplicate degrees")
        for q in item["torsion"]:
            if type(q) is not int:
                raise ValueError(f"torsion entry {q!r} is not an integer")
            prime_power_base(q)
        out[i] = AbelianGroup.from_divisors(item["rank"], item["torsion"])
    return out


def _canonical(fingerprint: dict) -> str:
    return json.dumps(fingerprint, sort_keys=True)


def _read(path: Path) -> dict:
    """The blob of an existing cache file, checked for version and fields."""
    try:
        blob = json.loads(path.read_text())
    except OSError as err:  # a directory, say, where the file should be
        raise CacheFormatError(f"{path} cannot be read: {err}") from err
    except ValueError as err:  # truncated, not JSON, or not UTF-8
        raise CacheFormatError(f"{path} is not JSON: {err}") from err
    if not isinstance(blob, dict) or not _FIELDS <= blob.keys():
        raise CacheFormatError(
            f"{path} lacks one of the fields {', '.join(sorted(_FIELDS))}")
    if blob["version"] != CACHE_VERSION:
        raise CacheFormatError(
            f"{path} has cache version {blob['version']!r}, "
            f"not {CACHE_VERSION}")
    return blob


def load(root, family: str, n: int, d: int, coeff: str,
         fingerprint: dict) -> list[AbelianGroup] | None:
    path = cache_path(root, family, n, d, coeff)
    if not path.exists():
        return None
    blob = _read(path)
    row = {"n": n, "d": d, "coeff": coeff_tag(coeff)}
    held = {key: blob.get(key) for key in row}
    if _canonical(held) != _canonical(row):
        raise CacheFormatError(f"{path} holds row {held}, not {row}")
    if _canonical(blob["fingerprint"]) != _canonical(fingerprint):
        raise CacheConflictError(
            f"{path} was computed under fingerprint {blob['fingerprint']}, "
            f"not {fingerprint}")
    try:
        groups = decode_groups(blob["groups"])
    except (ValueError, KeyError, TypeError) as err:
        raise CacheFormatError(
            f"{path} holds unreadable groups: "
            f"{type(err).__name__}: {err}") from err
    if family == "A" and len(groups) != n:
        raise CacheFormatError(f"{path} holds {len(groups)} degrees, not {n}")
    return groups


def store(root, family: str, n: int, d: int, coeff: str,
          fingerprint: dict, groups) -> Path:
    path = cache_path(root, family, n, d, coeff)
    if path.exists():
        blob = _read(path)
        if _canonical(blob["fingerprint"]) != _canonical(fingerprint):
            raise CacheConflictError(
                f"refusing to overwrite {path}: fingerprint "
                f"{blob['fingerprint']} differs from {fingerprint}")
    payload = {
        "n": n,
        "d": d,
        "coeff": coeff_tag(coeff),
        "fingerprint": fingerprint,
        "groups": encode_groups(groups),
        "version": CACHE_VERSION,
    }
    tmp = None
    try:  # a regular file on the directory's path fails here, say
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as err:
        raise CacheFormatError(f"{path} cannot be written: {err}") from err
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return path
