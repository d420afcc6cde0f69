"""A small persistent (copy-on-write) mapping with structural sharing.

Explicit-state exploration snapshots millions of near-identical states, so
plain dict copies are O(n) per transition. This two-level sharded map makes
a single-key update cost two small list copies plus one leaf dict copy,
independent of total size. Bucket placement uses a deterministic hash so
behavior does not depend on PYTHONHASHSEED.

Iteration order is unspecified; callers that need determinism must iterate
by an externally ordered key list.
"""

from __future__ import annotations

from zlib import crc32

_OUTER = 64
_INNER = 64
_EMPTY_INNER = (None,) * _INNER


def _bucket(key) -> int:
    if isinstance(key, int):
        h = key * 0x9E3779B1 & 0xFFFFFFFF
    else:
        h = crc32(str(key).encode())
    return h


class SMap:
    __slots__ = ("_root",)

    def __init__(self, _root=None):
        self._root = _root if _root is not None else (None,) * _OUTER

    def get(self, key, default=None):
        h = _bucket(key)
        inner = self._root[h & 63]
        if inner is None:
            return default
        leaf = inner[(h >> 6) & 63]
        if leaf is None:
            return default
        return leaf.get(key, default)

    def set(self, key, value) -> "SMap":
        h = _bucket(key)
        i, j = h & 63, (h >> 6) & 63
        inner = self._root[i] or _EMPTY_INNER
        leaf = inner[j]
        if leaf is None:
            new_leaf = {key: value}
        else:
            new_leaf = dict(leaf)
            new_leaf[key] = value
        new_inner = list(inner)
        new_inner[j] = new_leaf
        new_root = list(self._root)
        new_root[i] = tuple(new_inner)
        return SMap(tuple(new_root))

    def items(self):
        for inner in self._root:
            if inner is None:
                continue
            for leaf in inner:
                if leaf:
                    yield from leaf.items()


EMPTY_SMAP = SMap()
