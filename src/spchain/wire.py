"""Canonical binary encoding helpers.

All integers are unsigned big-endian with fixed width; variable-length
byte strings and lists carry a 4-byte big-endian length prefix. Encoding
is canonical: structurally equal values always produce identical bytes.
"""

from __future__ import annotations


class DecodeError(ValueError):
    """Canonical decoding failed. ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def u8(value: int) -> bytes:
    return value.to_bytes(1, "big")


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def u256(value: int) -> bytes:
    return value.to_bytes(32, "big")


def var_bytes(data: bytes) -> bytes:
    return u32(len(data)) + data


def var_str(text: str) -> bytes:
    return var_bytes(text.encode("utf-8"))


class Reader:
    """Cursor over a byte string; every failure reports its offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise DecodeError(f"truncated: wanted {n} bytes", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u256(self) -> int:
        return int.from_bytes(self.take(32), "big")

    def var_bytes(self) -> bytes:
        n = self.u32()
        return self.take(n)

    def var_str(self) -> str:
        raw = self.var_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DecodeError("invalid utf-8 string", self.pos - len(raw))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes after value", self.pos)
