"""Integer partitions: conjugation, rectangle complements, containment, enumeration."""

from __future__ import annotations

from itertools import combinations_with_replacement

from ._record import Record, set_field
from .mpoly import parse_int, require_int


class Partition(Record):
    """A weakly decreasing tuple of positive integers; ``Partition()`` is empty.

    Trailing zeros are trimmed on construction, so equality and hashing are
    structural.  Instances are frozen.  Text form is ``[3,1]`` with ``[]`` for
    the empty partition.  A non-``int`` part raises.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple = ()):
        parts = tuple(parts)
        require_int("part", *parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        set_field(self, "parts", parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the bracket form, e.g. ``[3,1]`` or ``[]``."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"partition text must look like [3,1], got {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls()
        return cls(parse_int(tok) for tok in inner.split(","))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero-padded past the last stored part."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        require_int("pad length", length)
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        width = self.parts[0]
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, width + 1)
        )

    def contains(self, inner: "Partition") -> bool:
        """Componentwise comparison with zero padding."""
        return all(inner.part(i) <= self.part(i) for i in range(len(inner.parts)))

    def complement(self, r: int, l: int) -> "Partition":
        """The 180-degree rotated complement inside an r-column, l-row box.

        Requires the partition to fit in the box; part i of the result is
        r minus the (l-1-i)-th zero-padded part.
        """
        if r < 0 or l < 0:
            raise ValueError("rectangle sides must be nonnegative")
        if not rectangle(r, l).contains(self):
            raise ValueError(f"{self} does not fit in the rectangle ({r}^{l})")
        padded = self.padded(l)
        return Partition(r - padded[l - 1 - i] for i in range(l))

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self):
        return f"Partition({list(self.parts)})"


def rectangle(r: int, l: int) -> Partition:
    """The partition made of l copies of r."""
    require_int("rectangle side", r, l)
    return Partition((r,) * l)


def enumerate_in_rectangle(r: int, l: int) -> list[Partition]:
    """Every partition contained in the r-column, l-row box, each once.

    Order is descending lexicographic on the zero-padded part sequences, so
    output is byte-stable across runs.
    """
    require_int("rectangle side", r, l)
    if r < 0 or l < 0:
        raise ValueError("rectangle sides must be nonnegative")
    return [Partition(c) for c in combinations_with_replacement(range(r, -1, -1), l)]
