"""Domain names as immutable label sequences.

Names are stored as tuples of lowercase byte-string labels, *without* the
root label; the root name is the empty tuple. Comparison is therefore
case-insensitive, matching DNS semantics (RFC 4343), and names are hashable
so they can key zone tables and caches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253  # presentation form, excluding trailing dot

#: Minimal public-suffix list for the TLDs the study covers (plus a few
#: multi-label suffixes so SLD extraction is exercised on the general case).
DEFAULT_PUBLIC_SUFFIXES = frozenset(
    {
        "com",
        "net",
        "org",
        "nl",
        "io",
        "biz",
        "info",
        "us",
        "co.uk",
        "org.uk",
        "ac.uk",
        "com.au",
        "co.jp",
    }
)


class InvalidNameError(ValueError):
    """Raised when text or wire data does not form a valid domain name."""


def _validate_label(label: bytes) -> bytes:
    if not label:
        raise InvalidNameError("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise InvalidNameError(
            f"label {label!r} exceeds {MAX_LABEL_LENGTH} octets"
        )
    return label.lower()


class DomainName:
    """An immutable, case-insensitive DNS domain name.

    >>> DomainName.from_text("WWW.Example.COM")
    DomainName('www.example.com')
    >>> DomainName.from_text("www.example.com").parent()
    DomainName('example.com')
    """

    __slots__ = ("_labels", "_hash")

    def __init__(self, labels: Iterable[bytes] = ()):
        self._labels: Tuple[bytes, ...] = tuple(
            _validate_label(bytes(label)) for label in labels
        )
        if sum(len(label) + 1 for label in self._labels) - 1 > MAX_NAME_LENGTH:
            raise InvalidNameError("name exceeds maximum length")
        self._hash = hash(self._labels)

    # -- constructors ----------------------------------------------------

    @classmethod
    def root(cls) -> "DomainName":
        """The DNS root (empty) name."""
        return _ROOT

    @classmethod
    def from_text(cls, text: str) -> "DomainName":
        """Parse a presentation-format name such as ``www.example.com.``."""
        text = text.strip()
        if text in ("", "."):
            return _ROOT
        if text.endswith("."):
            text = text[:-1]
        if not text:
            raise InvalidNameError("name consists only of a dot")
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise InvalidNameError(f"non-ASCII name {text!r}") from exc
        labels = raw.split(b".")
        return cls(labels)

    # -- fundamental properties ------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    def is_root(self) -> bool:
        return not self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        return self._labels == other._labels

    def __lt__(self, other: "DomainName") -> bool:
        # Canonical DNS ordering: compare from the rightmost label.
        return tuple(reversed(self._labels)) < tuple(reversed(other._labels))

    def __repr__(self) -> str:
        return f"DomainName({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- conversions ------------------------------------------------------

    def to_text(self, trailing_dot: bool = False) -> str:
        """Render in presentation format; the root renders as ``.``."""
        if not self._labels:
            return "."
        text = ".".join(label.decode("ascii") for label in self._labels)
        return text + "." if trailing_dot else text

    # -- structural operations ---------------------------------------------

    def parent(self) -> "DomainName":
        """The name with the leftmost label removed.

        Raises :class:`InvalidNameError` on the root name.
        """
        if not self._labels:
            raise InvalidNameError("the root name has no parent")
        return DomainName(self._labels[1:])

    def concat(self, suffix: "DomainName") -> "DomainName":
        """This name prepended to *suffix* (``www`` + ``example.com``)."""
        return DomainName(self._labels + suffix._labels)

    def prepend(self, label: str) -> "DomainName":
        """A new name with *label* added on the left."""
        return DomainName((label.encode("ascii"),) + self._labels)

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True if *self* equals *other* or sits below it in the tree."""
        if len(other._labels) > len(self._labels):
            return False
        if not other._labels:
            return True
        return self._labels[-len(other._labels):] == other._labels

    def relativize(self, origin: "DomainName") -> "DomainName":
        """Strip *origin* from the right of this name.

        Raises :class:`InvalidNameError` if *self* is not under *origin*.
        """
        if not self.is_subdomain_of(origin):
            raise InvalidNameError(f"{self} is not under {origin}")
        if not origin._labels:
            return self
        return DomainName(self._labels[: -len(origin._labels)])

    def split(self, depth: int) -> Tuple["DomainName", "DomainName"]:
        """Split into ``(prefix, suffix)`` where suffix has *depth* labels."""
        if depth < 0 or depth > len(self._labels):
            raise InvalidNameError(f"cannot split {self} at depth {depth}")
        if depth == 0:
            return self, _ROOT
        return (
            DomainName(self._labels[:-depth]),
            DomainName(self._labels[-depth:]),
        )

    # -- study-specific helpers ---------------------------------------------

    def public_suffix(self) -> Optional["DomainName"]:
        """The longest matching public suffix of this name, if any."""
        best: Optional[DomainName] = None
        for depth in range(1, len(self._labels) + 1):
            candidate = DomainName(self._labels[-depth:])
            if candidate.to_text() in DEFAULT_PUBLIC_SUFFIXES:
                best = candidate
        return best

    def sld(self) -> Optional["DomainName"]:
        """The registrable second-level domain of this name.

        ``www.shop.example.co.uk`` → ``example.co.uk``; returns ``None`` when
        the name is itself a public suffix or matches no known suffix. The
        paper detects DPS references by the SLD contained in CNAME and NS
        records (§3.3), which is exactly this operation.
        """
        suffix = self.public_suffix()
        if suffix is None or len(suffix) >= len(self._labels):
            return None
        return DomainName(self._labels[-(len(suffix) + 1):])


#: The singleton root name, shared by :meth:`DomainName.root`.
_ROOT = DomainName(())
