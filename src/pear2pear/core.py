"""Identity and naming primitives: content hashing, SSID scheme, passphrases.

Everything here is a pure function; no simulation state is touched.
"""

import base64
import functools
import hashlib
import re
from dataclasses import dataclass, field

SSID_PREFIX = "P2P-"
PASSPHRASE_SALT = b"pear2pear-wpa/1:"
PASSPHRASE_LEN = 20
DIGEST_LEN = 32
# Device ids travel as u64 in frames and as 16 hex digits in an SSID.
DEVICE_ID_LIMIT = 1 << 64

_SSID_RE = re.compile(r"P2P-([0-9A-F]{16})-([0-9A-F]{8})")


@dataclass(frozen=True, order=True, slots=True)
class FileId:
    """Content hash of a file; identity is independent of any filename."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_LEN:
            raise ValueError(f"FileId digest must be {DIGEST_LEN} bytes")

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @property
    def short(self) -> str:
        return self.digest.hex()[:12]

    @classmethod
    def from_hex(cls, s: str) -> "FileId":
        return cls(bytes.fromhex(s))

    def __repr__(self):
        return f"FileId({self.short})"


def compute_file_id(content: bytes) -> FileId:
    return FileId(hashlib.sha256(content).digest())


def block_count_for(size: int, block_size: int) -> int:
    """Number of blocks for a file of `size` bytes; an empty file is one empty block."""
    if size <= 0:
        return 1
    return -(-size // block_size)


def block_payload(content: bytes, index: int, block_size: int) -> bytes:
    """The byte range of block `index`; the final block may be short."""
    count = block_count_for(len(content), block_size)
    if not 0 <= index < count:
        raise IndexError(f"block index {index} out of range (count {count})")
    return content[index * block_size:(index + 1) * block_size]


@dataclass(slots=True)
class FileMeta:
    """A file's id, names, size and block count, as a node holds it or a
    payload describes it. Its names grow in place."""
    file_id: FileId
    names: set = field(default_factory=set)
    size: int = 0
    block_count: int = 1


def make_meta(name: str, content: bytes, block_size: int) -> FileMeta:
    return FileMeta(
        file_id=compute_file_id(content),
        names={name},
        size=len(content),
        block_count=block_count_for(len(content), block_size),
    )


@dataclass(frozen=True)
class Ssid:
    root_id: int
    nonce: int


def render_ssid(ssid: Ssid) -> str:
    # Fixed-width hex keeps lexicographic order aligned with numeric order,
    # which the deterministic join tie-break relies on.
    return f"{SSID_PREFIX}{ssid.root_id:016X}-{ssid.nonce:08X}"


@functools.lru_cache(maxsize=1024)   # every scan parses every visible SSID
def parse_ssid(s: str):
    """Parse a rendered SSID; returns None for non-protocol networks. Only an
    exact rendering parses, so render_ssid(parse_ssid(s)) == s whenever the
    result is not None."""
    m = _SSID_RE.fullmatch(s)
    if m is None:
        return None
    return Ssid(root_id=int(m.group(1), 16), nonce=int(m.group(2), 16))


def allocate_nonce(device_id: int, generation: int) -> int:
    """Deterministic per-(device, hosting generation) SSID nonce."""
    h = hashlib.sha256(f"{device_id}:{generation}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def derive_passphrase(rendered_ssid: str) -> str:
    """Shared deterministic passphrase derivation from the rendered SSID."""
    digest = hashlib.sha256(PASSPHRASE_SALT + rendered_ssid.encode()).digest()
    return base64.urlsafe_b64encode(digest).decode("ascii")[:PASSPHRASE_LEN]
